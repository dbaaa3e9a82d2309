(* The production fabric: Fabric_core's protocol over the real atomics
   and the real combining Service, with the certification policy the
   core functor keeps abstract filled in concretely: every topology —
   initial shards, hot-resize candidates, grow targets — runs the
   Cn_lint eight-pass pipeline with expectation [Counting] before it
   may serve traffic; a certificate that is not ok, or whose evidence
   is a refutation, is a hard abort (the resize returns [Cert_rejected]
   and nothing changed). *)

module Topology = Cn_network.Topology
module Counting = Cn_core.Counting
module RT = Cn_runtime.Network_runtime
module V = Cn_runtime.Validator
module Svc = Cn_service.Service
module Cert = Cn_lint.Cert

(* Service, extended with the one accessor the fabric's accounting
   needs: the logical counter value behind a service (net tokens
   handed out, from the runtime's assignment cells). *)
module Service_ext = struct
  include Svc

  let net_count svc = RT.net_count (Svc.runtime svc)
end

module Core = Fabric_core.Make (Cn_runtime.Atomics.Real) (Service_ext)
include Core

(* ------------------------------------------------------------------ *)
(* Certification. *)

let certificate ?(exhaustive_budget = 2_000) net =
  let w = Topology.input_width net and t = Topology.output_width net in
  (* When the dimensions are a legal C(w,t) pair, rebuild the trusted
     construction as the structural reference: fabric topologies built
     by [Counting.network] then certify By_construction, and anything
     else must earn its evidence from the analytic passes. *)
  let reference =
    if Counting.valid ~w ~t then
      Some (Counting.network ~w ~t, "Busch-Mavronicolas Theorem 4.2, C(w,t)")
    else None
  in
  Cert.certify ?reference ~exhaustive_budget
    ~subject:(Printf.sprintf "fabric:C(%d,%d)" w t)
    ~expectation:Cert.Counting net

let certify_topology ?exhaustive_budget net =
  let cert = certificate ?exhaustive_budget net in
  let refuted =
    match cert.Cert.evidence with Cert.Refuted _ -> true | _ -> false
  in
  if Cert.ok cert && not refuted then Ok cert
  else Error (Format.asprintf "%a" Cert.pp_line cert)

(* ------------------------------------------------------------------ *)

let create ?mode ?(metrics = false) ?max_batch ?queue ?elim ?(validate = V.Strict)
    ?max_shards ?vnodes ?exhaustive_budget ~shards net =
  if shards < 1 then invalid_arg "Fabric.create: shards must be positive";
  let spawn topo = Svc.create ?mode ~metrics ?max_batch ?queue ?elim ~validate topo in
  let certify topo =
    match certify_topology ?exhaustive_budget topo with
    | Ok _ -> Ok ()
    | Error msg -> Error msg
  in
  Core.make ?max_shards ?vnodes ~validate ~spawn ~certify
    (List.init shards (fun _ -> net))

(* ------------------------------------------------------------------ *)
(* Reporting. *)

type shard_info = {
  id : int;
  width : int;
  out_width : int;
  gen : int;
  value : int;
}

let shard_info t sid =
  let topo = Core.shard_topology t sid in
  {
    id = sid;
    width = Topology.input_width topo;
    out_width = Topology.output_width topo;
    gen = Core.shard_gen t sid;
    value = Core.shard_value t sid;
  }

let shard_infos t = List.init (Core.shard_count t) (shard_info t)

let report_json t =
  let shards =
    String.concat ",\n    "
      (List.map
         (fun i ->
           Printf.sprintf
             "{ \"id\": %d, \"w\": %d, \"t\": %d, \"gen\": %d, \"value\": %d }"
             i.id i.width i.out_width i.gen i.value)
         (shard_infos t))
  in
  Printf.sprintf
    "{\n\"fabric\": { \"shards\": %d, \"value\": %d, \"closed\": %b },\n\
     \"shard\": [\n    %s\n  ],\n\"service\": [\n%s\n]\n}"
    (Core.shard_count t) (Core.read t) (Core.closed t) shards
    (String.concat ",\n"
       (List.init (Core.shard_count t) (fun sid ->
            Svc.report_json (Core.shard_service t sid))))
