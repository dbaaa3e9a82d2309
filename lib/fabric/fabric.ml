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

(* ------------------------------------------------------------------ *)
(* Backend profiles: exact fabric-backed counting for billing-grade
   keys, sketch lanes for high-cardinality telemetry, with the key
   class deciding the route and the telemetry lanes addressed through
   the same consistent-hash ring the shards use. *)

module Sketch_backend = Cn_sketch.Backend
module Hll = Cn_sketch.Hll
module Sparse = Cn_sketch.Sparse
module SC = Cn_runtime.Shared_counter

type key_class = Billing | Telemetry

type profiled = {
  counter : SC.t;
  billing_value : unit -> int;
  telemetry_estimate : unit -> float;
  telemetry_memory_bytes : unit -> int;
  telemetry_lanes : int;
}

let profiled_counter ?(backend = Svc.Hll { precision = 12 }) ?(lanes = 4)
    ?vnodes ~classify t =
  if lanes < 1 then invalid_arg "Fabric.profiled_counter: lanes must be positive";
  let module A = Cn_runtime.Atomics.Real in
  (* Billing tier: one exact fabric session per pid, pooled with the
     same lock-free-fast-path / double-read-miss-path discipline as
     Service.shared_counter.  The session key is the pid, so a billing
     key stays pinned to its shard across rescales. *)
  let pool = A.make [||] in
  let lock =
    (Mutex.create
    [@atomlint.allow
      "growth-path-only lock: taken once per high-water billing pid, \
       never on the operation fast path, which reads the atomic pool \
       snapshot"])
      ()
  in
  let session_for pid =
    let p = A.get pool in
    if pid < Array.length p then p.(pid)
    else begin
      (Mutex.lock [@atomlint.allow "growth path, see profiled_counter"]) lock;
      let p = A.get pool in
      let q =
        if pid < Array.length p then p
        else begin
          let n = max (pid + 1) (max 1 (2 * Array.length p)) in
          let q =
            Array.init n (fun i ->
                if i < Array.length p then p.(i)
                else Core.session ~key:i t)
          in
          A.set pool q;
          q
        end
      in
      (Mutex.unlock [@atomlint.allow "growth path, see profiled_counter"]) lock;
      q.(pid)
    end
  in
  let rec billing_op f ~pid =
    match f (session_for pid) with
    | Ok v -> v
    | Error Core.Overloaded ->
        Domain.cpu_relax ();
        billing_op f ~pid
    | Error Core.Closed -> failwith "Fabric.profiled_counter: fabric is closed"
  in
  (* Telemetry tier: [lanes] independent sketches behind their own
     consistent-hash ring, so one hot lane never serializes the rest
     and a lane count change (a future knob) would remap only 1/(n+1)
     of the key space. *)
  let ring = Router.make ?vnodes (List.init lanes (fun i -> i)) in
  let lane_counters, telemetry_estimate, telemetry_memory_bytes =
    match backend with
    | Svc.Exact ->
        invalid_arg
          "Fabric.profiled_counter: the telemetry backend must be a sketch \
           tier (hll or sparse); billing-grade keys already get the exact \
           tier via classify"
    | Svc.Hll { precision } ->
        let ls =
          (* Disjoint key residue classes per lane: without them two
             lanes' mints collide and the union undercounts. *)
          Array.init lanes (fun i ->
              Sketch_backend.hll ~precision ~lane:(i, lanes) ())
        in
        let union_all (pick : Sketch_backend.hll -> Hll.t) =
          let u = pick ls.(0) in
          Array.fold_left
            (fun acc l -> Hll.union acc (pick l))
            u
            (Array.sub ls 1 (lanes - 1))
        in
        ( Array.map (fun (l : Sketch_backend.hll) -> l.Sketch_backend.counter) ls,
          (fun () ->
            Hll.cardinality (union_all (fun l -> l.Sketch_backend.incs))
            -. Hll.cardinality (union_all (fun l -> l.Sketch_backend.decs))),
          fun () ->
            Array.fold_left
              (fun acc (l : Sketch_backend.hll) ->
                acc
                + Hll.memory_bytes l.Sketch_backend.incs
                + Hll.memory_bytes l.Sketch_backend.decs)
              0 ls )
    | Svc.Sparse { counters; degree } ->
        let ls =
          Array.init lanes (fun _ -> Sketch_backend.sparse ~counters ~degree ())
        in
        ( Array.map (fun l -> l.Sketch_backend.counter) ls,
          (fun () ->
            float_of_int
              (Array.fold_left
                 (fun acc l -> acc + Sparse.total l.Sketch_backend.sketch)
                 0 ls)),
          fun () ->
            Array.fold_left
              (fun acc l -> acc + Sparse.memory_bytes l.Sketch_backend.sketch)
              0 ls )
  in
  let telemetry f ~pid = f lane_counters.(Router.route ring pid) ~pid in
  let next ~pid =
    match classify pid with
    | Billing -> billing_op Core.increment ~pid
    | Telemetry -> telemetry SC.next ~pid
  in
  let prev ~pid =
    match classify pid with
    | Billing -> billing_op Core.decrement ~pid
    | Telemetry -> telemetry SC.prev ~pid
  in
  {
    counter = SC.custom ~name:"profiled" ~next ~prev ();
    billing_value = (fun () -> Core.read t);
    telemetry_estimate;
    telemetry_memory_bytes;
    telemetry_lanes = lanes;
  }
