module Topology = Cn_network.Topology
module Counting = Cn_core.Counting
module Ladder = Cn_core.Ladder
module Merging = Cn_core.Merging
module Merger = Cn_core.Merger
module Butterfly = Cn_core.Butterfly
module Blocks = Cn_core.Blocks
module Bitonic = Cn_baselines.Bitonic
module Periodic = Cn_baselines.Periodic
module Diffracting = Cn_baselines.Diffracting
module Rt = Cn_runtime.Network_runtime

type entry = {
  name : string;
  expectation : Cert.expectation;
  expected_depth : int;
  build : unit -> Topology.t;
  reference : ((unit -> Topology.t) * string) option;
  iso_hint : (unit -> int array) option;
  merger : string option;
}

let schema_version = 2

let widths = [ 2; 4; 8; 16; 32; 64 ]

let lg w =
  let rec go acc w = if w <= 1 then acc else go (acc + 1) (w / 2) in
  go 0 w

let entries () =
  List.concat_map
    (fun w ->
      let lgw = lg w in
      let counting_entries =
        List.filter_map
          (fun (suffix, t) ->
            if Counting.valid ~w ~t then
              Some
                {
                  name = Printf.sprintf "C(%d,%s)" w suffix;
                  expectation = Cert.Counting;
                  expected_depth = Counting.depth_formula ~w;
                  build = (fun () -> Counting.network ~w ~t);
                  reference = Some ((fun () -> Counting.network ~w ~t), "Theorems 4.1/4.2");
                  iso_hint = None;
                  merger = None;
                }
            else None)
          ([ (string_of_int w, w) ] @ if w >= 4 then [ (Printf.sprintf "%d" (w * lgw), w * lgw) ] else [])
      in
      counting_entries
      @ [
          {
            name = Printf.sprintf "C'(%d,%d)" w w;
            expectation = Cert.Smoothing (Blocks.smoothing_parameter ~w ~t:w);
            expected_depth = lgw;
            build = (fun () -> Blocks.c_prime ~w ~t:w);
            reference = Some ((fun () -> Blocks.c_prime ~w ~t:w), "Lemma 6.6");
            iso_hint = None;
            merger = None;
          };
          {
            name = Printf.sprintf "D(%d)" w;
            expectation = Cert.Smoothing (Butterfly.smoothness_bound ~w);
            expected_depth = Butterfly.depth_formula ~w;
            build = (fun () -> Butterfly.forward w);
            reference = Some ((fun () -> Butterfly.forward w), "Lemma 5.2");
            iso_hint = None;
            merger = None;
          };
          {
            (* E(w) is certified against D(w): structural equality fails
               and the Lemma 5.3 isomorphism carries the evidence. *)
            name = Printf.sprintf "E(%d)" w;
            expectation = Cert.Smoothing (Butterfly.smoothness_bound ~w);
            expected_depth = Butterfly.depth_formula ~w;
            build = (fun () -> Butterfly.backward w);
            reference = Some ((fun () -> Butterfly.forward w), "Lemma 5.3");
            iso_hint = Some (fun () -> Butterfly.lemma_5_3_mapping w);
            merger = None;
          };
          {
            name = Printf.sprintf "L(%d)" w;
            expectation = Cert.Half_split;
            expected_depth = 1;
            build = (fun () -> Ladder.network w);
            reference = Some ((fun () -> Ladder.network w), "Section 4.1");
            iso_hint = None;
            merger = None;
          };
          {
            name = Printf.sprintf "BITONIC(%d)" w;
            expectation = Cert.Counting;
            expected_depth = Bitonic.depth_formula ~w;
            build = (fun () -> Bitonic.network w);
            reference = Some ((fun () -> Bitonic.network w), "Aspnes-Herlihy-Shavit, Section 3");
            iso_hint = None;
            merger = None;
          };
          {
            name = Printf.sprintf "PERIODIC(%d)" w;
            expectation = Cert.Counting;
            expected_depth = Periodic.depth_formula ~w;
            build = (fun () -> Periodic.network w);
            reference = Some ((fun () -> Periodic.network w), "Aspnes-Herlihy-Shavit, Section 4");
            iso_hint = None;
            merger = None;
          };
          {
            name = Printf.sprintf "DIFF(%d)" w;
            expectation = Cert.Counting;
            expected_depth = Diffracting.depth_formula ~w;
            build = (fun () -> Diffracting.network w);
            reference = Some ((fun () -> Diffracting.network w), "Shavit-Zemach");
            iso_hint = None;
            merger = None;
          };
        ])
    widths
  @ List.filter_map
      (fun (t, delta) ->
        if Merging.valid ~t ~delta then
          Some
            {
              name = Printf.sprintf "M(%d,%d)" t delta;
              expectation = Cert.Merging delta;
              expected_depth = Merging.depth_formula ~delta;
              build = (fun () -> Merging.network ~t ~delta);
              reference = Some ((fun () -> Merging.network ~t ~delta), "Lemma 3.1");
              iso_hint = None;
              merger = None;
            }
        else None)
      [ (8, 2); (16, 2); (16, 4); (32, 4); (64, 8) ]

(* ---- the hybrid campaign -------------------------------------------

   Merger-substituted C(w, t) plus the standalone periodic merger
   stages.  Hybrids carry no reference construction — no theorem of the
   paper covers a substituted merger — so their evidence comes from the
   exhaustive and escalate passes alone, and a pinned [Refuted]
   certificate with its replayable counterexample is as much a result
   as a certification. *)

let hybrid_strategies = [ Merger.Periodic3; Merger.Periodic_k 2; Merger.Periodic_k 6 ]
let hybrid_scopes = [ Merger.Top_only; Merger.All_levels ]

(* A periodic merger needs a power-of-two width at every substituted
   level, so only (w, t) pairs with t a power of two qualify; the wide
   t = w·lgw configurations survive at w = 4 and w = 16. *)
let hybrid_sizes = [ (4, 4); (4, 8); (8, 8); (16, 16); (16, 64); (32, 32); (64, 64) ]

let hybrid_entries () =
  List.concat_map
    (fun (w, t) ->
      List.concat_map
        (fun strategy ->
          List.map
            (fun scope ->
              let tag = Merger.strategy_name strategy ^ "/" ^ Merger.scope_name scope in
              {
                name = Printf.sprintf "C(%d,%d)[%s]" w t tag;
                expectation = Cert.Counting;
                expected_depth = Counting.depth_formula_with ~merger:strategy ~scope ~w ~t;
                build = (fun () -> Counting.network_with ~merger:strategy ~scope ~w ~t);
                reference = None;
                iso_hint = None;
                merger = Some tag;
              })
            hybrid_scopes)
        hybrid_strategies)
    hybrid_sizes
  @ List.concat_map
      (fun t ->
        List.map
          (fun strategy ->
            let delta = t / 2 in
            let tag = Merger.strategy_name strategy in
            {
              name = Printf.sprintf "M(%d,%d)[%s]" t delta tag;
              expectation = Cert.Merging delta;
              expected_depth = Merger.depth_formula ~strategy ~t ~delta;
              build = (fun () -> Merger.network ~strategy ~t ~delta);
              reference = None;
              iso_hint = None;
              merger = Some tag;
            })
          hybrid_strategies)
      [ 4; 8; 16; 32; 64 ]

let certify ?exhaustive_budget entry =
  Cert.certify
    ?reference:(Option.map (fun (f, cite) -> (f (), cite)) entry.reference)
    ?iso_hint:(Option.map (fun f -> f ()) entry.iso_hint)
    ?merger:entry.merger ~expected_depth:entry.expected_depth ?exhaustive_budget
    ~subject:entry.name ~expectation:entry.expectation (entry.build ())

let run ?exhaustive_budget () =
  List.map (certify ?exhaustive_budget) (entries ())

let run_hybrids ?exhaustive_budget () =
  List.map (certify ?exhaustive_budget) (hybrid_entries ())

let all_ok certs = List.for_all Cert.ok certs

let refuted c = match c.Cert.evidence with Cert.Refuted _ -> true | _ -> false

(* A hybrid certificate is adjudicated when the pipeline reached a
   decision either way: certified clean, or refuted with a concrete
   counterexample.  Anything else (a diagnostic without a refutation,
   e.g. a depth-formula mismatch) is a pipeline failure, not a result. *)
let adjudicated c = Cert.ok c || refuted c

let all_adjudicated certs = List.for_all adjudicated certs

let pp_summary ppf certs =
  List.iter (fun c -> Format.fprintf ppf "%a@\n" Cert.pp_line c) certs;
  let failed = List.filter (fun c -> not (Cert.ok c)) certs in
  if failed = [] then Format.fprintf ppf "%d certificates, all ok@\n" (List.length certs)
  else
    Format.fprintf ppf "%d certificates, %d FAILED@\n" (List.length certs) (List.length failed)

let pp_hybrid_summary ppf certs =
  List.iter (fun c -> Format.fprintf ppf "%a@\n" Cert.pp_line c) certs;
  let nref = List.length (List.filter refuted certs) in
  let bad = List.filter (fun c -> not (adjudicated c)) certs in
  if bad = [] then
    Format.fprintf ppf "%d hybrid certificates: %d certified, %d refuted with pinned counterexamples@\n"
      (List.length certs)
      (List.length certs - nref)
      nref
  else
    Format.fprintf ppf "%d hybrid certificates, %d UNADJUDICATED@\n" (List.length certs)
      (List.length bad)

let to_json certs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "{\"schema_version\":%d,\"certificates\":[" schema_version);
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Cert.to_json c))
    certs;
  Buffer.add_string buf (Printf.sprintf "],\"ok\":%b}" (all_ok certs));
  Buffer.contents buf
