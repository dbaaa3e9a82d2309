module Topology = Cn_network.Topology
module Counting = Cn_core.Counting
module Ladder = Cn_core.Ladder
module Merging = Cn_core.Merging
module Butterfly = Cn_core.Butterfly
module Blocks = Cn_core.Blocks
module Bitonic = Cn_baselines.Bitonic
module Periodic = Cn_baselines.Periodic
module Diffracting = Cn_baselines.Diffracting

type entry = {
  name : string;
  expectation : Cert.expectation;
  expected_depth : int;
  build : unit -> Topology.t;
  reference : (unit -> Topology.t) * string;
  iso_hint : (unit -> int array) option;
}

let schema_version = 3

let widths = [ 2; 4; 8; 16; 32; 64 ]

let lg w =
  let rec go acc w = if w <= 1 then acc else go (acc + 1) (w / 2) in
  go 0 w

type family =
  | Counting
  | Bitonic
  | Periodic
  | Diffracting
  | Butterfly_fwd
  | Butterfly_bwd
  | Ladder
  | Merging
  | C_prime

let entry family ~w ~t ~delta =
  let plain name expectation expected_depth build cite =
    { name; expectation; expected_depth; build; reference = (build, cite); iso_hint = None }
  in
  match family with
  | Counting ->
      plain (Printf.sprintf "C(%d,%d)" w t) Cert.Counting (Counting.depth_formula ~w)
        (fun () -> Counting.network ~w ~t)
        "Theorems 4.1/4.2"
  | Merging ->
      plain (Printf.sprintf "M(%d,%d)" w delta) (Cert.Merging delta)
        (Merging.depth_formula ~delta)
        (fun () -> Merging.network ~t:w ~delta)
        "Lemma 3.1"
  | Bitonic ->
      plain (Printf.sprintf "BITONIC(%d)" w) Cert.Counting (Bitonic.depth_formula ~w)
        (fun () -> Bitonic.network w)
        "Aspnes-Herlihy-Shavit, Section 3"
  | Periodic ->
      plain (Printf.sprintf "PERIODIC(%d)" w) Cert.Counting (Periodic.depth_formula ~w)
        (fun () -> Periodic.network w)
        "Aspnes-Herlihy-Shavit, Section 4"
  | Diffracting ->
      plain (Printf.sprintf "DIFF(%d)" w) Cert.Counting (Diffracting.depth_formula ~w)
        (fun () -> Diffracting.network w)
        "Shavit-Zemach"
  | Butterfly_fwd ->
      plain (Printf.sprintf "D(%d)" w)
        (Cert.Smoothing (Butterfly.smoothness_bound ~w))
        (Butterfly.depth_formula ~w)
        (fun () -> Butterfly.forward w)
        "Lemma 5.2"
  | Butterfly_bwd ->
      (* E(w) is certified against D(w): structural equality fails and
         the Lemma 5.3 isomorphism carries the evidence. *)
      {
        name = Printf.sprintf "E(%d)" w;
        expectation = Cert.Smoothing (Butterfly.smoothness_bound ~w);
        expected_depth = Butterfly.depth_formula ~w;
        build = (fun () -> Butterfly.backward w);
        reference = ((fun () -> Butterfly.forward w), "Lemma 5.3");
        iso_hint = Some (fun () -> Butterfly.lemma_5_3_mapping w);
      }
  | Ladder ->
      plain (Printf.sprintf "L(%d)" w) Cert.Half_split 1 (fun () -> Ladder.network w) "Section 4.1"
  | C_prime ->
      plain (Printf.sprintf "C'(%d,%d)" w t)
        (Cert.Smoothing (Blocks.smoothing_parameter ~w ~t))
        (lg w)
        (fun () -> Blocks.c_prime ~w ~t)
        "Lemma 6.6"

let entries () =
  List.concat_map
    (fun w ->
      List.filter_map
        (fun t -> if Counting.valid ~w ~t then Some (entry Counting ~w ~t ~delta:0) else None)
        (w :: (if w >= 4 then [ w * lg w ] else []))
      @ List.map
          (fun family -> entry family ~w ~t:w ~delta:0)
          [ C_prime; Butterfly_fwd; Butterfly_bwd; Ladder; Bitonic; Periodic; Diffracting ])
    widths
  @ List.filter_map
      (fun (t, delta) ->
        if Merging.valid ~t ~delta then Some (entry Merging ~w:t ~t ~delta) else None)
      [ (8, 2); (16, 2); (16, 4); (32, 4); (64, 8) ]

let certify ?exhaustive_budget entry =
  Cert.certify
    ~reference:(let f, cite = entry.reference in (f (), cite))
    ?iso_hint:(Option.map (fun f -> f ()) entry.iso_hint)
    ~expected_depth:entry.expected_depth ?exhaustive_budget
    ~subject:entry.name ~expectation:entry.expectation (entry.build ())

let run ?exhaustive_budget () =
  List.map (certify ?exhaustive_budget) (entries ())

let all_ok certs = List.for_all Cert.ok certs

let pp_summary ppf certs =
  List.iter (fun c -> Format.fprintf ppf "%a@\n" Cert.pp_line c) certs;
  let failed = List.filter (fun c -> not (Cert.ok c)) certs in
  if failed = [] then Format.fprintf ppf "%d certificates, all ok@\n" (List.length certs)
  else
    Format.fprintf ppf "%d certificates, %d FAILED@\n" (List.length certs) (List.length failed)

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
