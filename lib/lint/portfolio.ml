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
                  reference = ((fun () -> Counting.network ~w ~t), "Theorems 4.1/4.2");
                  iso_hint = None;
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
            reference = ((fun () -> Blocks.c_prime ~w ~t:w), "Lemma 6.6");
            iso_hint = None;
          };
          {
            name = Printf.sprintf "D(%d)" w;
            expectation = Cert.Smoothing (Butterfly.smoothness_bound ~w);
            expected_depth = Butterfly.depth_formula ~w;
            build = (fun () -> Butterfly.forward w);
            reference = ((fun () -> Butterfly.forward w), "Lemma 5.2");
            iso_hint = None;
          };
          {
            (* E(w) is certified against D(w): structural equality fails
               and the Lemma 5.3 isomorphism carries the evidence. *)
            name = Printf.sprintf "E(%d)" w;
            expectation = Cert.Smoothing (Butterfly.smoothness_bound ~w);
            expected_depth = Butterfly.depth_formula ~w;
            build = (fun () -> Butterfly.backward w);
            reference = ((fun () -> Butterfly.forward w), "Lemma 5.3");
            iso_hint = Some (fun () -> Butterfly.lemma_5_3_mapping w);
          };
          {
            name = Printf.sprintf "L(%d)" w;
            expectation = Cert.Half_split;
            expected_depth = 1;
            build = (fun () -> Ladder.network w);
            reference = ((fun () -> Ladder.network w), "Section 4.1");
            iso_hint = None;
          };
          {
            name = Printf.sprintf "BITONIC(%d)" w;
            expectation = Cert.Counting;
            expected_depth = Bitonic.depth_formula ~w;
            build = (fun () -> Bitonic.network w);
            reference = ((fun () -> Bitonic.network w), "Aspnes-Herlihy-Shavit, Section 3");
            iso_hint = None;
          };
          {
            name = Printf.sprintf "PERIODIC(%d)" w;
            expectation = Cert.Counting;
            expected_depth = Periodic.depth_formula ~w;
            build = (fun () -> Periodic.network w);
            reference = ((fun () -> Periodic.network w), "Aspnes-Herlihy-Shavit, Section 4");
            iso_hint = None;
          };
          {
            name = Printf.sprintf "DIFF(%d)" w;
            expectation = Cert.Counting;
            expected_depth = Diffracting.depth_formula ~w;
            build = (fun () -> Diffracting.network w);
            reference = ((fun () -> Diffracting.network w), "Shavit-Zemach");
            iso_hint = None;
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
              reference = ((fun () -> Merging.network ~t ~delta), "Lemma 3.1");
              iso_hint = None;
            }
        else None)
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
