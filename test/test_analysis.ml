(* Tests for Cn_analysis.Bounds and Cn_core.Params. *)

module B = Cn_analysis.Bounds
module P = Cn_core.Params

let tc name f = Alcotest.test_case name `Quick f
let close a b = abs_float (a -. b) < 1e-9

let params =
  [
    tc "is_power_of_two" (fun () ->
        List.iter
          (fun (v, expected) ->
            Alcotest.(check bool) (string_of_int v) expected (P.is_power_of_two v))
          [ (1, true); (2, true); (4, true); (1024, true); (0, false); (-4, false);
            (3, false); (12, false) ]);
    tc "ilog2" (fun () ->
        List.iter
          (fun (v, expected) -> Alcotest.(check int) (string_of_int v) expected (P.ilog2 v))
          [ (1, 0); (2, 1); (4, 2); (8, 3); (1024, 10) ]);
    Util.raises_invalid "ilog2 non power" (fun () -> P.ilog2 3);
    Util.raises_invalid "ilog2 zero" (fun () -> P.ilog2 0);
  ]

let bounds =
  [
    tc "lg" (fun () ->
        Alcotest.(check bool) "lg 8 = 3" true (close (B.lg 8) 3.);
        Alcotest.(check bool) "lg 1 = 0" true (close (B.lg 1) 0.));
    Util.raises_invalid "lg non-positive" (fun () -> ignore (B.lg 0));
    tc "theorem 6.7 bound at t=w reduces correctly" (fun () ->
        (* With w=t=8, n=8: 4n lgw/w + n lg2w/t + w lg3w/t + 4lg2w + lgw
           = 12 + 9 + 27 + 36 + 3 = 87. *)
        Alcotest.(check bool) "value" true (close (B.contention_c ~w:8 ~t:8 ~n:8) 87.));
    tc "bitonic bound" (fun () ->
        Alcotest.(check bool) "value" true (close (B.contention_bitonic ~w:8 ~n:16) 18.));
    tc "periodic bound dominates bitonic" (fun () ->
        Alcotest.(check bool) "dominates" true
          (B.contention_periodic ~w:16 ~n:100 > B.contention_bitonic ~w:16 ~n:100));
    tc "increasing t lowers the C bound" (fun () ->
        let w = 16 and n = 512 in
        Alcotest.(check bool) "monotone" true
          (B.contention_c ~w ~t:(16 * 4) ~n < B.contention_c ~w ~t:16 ~n));
    tc "crossover at w lg w" (fun () ->
        Alcotest.(check int) "w=16" 64 (B.crossover_concurrency ~w:16));
    tc "asymptotic bound below constant-carrying bound" (fun () ->
        let w = 32 and t = 64 and n = 100 in
        Alcotest.(check bool) "below" true
          (B.contention_c_asymptotic ~w ~t ~n < B.contention_c ~w ~t ~n));
    tc "at high n the wide network beats bitonic by ~lg w" (fun () ->
        (* n >= w lg w, t = w lg w: bound O(n lg w / w) vs bitonic
           n lg2 w / w — ratio approaches lg w / 4 (constants aside). *)
        let w = 64 in
        let t = w * P.ilog2 w in
        let n = 100 * w * P.ilog2 w in
        let ours = B.contention_c ~w ~t ~n in
        let bitonic = B.contention_bitonic ~w ~n in
        Alcotest.(check bool) "ours lower" true (ours < bitonic));
    tc "butterfly bound linear term" (fun () ->
        let w = 16 in
        let base = B.contention_butterfly ~w ~n:0 in
        let slope = B.contention_butterfly ~w ~n:w -. base in
        Alcotest.(check bool) "4 lg w per w procs" true (close slope (4. *. B.lg w)));
    tc "diffracting bound is n" (fun () ->
        Alcotest.(check bool) "n" true (close (B.contention_diffracting ~n:42) 42.));
  ]

(* ------------------------------------------------------------------ *)
(* Contention-model projection (Projection): the model that turns one
   measured crossing cost plus simulated stalls into multicore curves. *)

module Pr = Cn_analysis.Projection

let projection =
  let cal = Pr.calibrate ~crossing_ns:20. () in
  [
    tc "calibration validates and derives stall cost" (fun () ->
        Alcotest.(check bool) "default factor" true
          (close cal.Pr.stall_factor Pr.default_stall_factor);
        Alcotest.(check bool) "stall_ns" true (close (Pr.stall_ns cal) 160.);
        let explicit = Pr.calibrate ~stall_factor:3. ~crossing_ns:10. () in
        Alcotest.(check bool) "explicit" true (close (Pr.stall_ns explicit) 30.));
    Util.raises_invalid "non-positive crossing" (fun () ->
        ignore (Pr.calibrate ~crossing_ns:0. ()));
    Util.raises_invalid "non-positive stall factor" (fun () ->
        ignore (Pr.calibrate ~stall_factor:(-1.) ~crossing_ns:1. ()));
    tc "of_throughput inverts the rate" (fun () ->
        (* 1e6 ops of depth 4 in one second: 250 ns/op, 62.5 ns/crossing. *)
        let c = Pr.of_throughput ~depth:4 ~ops:1_000_000 ~seconds:0.25 () in
        Alcotest.(check bool) "crossing" true (close c.Pr.crossing_ns 62.5));
    tc "central counter: one domain pays no stalls, rate saturates" (fun () ->
        let p1 = Pr.project_central cal ~domains:1 in
        Alcotest.(check bool) "no stalls" true (close p1.Pr.stalls_per_token 0.);
        Alcotest.(check bool) "token = crossing" true (close p1.Pr.token_ns 20.);
        (* At large n the rate decays toward the hot-spot ceiling
           1 / stall_ns from above: adding domains stops helping. *)
        let p64 = Pr.project_central cal ~domains:64 in
        let p128 = Pr.project_central cal ~domains:128 in
        let ceiling = 1e9 /. Pr.stall_ns cal in
        Alcotest.(check bool) "monotone decay" true
          (p1.Pr.ops_per_sec > p64.Pr.ops_per_sec
          && p64.Pr.ops_per_sec > p128.Pr.ops_per_sec);
        Alcotest.(check bool) "saturating at the ceiling" true
          (p128.Pr.ops_per_sec > ceiling
          && p128.Pr.ops_per_sec -. ceiling < 0.02 *. ceiling));
    tc "network projection scales while central saturates" (fun () ->
        let net = Cn_core.Counting.network ~w:16 ~t:16 in
        let hi_net = Pr.project_network cal net ~domains:64 in
        let hi_ctr = Pr.project_central cal ~domains:64 in
        Alcotest.(check bool) "network wins at n=64" true
          (hi_net.Pr.ops_per_sec > hi_ctr.Pr.ops_per_sec));
    tc "crossover exists and is where the curves actually cross" (fun () ->
        let net = Cn_core.Counting.network ~w:16 ~t:16 in
        match Pr.crossover cal net with
        | None -> Alcotest.fail "expected a crossover within range"
        | Some n ->
            Alcotest.(check bool) "past it, network wins" true
              ((Pr.project_network cal net ~domains:n).Pr.ops_per_sec
              > (Pr.project_central cal ~domains:n).Pr.ops_per_sec);
            Alcotest.(check bool) "sane range" true (n > 1 && n <= 1024));
    tc "projection is deterministic (seeded schedule)" (fun () ->
        let net = Cn_core.Counting.network ~w:4 ~t:8 in
        let a = Pr.project_network ~seed:7 cal net ~domains:8 in
        let b = Pr.project_network ~seed:7 cal net ~domains:8 in
        Alcotest.(check bool) "same stalls" true
          (close a.Pr.stalls_per_token b.Pr.stalls_per_token));
    tc "sweeps mirror the pointwise projections" (fun () ->
        let net = Cn_core.Counting.network ~w:4 ~t:8 in
        let doms = [ 1; 2; 4 ] in
        let sc = Pr.sweep_central cal ~domains_list:doms in
        let sn = Pr.sweep_network cal net ~domains_list:doms in
        Alcotest.(check (list int)) "central domains" doms
          (List.map (fun p -> p.Pr.domains) sc);
        Alcotest.(check (list int)) "network domains" doms
          (List.map (fun p -> p.Pr.domains) sn));
    Util.raises_invalid "project_central rejects n = 0" (fun () ->
        ignore (Pr.project_central cal ~domains:0));
  ]

let suite =
  [
    ("analysis.params", params);
    ("analysis.bounds", bounds);
    ("analysis.projection", projection);
  ]
