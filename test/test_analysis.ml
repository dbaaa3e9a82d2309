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

let suite =
  [
    ("analysis.params", params);
    ("analysis.bounds", bounds);
  ]
