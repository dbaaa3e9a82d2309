(* Tests for Cn_core.Verify: the bounded-exhaustive model checks that
   back the certifier's exhaustive pass and `countnet verify`.  Each
   check is run on the paper's constructions, where it must certify,
   and on broken variants, where its counterexample must replay. *)

module T = Cn_network.Topology
module E = Cn_network.Eval
module S = Cn_sequence.Sequence
module C = Cn_core.Counting
module M = Cn_core.Merging
module V = Cn_core.Verify

let tc name f = Alcotest.test_case name `Quick f

let pow b e = int_of_float (float_of_int b ** float_of_int e)

let expect_verified name = function
  | V.Verified n -> n
  | V.Counterexample cex -> Alcotest.failf "%s refuted on %s" name (S.to_string cex)

let expect_counterexample name = function
  | V.Counterexample cex -> cex
  | V.Verified n -> Alcotest.failf "%s unexpectedly verified (%d loads)" name n

(* A C(8,8) whose balancer 1 starts in state 1: sound wiring, wrong
   initial state, so only a semantic check can tell it apart. *)
let misinitialised () =
  T.with_init_states (fun b _ -> if b = 1 then 1 else 0) (C.network ~w:8 ~t:8)

let enumeration =
  [
    tc "forall_inputs visits all (k+1)^w vectors" (fun () ->
        List.iter
          (fun (w, k) ->
            let n = expect_verified "true" (V.forall_inputs ~max_tokens:k (C.regular w) (fun _ _ -> true)) in
            Alcotest.(check int) (Printf.sprintf "w=%d k=%d" w k) (pow (k + 1) w) n)
          [ (2, 0); (2, 5); (4, 3); (8, 1) ]);
    tc "forall_inputs hands over the quiescent output" (fun () ->
        let net = C.network ~w:4 ~t:8 in
        ignore
          (expect_verified "quiescent"
             (V.forall_inputs ~max_tokens:3 net (fun x y ->
                  S.sum x = S.sum y && S.equal y (E.quiescent net x)))));
    tc "the first violating vector in odometer order is returned" (fun () ->
        (* Wire 0 turns fastest: (0,0) (1,0) (2,0) (3,0) is the first
           vector carrying three tokens. *)
        let cex =
          expect_counterexample "sum < 3"
            (V.forall_inputs ~max_tokens:3 (C.regular 2) (fun x _ -> S.sum x < 3))
        in
        Alcotest.check Util.seq "first" [| 3; 0 |] cex);
    tc "the counterexample is a copy, not the odometer's buffer" (fun () ->
        let cex =
          expect_counterexample "sum < 1"
            (V.forall_inputs ~max_tokens:2 (C.regular 4) (fun x _ -> S.sum x < 1))
        in
        Alcotest.check Util.seq "first" [| 1; 0; 0; 0 |] cex);
    Util.raises_invalid "negative bound" (fun () ->
        V.forall_inputs ~max_tokens:(-1) (C.regular 2) (fun _ _ -> true));
    Util.raises_invalid "input space over 10^7 vectors" (fun () ->
        V.counting ~max_tokens:3 (C.regular 16));
  ]

let counting =
  [
    tc "C(w,t) counts on every bounded load" (fun () ->
        List.iter
          (fun (w, t, k) ->
            let name = Printf.sprintf "C(%d,%d)" w t in
            Alcotest.(check int) name (pow (k + 1) w)
              (expect_verified name (V.counting ~max_tokens:k (C.network ~w ~t))))
          [ (2, 2, 12); (2, 6, 12); (4, 4, 5); (4, 8, 5); (4, 12, 4); (8, 8, 2); (8, 16, 2) ]);
    tc "the baselines count on every bounded load" (fun () ->
        List.iter
          (fun (name, net, k) -> ignore (expect_verified name (V.counting ~max_tokens:k net)))
          [
            ("bitonic(8)", Cn_baselines.Bitonic.network 8, 2);
            ("periodic(8)", Cn_baselines.Periodic.network 8, 2);
            ("diffracting(16)", Cn_baselines.Diffracting.network 16, 200);
          ]);
    tc "a misinitialised C(8,8) is refuted and the counterexample replays" (fun () ->
        let net = misinitialised () in
        let cex = expect_counterexample "misinitialised" (V.counting ~max_tokens:2 net) in
        Alcotest.(check int) "width" 8 (S.length cex);
        Alcotest.(check bool) "replays" false (S.is_step (E.quiescent net cex)));
    tc "an output swap is refuted" (fun () ->
        let net = C.network ~w:4 ~t:4 in
        let swap = Cn_network.Permutation.of_array [| 3; 1; 2; 0 |] in
        let broken = T.permute_outputs swap net in
        let cex = expect_counterexample "swapped" (V.counting ~max_tokens:2 broken) in
        Alcotest.(check bool) "replays" false (S.is_step (E.quiescent broken cex)));
  ]

let smoothing =
  [
    tc "butterflies are lg w-smoothing on every bounded load" (fun () ->
        List.iter
          (fun (name, net, w) ->
            ignore
              (expect_verified name
                 (V.smoothing ~k:(Cn_core.Butterfly.smoothness_bound ~w) ~max_tokens:2 net)))
          [
            ("D(8)", Cn_core.Butterfly.forward 8, 8);
            ("E(8)", Cn_core.Butterfly.backward 8, 8);
          ]);
    tc "smoothing is weaker than counting on D(8)" (fun () ->
        let net = Cn_core.Butterfly.forward 8 in
        ignore (expect_verified "3-smooth" (V.smoothing ~k:3 ~max_tokens:2 net));
        let cex = expect_counterexample "step" (V.counting ~max_tokens:2 net) in
        Alcotest.(check bool) "replays" false (S.is_step (E.quiescent net cex)));
    tc "1-smoothing of C(w,t) follows from counting" (fun () ->
        ignore (expect_verified "C(4,8)" (V.smoothing ~k:1 ~max_tokens:4 (C.network ~w:4 ~t:8))));
  ]

let merging =
  [
    tc "M(t,delta) meets its contract on every step pair" (fun () ->
        List.iter
          (fun (t, delta) ->
            let name = Printf.sprintf "M(%d,%d)" t delta in
            let max_half_sum = 2 * t in
            Alcotest.(check int) name
              ((max_half_sum + 1) * (delta + 1))
              (expect_verified name (V.merging ~delta ~max_half_sum (M.network ~t ~delta))))
          [ (4, 2); (8, 2); (8, 4); (12, 2); (16, 4); (16, 8); (24, 4); (32, 16) ]);
    tc "M(t,delta) is refuted one token past its difference bound" (fun () ->
        List.iter
          (fun (t, delta) ->
            let name = Printf.sprintf "M(%d,%d)" t delta in
            let net = M.network ~t ~delta in
            let cex =
              expect_counterexample name (V.merging ~delta:(delta + 1) ~max_half_sum:(2 * t) net)
            in
            let x, y = S.halves cex in
            Alcotest.(check int) (name ^ " difference") (delta + 1) (S.sum x - S.sum y);
            Alcotest.(check bool) (name ^ " replays") false (S.is_step (E.quiescent net cex)))
          [ (8, 2); (8, 4); (16, 4); (16, 8) ]);
    Util.raises_invalid "odd width" (fun () ->
        V.merging ~delta:2 ~max_half_sum:4 (T.identity 5));
  ]

let suite =
  [
    ("verify.enumeration", enumeration);
    ("verify.counting", counting);
    ("verify.smoothing", smoothing);
    ("verify.merging", merging);
  ]
