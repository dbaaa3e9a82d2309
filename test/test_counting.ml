(* Tests for Cn_core.Counting: C(w, t), Theorems 4.1 and 4.2, plus the
   figure networks of the paper. *)

module T = Cn_network.Topology
module E = Cn_network.Eval
module S = Cn_sequence.Sequence
module C = Cn_core.Counting

let tc name f = Alcotest.test_case name `Quick f

let validity =
  [
    tc "valid pairs" (fun () ->
        List.iter
          (fun (w, t) ->
            Alcotest.(check bool) (Printf.sprintf "w=%d t=%d" w t) true (C.valid ~w ~t))
          [ (2, 2); (2, 6); (4, 4); (4, 8); (8, 8); (8, 24); (16, 64); (32, 32) ]);
    tc "invalid pairs" (fun () ->
        List.iter
          (fun (w, t) ->
            Alcotest.(check bool) (Printf.sprintf "w=%d t=%d" w t) false (C.valid ~w ~t))
          [ (3, 3); (6, 6); (4, 2); (4, 6); (8, 12); (1, 1); (0, 4); (4, 0) ]);
    Util.raises_invalid "network rejects non-power-of-two w" (fun () ->
        C.network ~w:6 ~t:6);
    Util.raises_invalid "network rejects t not multiple of w" (fun () ->
        C.network ~w:4 ~t:6);
    Util.raises_invalid "wide rejects w=2" (fun () -> C.wide 2);
  ]

let depth_tests =
  [
    tc "theorem 4.1: depth = (lg2 w + lg w)/2, independent of t" (fun () ->
        List.iter
          (fun (w, t) ->
            Alcotest.(check int)
              (Printf.sprintf "depth C(%d,%d)" w t)
              (C.depth_formula ~w)
              (T.depth (C.network ~w ~t)))
          [
            (2, 2); (2, 8); (4, 4); (4, 8); (4, 16); (8, 8); (8, 16); (8, 24);
            (16, 16); (16, 32); (16, 64); (32, 32); (32, 160); (64, 64);
          ]);
    tc "depth formula values" (fun () ->
        List.iter
          (fun (w, expected) ->
            Alcotest.(check int) (Printf.sprintf "w=%d" w) expected (C.depth_formula ~w))
          [ (2, 1); (4, 3); (8, 6); (16, 10); (32, 15); (64, 21); (128, 28); (256, 36) ]);
    tc "same depth as bitonic of equal width" (fun () ->
        List.iter
          (fun w ->
            Alcotest.(check int) (Printf.sprintf "w=%d" w)
              (Cn_baselines.Bitonic.depth_formula ~w)
              (C.depth_formula ~w))
          [ 2; 4; 8; 16; 32; 64 ]);
  ]

let size_tests =
  [
    tc "size formula matches structure" (fun () ->
        List.iter
          (fun (w, t) ->
            Alcotest.(check int)
              (Printf.sprintf "size C(%d,%d)" w t)
              (C.size_formula ~w ~t)
              (T.size (C.network ~w ~t)))
          [ (2, 2); (2, 10); (4, 4); (4, 8); (8, 8); (8, 16); (16, 16); (16, 48); (32, 32) ]);
    tc "C(w,w) has same size as bitonic" (fun () ->
        (* Both are (w/2) balancers per layer times the same depth. *)
        List.iter
          (fun w ->
            Alcotest.(check int) (Printf.sprintf "w=%d" w)
              (Cn_baselines.Bitonic.size_formula ~w)
              (C.size_formula ~w ~t:w))
          [ 4; 8; 16; 32 ]);
    tc "increasing t grows only block N_c" (fun () ->
        let s1 = C.size_formula ~w:8 ~t:8 in
        let s2 = C.size_formula ~w:8 ~t:16 in
        let s3 = C.size_formula ~w:8 ~t:24 in
        Alcotest.(check bool) "monotone" true (s1 < s2 && s2 < s3);
        (* Increments are uniform: each extra w of output width adds the
           same number of merger balancers. *)
        Alcotest.(check int) "linear in t" (s2 - s1) (s3 - s2));
  ]

let step_cases ~w ~t =
  tc
    (Printf.sprintf "theorem 4.2: C(%d,%d) counts" w t)
    (fun () ->
      let net = C.network ~w ~t in
      Util.for_random_inputs ~trials:120 ~seed:(w + t) net (fun ~trial:_ ~x ~y ->
          Alcotest.(check int) "sum" (S.sum x) (S.sum y);
          Util.check_step y))

let counting_tests =
  [
    step_cases ~w:2 ~t:2;
    step_cases ~w:2 ~t:8;
    step_cases ~w:4 ~t:4;
    step_cases ~w:4 ~t:8;
    step_cases ~w:4 ~t:12;
    step_cases ~w:8 ~t:8;
    step_cases ~w:8 ~t:16;
    step_cases ~w:8 ~t:24;
    step_cases ~w:16 ~t:16;
    step_cases ~w:16 ~t:32;
    step_cases ~w:16 ~t:64;
    step_cases ~w:32 ~t:32;
    step_cases ~w:32 ~t:64;
    tc "exhaustive small loads on C(4,8)" (fun () ->
        let net = C.network ~w:4 ~t:8 in
        for a = 0 to 3 do
          for b = 0 to 3 do
            for c = 0 to 3 do
              for d = 0 to 3 do
                let y = E.quiescent net [| a; b; c; d |] in
                Util.check_step ~msg:(Printf.sprintf "%d,%d,%d,%d" a b c d) y
              done
            done
          done
        done);
    tc "single heavy wire" (fun () ->
        let net = C.network ~w:8 ~t:16 in
        let x = Array.make 8 0 in
        x.(5) <- 1000;
        Util.check_step (E.quiescent net x));
    tc "all wires equal" (fun () ->
        let net = C.network ~w:8 ~t:16 in
        let y = E.quiescent net (Array.make 8 16) in
        Alcotest.check Util.seq "uniform" (Array.make 16 8) y);
    tc "zero tokens" (fun () ->
        let net = C.network ~w:8 ~t:16 in
        Alcotest.check Util.seq "zeros" (Array.make 16 0) (E.quiescent net (Array.make 8 0)));
  ]

let convenience =
  [
    tc "regular w = C(w,w)" (fun () ->
        Alcotest.(check bool) "equal" true
          (T.equal (C.regular 8) (C.network ~w:8 ~t:8)));
    tc "wide w = C(w, w lg w)" (fun () ->
        Alcotest.(check bool) "equal" true (T.equal (C.wide 8) (C.network ~w:8 ~t:24)));
    tc "wires on a builder is the standalone network" (fun () ->
        List.iter
          (fun (w, t) ->
            let built = Cn_network.Builder.build ~input_width:w (fun b ins -> C.wires b ~t ins) in
            Alcotest.(check bool) (Printf.sprintf "C(%d,%d)" w t) true (T.equal built (C.network ~w ~t)))
          [ (2, 6); (4, 4); (8, 24); (16, 32) ]);
    Util.raises_invalid "wires rejects t not a multiple of w" (fun () ->
        Cn_network.Builder.build ~input_width:4 (fun b ins -> C.wires b ~t:6 ins));
    tc "irregular balancers appear exactly when t > w" (fun () ->
        Alcotest.(check bool) "C(8,8) regular" true (T.is_regular (C.network ~w:8 ~t:8));
        Alcotest.(check bool) "C(8,16) irregular" false
          (T.is_regular (C.network ~w:8 ~t:16)));
  ]

let figures =
  [
    tc "fig 1: C(4,8) input/output widths" (fun () ->
        let net = C.network ~w:4 ~t:8 in
        Alcotest.(check int) "w" 4 (T.input_width net);
        Alcotest.(check int) "t" 8 (T.output_width net));
    tc "fig 1: 17 tokens emerge 3,2,2,2,2,2,2,2" (fun () ->
        (* Fig. 1 right shows a C(4,8) in a quiescent state with 17 tokens
           having traversed; the step distribution on 8 wires is
           3,2,2,2,2,2,2,2. *)
        let net = C.network ~w:4 ~t:8 in
        let y = E.quiescent net [| 5; 4; 4; 4 |] in
        Alcotest.check Util.seq "distribution" [| 3; 2; 2; 2; 2; 2; 2; 2 |] y);
    tc "fig 11-13: depths of the figure networks" (fun () ->
        List.iter
          (fun ((w, t), expected) ->
            Alcotest.(check int)
              (Printf.sprintf "C(%d,%d)" w t)
              expected
              (T.depth (C.network ~w ~t)))
          [ ((4, 4), 3); ((4, 8), 3); ((8, 8), 6); ((8, 16), 6) ]);
    tc "layer structure: lg w ladder layers then mergers" (fun () ->
        let profile = Cn_network.Render.layer_profile (C.network ~w:8 ~t:16) in
        Alcotest.(check int) "layers" 6 (Array.length profile);
        (* Layers 1-2: (2,2); layer 3: (2,4) transition; layers 4-6: (2,2). *)
        Alcotest.(check bool) "layer 3 irregular" true
          (Array.for_all (fun s -> s = (2, 4)) profile.(2));
        Alcotest.(check bool) "other layers regular" true
          (Array.for_all (fun s -> s = (2, 2)) profile.(0)
          && Array.for_all (fun s -> s = (2, 2)) profile.(5)));
  ]

let suite =
  [
    ("counting.validity", validity);
    ("counting.depth", depth_tests);
    ("counting.size", size_tests);
    ("counting.step", counting_tests);
    ("counting.convenience", convenience);
    ("counting.figures", figures);
  ]
