(* Tests for Cn_core.Merging: the difference merging network M(t, δ) of
   Section 3 (Lemmas 3.1-3.3). *)

module T = Cn_network.Topology
module E = Cn_network.Eval
module S = Cn_sequence.Sequence
module M = Cn_core.Merging

let tc name f = Alcotest.test_case name `Quick f

let validity =
  [
    tc "valid pairs" (fun () ->
        List.iter
          (fun (t, delta) ->
            Alcotest.(check bool) (Printf.sprintf "t=%d d=%d" t delta) true
              (M.valid ~t ~delta))
          [ (4, 2); (8, 2); (8, 4); (12, 2); (16, 8); (24, 4); (64, 32) ]);
    tc "invalid pairs" (fun () ->
        List.iter
          (fun (t, delta) ->
            Alcotest.(check bool) (Printf.sprintf "t=%d d=%d" t delta) false
              (M.valid ~t ~delta))
          [ (4, 4); (8, 3); (8, 8); (6, 2); (10, 4); (8, 1); (0, 2); (8, 0) ]);
    Util.raises_invalid "network rejects invalid" (fun () -> M.network ~t:8 ~delta:8);
    Util.raises_invalid "network rejects odd delta" (fun () -> M.network ~t:12 ~delta:3);
    Util.raises_invalid "wires rejects halves of different lengths" (fun () ->
        Cn_network.Builder.build ~input_width:12 (fun b ins ->
            M.wires b ~delta:2 (Array.sub ins 0 4, Array.sub ins 4 8)));
  ]

let structure =
  [
    tc "lemma 3.1: depth = lg delta" (fun () ->
        List.iter
          (fun (t, delta) ->
            Alcotest.(check int)
              (Printf.sprintf "depth M(%d,%d)" t delta)
              (M.depth_formula ~delta)
              (T.depth (M.network ~t ~delta)))
          [ (4, 2); (8, 2); (8, 4); (16, 4); (16, 8); (32, 4); (64, 16); (48, 8) ]);
    tc "regular of width t" (fun () ->
        let net = M.network ~t:16 ~delta:4 in
        Alcotest.(check bool) "regular" true (T.is_regular net);
        Alcotest.(check int) "w" 16 (T.input_width net);
        Alcotest.(check int) "t" 16 (T.output_width net));
    tc "M(t,2) is a single layer of t/2 balancers" (fun () ->
        let net = M.network ~t:12 ~delta:2 in
        Alcotest.(check int) "size" 6 (T.size net);
        Alcotest.(check int) "depth" 1 (T.depth net));
    tc "wires on a builder is the standalone network" (fun () ->
        List.iter
          (fun (t, delta) ->
            let built =
              Cn_network.Builder.build ~input_width:t (fun b ins ->
                  M.wires b ~delta (Array.sub ins 0 (t / 2), Array.sub ins (t / 2) (t / 2)))
            in
            Alcotest.(check bool)
              (Printf.sprintf "M(%d,%d)" t delta)
              true
              (T.equal built (M.network ~t ~delta)))
          [ (4, 2); (16, 8); (24, 4) ]);
    tc "size is (t/2) lg delta" (fun () ->
        List.iter
          (fun (t, delta) ->
            Alcotest.(check int)
              (Printf.sprintf "size M(%d,%d)" t delta)
              (t / 2 * M.depth_formula ~delta)
              (T.size (M.network ~t ~delta)))
          [ (8, 4); (16, 8); (32, 4) ]);
  ]

(* Feed M(t, δ) two step sequences with 0 <= Σx - Σy <= δ and check the
   output is step (the merging contract). *)
let merge_contract_case ~t ~delta ~sx ~sy () =
  let net = M.network ~t ~delta in
  let x = S.make_step ~total:sx ~width:(t / 2) in
  let y = S.make_step ~total:sy ~width:(t / 2) in
  let out = E.quiescent net (S.concat x y) in
  Alcotest.(check int) "sum" (sx + sy) (S.sum out);
  Util.check_step ~msg:(Printf.sprintf "M(%d,%d) Σx=%d Σy=%d" t delta sx sy) out

let contract =
  [
    tc "base layer merges (exhaustive small)" (fun () ->
        for sy = 0 to 12 do
          for d = 0 to 2 do
            merge_contract_case ~t:8 ~delta:2 ~sx:(sy + d) ~sy ()
          done
        done);
    tc "M(8,4) merges" (fun () ->
        for sy = 0 to 10 do
          for d = 0 to 4 do
            merge_contract_case ~t:8 ~delta:4 ~sx:(sy + d) ~sy ()
          done
        done);
    tc "M(16,4) merges (Fig. 6 right)" (fun () ->
        for sy = 0 to 8 do
          for d = 0 to 4 do
            merge_contract_case ~t:16 ~delta:4 ~sx:(sy + d) ~sy ()
          done
        done);
    tc "M(16,8) merges" (fun () ->
        for sy = 0 to 6 do
          for d = 0 to 8 do
            merge_contract_case ~t:16 ~delta:8 ~sx:(sy + d) ~sy ()
          done
        done);
    tc "irregular width M(24,4) merges" (fun () ->
        for sy = 0 to 5 do
          for d = 0 to 4 do
            merge_contract_case ~t:24 ~delta:4 ~sx:(sy + d) ~sy ()
          done
        done);
    Util.qtest ~count:300 "merging contract (random)"
      QCheck2.Gen.(
        bind
          (oneofl [ (8, 2); (8, 4); (16, 2); (16, 4); (16, 8); (32, 8); (24, 4); (48, 8) ])
          (fun (t, delta) ->
            bind (int_range 0 300) (fun sy ->
                map (fun d -> (t, delta, sy + d, sy)) (int_range 0 delta))))
      (fun (t, delta, sx, sy) ->
        let net = M.network ~t ~delta in
        let x = S.make_step ~total:sx ~width:(t / 2) in
        let y = S.make_step ~total:sy ~width:(t / 2) in
        S.is_step (E.quiescent net (S.concat x y)));
  ]

(* Beyond the contract the output need not be step, but sums are always
   preserved. *)
let beyond_contract =
  [
    tc "sum preserved on arbitrary inputs" (fun () ->
        let net = M.network ~t:16 ~delta:4 in
        Util.for_random_inputs ~trials:100 net (fun ~trial:_ ~x ~y ->
            Alcotest.(check int) "sum" (S.sum x) (S.sum y)));
    tc "contract violation can break step" (fun () ->
        (* Witness that the delta bound is tight enough to matter: with
           Σx - Σy far above δ the output fails the step property. *)
        let net = M.network ~t:8 ~delta:2 in
        let x = S.make_step ~total:5 ~width:4 in
        let y = S.make_step ~total:0 ~width:4 in
        Alcotest.(check bool) "not step" false (S.is_step (E.quiescent net (S.concat x y))));
  ]

let suite =
  [
    ("merging.validity", validity);
    ("merging.structure", structure);
    ("merging.contract", contract);
    ("merging.beyond", beyond_contract);
  ]
