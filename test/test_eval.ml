(* Tests for Cn_network.Eval: closed-form quiescent evaluation, the
   token-level stepper, sequential token runs and counter values
   (Fig. 1 reproduction). *)

module T = Cn_network.Topology
module E = Cn_network.Eval
module S = Cn_sequence.Sequence
module B = Cn_network.Balancer

let tc name f = Alcotest.test_case name `Quick f

(* The irregular counting network of Fig. 1 (right): C(4, 8). *)
let fig1_network () = Cn_core.Counting.network ~w:4 ~t:8

let quiescent =
  [
    tc "identity passes through" (fun () ->
        Alcotest.check Util.seq "id" [| 1; 2; 3 |] (E.quiescent (T.identity 3) [| 1; 2; 3 |]));
    tc "single balancer splits" (fun () ->
        let net = Cn_core.Ladder.network 2 in
        Alcotest.check Util.seq "split" [| 3; 2 |] (E.quiescent net [| 5; 0 |]));
    tc "sum preservation" (fun () ->
        let net = fig1_network () in
        let x = [| 13; 3; 0; 7 |] in
        Alcotest.(check int) "sum" (S.sum x) (S.sum (E.quiescent net x)));
    Util.raises_invalid "wrong input length" (fun () ->
        E.quiescent (T.identity 2) [| 1 |]);
    Util.raises_invalid "negative input" (fun () ->
        E.quiescent (T.identity 2) [| 1; -1 |]);
    tc "final states reported" (fun () ->
        let net = Cn_core.Ladder.network 2 in
        let _, states = E.quiescent_full net [| 3; 0 |] in
        (* 3 tokens through one (2,2)-balancer leave it in state 1. *)
        Alcotest.check Util.seq "states" [| 1 |] states);
  ]

let trace_agreement =
  [
    tc "trace equals quiescent on C(4,8)" (fun () ->
        let net = fig1_network () in
        let x = [| 9; 2; 5; 1 |] in
        Alcotest.check Util.seq "agree" (E.quiescent net x) (E.trace ~seed:11 net x));
    tc "trace seed independence" (fun () ->
        let net = Cn_baselines.Bitonic.network 8 in
        let x = Array.init 8 (fun i -> (i * 7) mod 5) in
        let reference = E.trace ~seed:0 net x in
        for seed = 1 to 10 do
          Alcotest.check Util.seq "same result" reference (E.trace ~seed net x)
        done);
    Util.qtest ~count:60 "trace = quiescent on random loads"
      QCheck2.Gen.(
        bind (int_range 0 1000) (fun seed ->
            map (fun l -> (seed, Array.of_list l)) (list_repeat 8 (int_range 0 30))))
      (fun (seed, x) ->
        let net = Cn_core.Counting.network ~w:8 ~t:16 in
        S.equal (E.trace ~seed net x) (E.quiescent net x));
  ]

(* The flat evaluator against the token stepper beyond C(8,16):
   irregular fan-ins and fan-outs, wires that skip layers, and non-zero
   initial states (C(4,8) with randomized balancer states; the
   construction itself starts every balancer at 0).  The states are checked against a
   reference that sums each balancer's feeds through the array form
   [Balancer.output_counts]. *)
let general_agreement =
  let reference_totals net x =
    let memo = Array.make (T.size net) (-1) in
    let rec total b =
      if memo.(b) < 0 then
        memo.(b) <-
          Array.fold_left
            (fun acc -> function
              | T.Net_input i -> acc + x.(i)
              | T.Bal_output { bal; port } ->
                  acc + (B.output_counts (T.balancer net bal) ~tokens:(total bal)).(port))
            0 (T.feeds net b);
      memo.(b)
    in
    Array.init (T.size net) total
  in
  let case name ~width make =
    Util.qtest ~count:100 ("flat evaluator = token stepper on " ^ name)
      QCheck2.Gen.(
        triple (int_range 0 1000)
          (list_repeat width (int_range 0 12))
          (list_repeat width (int_range 0 12)))
      (fun (seed, tokens, antitokens) ->
        let net = make seed in
        let tokens = Array.of_list tokens and antitokens = Array.of_list antitokens in
        let out, states = E.quiescent_full net tokens in
        let totals = reference_totals net tokens in
        S.equal out (E.trace ~seed net tokens)
        && S.equal (E.quiescent net tokens) out
        && S.equal
             (E.quiescent_net net (Array.map2 ( - ) tokens antitokens))
             (E.trace_signed ~seed net ~tokens ~antitokens)
        && Array.for_all Fun.id
             (Array.mapi
                (fun b s -> s = B.state_after (T.balancer net b) ~tokens:totals.(b))
                states))
  in
  [
    case "irregular nets" ~width:6 (fun seed -> Cn_network.Random_net.irregular ~seed ~layers:4 6);
    case "sparse nets" ~width:8 (fun seed -> Cn_network.Random_net.sparse ~seed ~layers:5 8);
    tc "randomized C(4,8) has non-zero initial states" (fun () ->
        let net = T.randomize_states ~seed:1 (fig1_network ()) in
        Alcotest.(check bool) "some init_state > 0" true
          (List.exists
             (fun b -> (T.balancer net b).B.init_state > 0)
             (List.init (T.size net) Fun.id)));
    case "C(4,8), randomized states" ~width:4 (fun seed ->
        T.randomize_states ~seed (fig1_network ()));
  ]

(* The closed-form evaluators skip every balancer whose total is 0.
   Pin that as exact where it bites hardest: every load of at most two
   tokens (most balancers idle) on networks with fan-out-4 balancers
   (C(4,8)), layer-skipping wiring (periodic, butterfly) and a single
   input (the diffracting tree), and signed loads whose token and
   antitoken cancel at some balancer, zeroing its net total while the
   balancers above it stay busy. *)
let sparse_agreement =
  let nets =
    [
      ("C(4,8)", fig1_network ());
      ("bitonic-8", Cn_baselines.Bitonic.network 8);
      ("periodic-8", Cn_baselines.Periodic.network 8);
      ("difftree-8", Cn_baselines.Diffracting.network 8);
      ("butterfly-8", Cn_core.Butterfly.forward 8);
    ]
  in
  (* Every load on [w] wires with at most two tokens. *)
  let loads w =
    let load wires = Array.init w (fun k -> List.length (List.filter (( = ) k) wires)) in
    let wires = List.init w Fun.id in
    (load [] :: List.map (fun i -> load [ i ]) wires)
    @ List.concat_map
        (fun i -> List.filter_map (fun j -> if j >= i then Some (load [ i; j ]) else None) wires)
        wires
  in
  let per_net name net =
    let w = T.input_width net in
    [
      tc (Printf.sprintf "quiescent = trace on every load of <= 2 tokens, %s" name) (fun () ->
          let all = loads w in
          Alcotest.(check int) "load count" (1 + w + (w * (w + 1) / 2)) (List.length all);
          List.iter
            (fun x ->
              for seed = 0 to 2 do
                Alcotest.check Util.seq (S.to_string x) (E.trace ~seed net x) (E.quiescent net x)
              done)
            all);
      tc (Printf.sprintf "quiescent_net = trace_signed when a token meets an antitoken, %s" name)
        (fun () ->
          for i = 0 to w - 1 do
            for j = 0 to w - 1 do
              (* One antitoken on [j] against one or two tokens from [i]. *)
              for n = 1 to 2 do
                let tokens = Array.init w (fun k -> if k = i then n else 0) in
                let antitokens = Array.init w (fun k -> if k = j then 1 else 0) in
                let x = Array.map2 ( - ) tokens antitokens in
                for seed = 0 to 2 do
                  Alcotest.check Util.seq
                    (Printf.sprintf "tokens %s, antitokens %s" (S.to_string tokens)
                       (S.to_string antitokens))
                    (E.trace_signed ~seed net ~tokens ~antitokens)
                    (E.quiescent_net net x)
                done
              done
            done
          done);
    ]
  in
  List.concat_map (fun (name, net) -> per_net name net) nets

let token_runs =
  [
    tc "counter values are 0..m-1 in some order" (fun () ->
        let net = fig1_network () in
        let entries = List.init 17 (fun i -> i mod 4) in
        let values = List.sort compare (E.counter_values net entries) in
        Alcotest.(check (list int)) "range" (List.init 17 (fun i -> i)) values);
    tc "sequential tokens get increasing values" (fun () ->
        (* When tokens traverse one at a time, values are handed out in
           arrival order: token j gets value j. *)
        let net = fig1_network () in
        let entries = List.init 12 (fun i -> i mod 4) in
        Alcotest.(check (list int)) "in order" (List.init 12 (fun i -> i))
          (E.counter_values net entries));
    tc "exit wires cycle through outputs" (fun () ->
        let net = fig1_network () in
        let entries = List.init 16 (fun i -> i mod 4) in
        let wires = List.map fst (E.token_run net entries) in
        (* Sequential tokens of a counting network exit wires 0,1,2,... mod t. *)
        Alcotest.(check (list int)) "round robin" (List.init 16 (fun i -> i mod 8)) wires);
    Util.raises_invalid "entry wire out of range" (fun () ->
        E.token_run (fig1_network ()) [ 4 ]);
    tc "token_run then quiescent distribution" (fun () ->
        let net = fig1_network () in
        let entries = List.init 11 (fun i -> i mod 3) in
        let runs = E.token_run net entries in
        let per_wire = Array.make 8 0 in
        List.iter (fun (wire, _) -> per_wire.(wire) <- per_wire.(wire) + 1) runs;
        Util.check_step per_wire);
  ]

let single_process_order =
  [
    tc "values respect per-wire arithmetic" (fun () ->
        let net = fig1_network () in
        let runs = E.token_run net (List.init 20 (fun i -> i mod 4)) in
        (* Value v handed out on wire i satisfies v mod t = i. *)
        List.iter
          (fun (wire, v) -> Alcotest.(check int) "congruent" wire (v mod 8))
          runs);
  ]

let suite =
  [
    ("eval.quiescent", quiescent);
    ("eval.trace", trace_agreement);
    ("eval.general", general_agreement);
    ("eval.sparse", sparse_agreement);
    ("eval.token_runs", token_runs);
    ("eval.values", single_process_order);
  ]
