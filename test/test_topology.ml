(* Unit tests for Cn_network.Topology and Builder: structural invariants,
   validation failures, combinators. *)

module T = Cn_network.Topology
module B = Cn_network.Balancer
module Builder = Cn_network.Builder
module P = Cn_network.Permutation
module E = Cn_network.Eval

let tc name f = Alcotest.test_case name `Quick f
let check_int = Alcotest.(check int)

let bal22 = B.make ~fan_in:2 ~fan_out:2 ()

(* A single (2,2)-balancer as a network. *)
let one_balancer () =
  T.create ~input_width:2 ~balancers:[| bal22 |]
    ~feeds:[| [| T.Net_input 0; T.Net_input 1 |] |]
    ~outputs:[| T.Bal_output { bal = 0; port = 0 }; T.Bal_output { bal = 0; port = 1 } |]

let construction =
  [
    tc "single balancer" (fun () ->
        let net = one_balancer () in
        check_int "w" 2 (T.input_width net);
        check_int "t" 2 (T.output_width net);
        check_int "size" 1 (T.size net);
        check_int "depth" 1 (T.depth net));
    tc "identity network" (fun () ->
        let net = T.identity 3 in
        check_int "w" 3 (T.input_width net);
        check_int "depth" 0 (T.depth net);
        Alcotest.check Util.seq "passthrough" [| 4; 5; 6 |] (E.quiescent net [| 4; 5; 6 |]));
    Util.raises_invalid "identity non-positive" (fun () -> T.identity 0);
    tc "is_regular" (fun () ->
        Alcotest.(check bool) "regular" true (T.is_regular (one_balancer ())));
    tc "irregular network flagged" (fun () ->
        let b26 = B.make ~fan_in:2 ~fan_out:6 () in
        let net =
          T.create ~input_width:2 ~balancers:[| b26 |]
            ~feeds:[| [| T.Net_input 0; T.Net_input 1 |] |]
            ~outputs:(Array.init 6 (fun port -> T.Bal_output { bal = 0; port }))
        in
        Alcotest.(check bool) "regular" false (T.is_regular net));
  ]

let validation =
  [
    Util.raises_invalid "input consumed twice" (fun () ->
        T.create ~input_width:1 ~balancers:[| bal22 |]
          ~feeds:[| [| T.Net_input 0; T.Net_input 0 |] |]
          ~outputs:
            [| T.Bal_output { bal = 0; port = 0 }; T.Bal_output { bal = 0; port = 1 } |]);
    Util.raises_invalid "input never consumed" (fun () ->
        T.create ~input_width:3 ~balancers:[| bal22 |]
          ~feeds:[| [| T.Net_input 0; T.Net_input 1 |] |]
          ~outputs:
            [| T.Bal_output { bal = 0; port = 0 }; T.Bal_output { bal = 0; port = 1 } |]);
    Util.raises_invalid "balancer output dangling" (fun () ->
        T.create ~input_width:2 ~balancers:[| bal22 |]
          ~feeds:[| [| T.Net_input 0; T.Net_input 1 |] |]
          ~outputs:[| T.Bal_output { bal = 0; port = 0 } |]);
    Util.raises_invalid "balancer output consumed twice" (fun () ->
        T.create ~input_width:2 ~balancers:[| bal22 |]
          ~feeds:[| [| T.Net_input 0; T.Net_input 1 |] |]
          ~outputs:
            [| T.Bal_output { bal = 0; port = 0 }; T.Bal_output { bal = 0; port = 0 } |]);
    Util.raises_invalid "wrong arity feeds" (fun () ->
        T.create ~input_width:2 ~balancers:[| bal22 |]
          ~feeds:[| [| T.Net_input 0 |] |]
          ~outputs:
            [| T.Bal_output { bal = 0; port = 0 }; T.Bal_output { bal = 0; port = 1 } |]);
    Util.raises_invalid "unknown balancer reference" (fun () ->
        T.create ~input_width:2 ~balancers:[| bal22 |]
          ~feeds:[| [| T.Net_input 0; T.Bal_output { bal = 7; port = 0 } |] |]
          ~outputs:
            [| T.Bal_output { bal = 0; port = 0 }; T.Bal_output { bal = 0; port = 1 };
               T.Net_input 1 |]);
    Util.raises_invalid "port out of range" (fun () ->
        T.create ~input_width:2 ~balancers:[| bal22 |]
          ~feeds:[| [| T.Net_input 0; T.Net_input 1 |] |]
          ~outputs:
            [| T.Bal_output { bal = 0; port = 0 }; T.Bal_output { bal = 0; port = 5 } |]);
    Util.raises_invalid "cycle detected" (fun () ->
        (* Two balancers feeding each other. *)
        T.create ~input_width:2 ~balancers:[| bal22; bal22 |]
          ~feeds:
            [|
              [| T.Net_input 0; T.Bal_output { bal = 1; port = 0 } |];
              [| T.Net_input 1; T.Bal_output { bal = 0; port = 0 } |];
            |]
          ~outputs:
            [| T.Bal_output { bal = 0; port = 1 }; T.Bal_output { bal = 1; port = 1 } |]);
    Util.raises_invalid "no outputs" (fun () ->
        T.create ~input_width:1 ~balancers:[||] ~feeds:[||] ~outputs:[||]);
    Util.raises_invalid "non-positive input width" (fun () ->
        T.create ~input_width:0 ~balancers:[||] ~feeds:[||] ~outputs:[||]);
  ]

let structure =
  [
    tc "depth and layers of cascade" (fun () ->
        let net = T.cascade (one_balancer ()) (one_balancer ()) in
        check_int "depth" 2 (T.depth net);
        let layers = T.layers net in
        check_int "n layers" 2 (Array.length layers);
        check_int "layer 1 size" 1 (Array.length layers.(0));
        check_int "layer 2 size" 1 (Array.length layers.(1)));
    tc "parallel widens" (fun () ->
        let net = T.parallel (one_balancer ()) (one_balancer ()) in
        check_int "w" 4 (T.input_width net);
        check_int "t" 4 (T.output_width net);
        check_int "depth" 1 (T.depth net);
        check_int "size" 2 (T.size net));
    Util.raises_invalid "cascade width mismatch" (fun () ->
        T.cascade (one_balancer ()) (T.identity 3));
    tc "cascade behaves as composition" (fun () ->
        let l4 = Cn_core.Ladder.network 4 in
        let net = T.cascade l4 l4 in
        let x = [| 5; 1; 2; 2 |] in
        Alcotest.check Util.seq "compose" (E.quiescent l4 (E.quiescent l4 x))
          (E.quiescent net x));
    tc "layers partition balancers" (fun () ->
        let net = Cn_core.Counting.network ~w:8 ~t:8 in
        let total = Array.fold_left (fun acc l -> acc + Array.length l) 0 (T.layers net) in
        check_int "partition" (T.size net) total);
    tc "balancer_depth consistent with layers" (fun () ->
        let net = Cn_core.Counting.network ~w:8 ~t:16 in
        Array.iteri
          (fun li layer ->
            Array.iter (fun b -> check_int "depth" (li + 1) (T.balancer_depth net b)) layer)
          (T.layers net));
    tc "topo_order respects dependencies" (fun () ->
        let net = Cn_core.Counting.network ~w:8 ~t:8 in
        let pos = Array.make (T.size net) (-1) in
        Array.iteri (fun i b -> pos.(b) <- i) (T.topo_order net);
        Array.iteri
          (fun b feeds ->
            Array.iter
              (function
                | T.Bal_output { bal; _ } ->
                    Alcotest.(check bool) "producer first" true (pos.(bal) < pos.(b))
                | T.Net_input _ -> ())
              feeds)
          (Array.init (T.size net) (T.feeds net)));
    tc "consumer round trip" (fun () ->
        let net = one_balancer () in
        (match T.consumer net (T.Net_input 0) with
        | T.Bal_input { bal = 0; port = 0 } -> ()
        | _ -> Alcotest.fail "wrong consumer");
        match T.consumer net (T.Bal_output { bal = 0; port = 1 }) with
        | T.Net_output 1 -> ()
        | _ -> Alcotest.fail "wrong consumer");
  ]

let permuting =
  [
    tc "permute_inputs reroutes tokens" (fun () ->
        let net = T.identity 3 in
        let p = P.of_array [| 1; 2; 0 |] in
        let net' = T.permute_inputs p net in
        (* Wire pi(i) of net' behaves like wire i of net: token entering
           net' on wire 1 exits where net's wire 0 led, i.e. output 0. *)
        Alcotest.check Util.seq "routed" [| 7; 0; 0 |] (E.quiescent net' [| 0; 7; 0 |]));
    tc "permute_outputs relabels outputs" (fun () ->
        let net = T.identity 3 in
        let p = P.of_array [| 1; 2; 0 |] in
        let net' = T.permute_outputs p net in
        Alcotest.check Util.seq "relabelled" [| 9; 7; 8 |] (E.quiescent net' [| 7; 8; 9 |]));
    Util.raises_invalid "permute_inputs size mismatch" (fun () ->
        T.permute_inputs (P.identity 2) (T.identity 3));
    Util.raises_invalid "permute_outputs size mismatch" (fun () ->
        T.permute_outputs (P.identity 2) (T.identity 3));
  ]

let builder =
  [
    Util.raises_invalid "wire consumed twice" (fun () ->
        let b, ins = Builder.create ~input_width:2 in
        let _ = Builder.balancer2 b ins.(0) ins.(1) in
        Builder.balancer2 b ins.(0) ins.(1));
    Util.raises_invalid "foreign wire rejected" (fun () ->
        let b1, ins1 = Builder.create ~input_width:2 in
        let _b2, ins2 = Builder.create ~input_width:2 in
        ignore (Builder.balancer2 b1 ins1.(0) ins2.(0)));
    Util.raises_invalid "dangling wire rejected at finish" (fun () ->
        let b, ins = Builder.create ~input_width:2 in
        let top, _bottom = Builder.balancer2 b ins.(0) ins.(1) in
        Builder.finish b [| top |]);
    tc "build round trip" (fun () ->
        let net =
          Builder.build ~input_width:2 (fun b ins ->
              let top, bottom = Builder.balancer2 b ins.(0) ins.(1) in
              [| top; bottom |])
        in
        Alcotest.(check bool) "equal" true (T.equal net (one_balancer ())));
  ]

(* The full text of every [Topology.create] failure, pinned: the labels
   in these messages are built only on the failing path, so each one is
   checked here word for word. *)
let messages =
  let fails name msg ~input_width ~balancers ~feeds ~outputs =
    tc name (fun () ->
        Alcotest.check_raises name (Invalid_argument ("Topology.create: " ^ msg)) (fun () ->
            ignore (T.create ~input_width ~balancers ~feeds ~outputs)))
  in
  let ins = [| T.Net_input 0; T.Net_input 1 |] in
  let ports = [| T.Bal_output { bal = 0; port = 0 }; T.Bal_output { bal = 0; port = 1 } |] in
  [
    fails "non-positive width" "input width must be positive" ~input_width:0 ~balancers:[||]
      ~feeds:[||] ~outputs:[||];
    fails "feed rows" "1 balancers but 0 feed rows" ~input_width:2 ~balancers:[| bal22 |]
      ~feeds:[||] ~outputs:ports;
    fails "wrong arity" "balancer 0 has fan-in 2 but 1 feeds" ~input_width:2
      ~balancers:[| bal22 |] ~feeds:[| [| T.Net_input 0 |] |] ~outputs:ports;
    fails "no outputs" "no output wires" ~input_width:2 ~balancers:[| bal22 |] ~feeds:[| ins |]
      ~outputs:[||];
    fails "feed out of range" "feed 1 of balancer 0 refers to network input 5 (width 2)"
      ~input_width:2 ~balancers:[| bal22 |]
      ~feeds:[| [| T.Net_input 0; T.Net_input 5 |] |]
      ~outputs:ports;
    fails "unknown balancer" "feed 1 of balancer 0 refers to unknown balancer 7" ~input_width:2
      ~balancers:[| bal22 |]
      ~feeds:[| [| T.Net_input 0; T.Bal_output { bal = 7; port = 0 } |] |]
      ~outputs:ports;
    fails "output port out of range"
      "network output 1 refers to output port 5 of balancer 0 (fan-out 2)" ~input_width:2
      ~balancers:[| bal22 |] ~feeds:[| ins |]
      ~outputs:[| T.Bal_output { bal = 0; port = 0 }; T.Bal_output { bal = 0; port = 5 } |];
    fails "output of a negative input" "network output 0 refers to network input -1 (width 2)"
      ~input_width:2 ~balancers:[| bal22 |] ~feeds:[| ins |]
      ~outputs:[| T.Net_input (-1) |];
    fails "input consumed twice" "network input 0 consumed twice" ~input_width:2
      ~balancers:[| bal22 |]
      ~feeds:[| [| T.Net_input 0; T.Net_input 0 |] |]
      ~outputs:ports;
    fails "port consumed twice" "output port 0 of balancer 0 consumed twice" ~input_width:2
      ~balancers:[| bal22 |] ~feeds:[| ins |]
      ~outputs:[| T.Bal_output { bal = 0; port = 0 }; T.Bal_output { bal = 0; port = 0 } |];
    fails "input never consumed" "network input 2 is never consumed" ~input_width:3
      ~balancers:[| bal22 |] ~feeds:[| ins |] ~outputs:ports;
    fails "port never consumed" "output port 1 of balancer 0 is never consumed" ~input_width:2
      ~balancers:[| bal22 |] ~feeds:[| ins |]
      ~outputs:[| T.Bal_output { bal = 0; port = 0 } |];
    fails "cycle" "the balancer graph contains a cycle" ~input_width:2
      ~balancers:[| bal22; bal22 |]
      ~feeds:
        [|
          [| T.Net_input 0; T.Bal_output { bal = 1; port = 0 } |];
          [| T.Net_input 1; T.Bal_output { bal = 0; port = 0 } |];
        |]
      ~outputs:[| T.Bal_output { bal = 0; port = 1 }; T.Bal_output { bal = 1; port = 1 } |];
  ]

let suite =
  [
    ("topology.construction", construction);
    ("topology.validation", validation);
    ("topology.structure", structure);
    ("topology.permutations", permuting);
    ("topology.builder", builder);
    ("topology.messages", messages);
  ]
