module Topology = Cn_network.Topology
module Raw = Cn_network.Raw
module Permutation = Cn_network.Permutation
module Counting = Cn_core.Counting
module Ladder = Cn_core.Ladder
module Rt = Cn_runtime.Network_runtime

type outcome = {
  name : string;
  description : string;
  expected : string;
  got : string list;
  rejected : bool;
}

let dedup codes =
  List.fold_left (fun acc c -> if List.mem c acc then acc else acc @ [ c ]) [] codes

let finish ~name ~description ~expected got =
  let got = dedup got in
  { name; description; expected; got; rejected = List.mem expected got }

(* --- Raw-description mutants: must be rejected by Raw.check. ------- *)

let raw_mutant ~name ~description ~expected base mutate =
  let raw = mutate base in
  finish ~name ~description ~expected
    (List.map (fun v -> v.Raw.code) (Raw.check raw))

let copy_raw (r : Raw.t) =
  {
    r with
    Raw.balancers = Array.copy r.Raw.balancers;
    feeds = Array.map Array.copy r.Raw.feeds;
    outputs = Array.copy r.Raw.outputs;
  }

let raw_mutants net =
  let base = Raw.of_topology net in
  let n = Array.length base.Raw.balancers in
  [
    raw_mutant ~name:"drop-balancer" ~expected:"NET005"
      ~description:(Printf.sprintf "delete balancer %d; wires into it now dangle" (n - 1))
      base
      (fun r ->
        {
          (copy_raw r) with
          Raw.balancers = Array.sub r.Raw.balancers 0 (n - 1);
          feeds = Array.map Array.copy (Array.sub r.Raw.feeds 0 (n - 1));
        });
    raw_mutant ~name:"duplicate-wire" ~expected:"NET006"
      ~description:"output 0 rewired to output 1's source; one wire consumed twice" base
      (fun r ->
        let r = copy_raw r in
        r.Raw.outputs.(0) <- r.Raw.outputs.(1);
        r);
    raw_mutant ~name:"unconsumed-input" ~expected:"NET007"
      ~description:"input width enlarged by one; the extra wire is never consumed" base
      (fun r -> { (copy_raw r) with Raw.input_width = r.Raw.input_width + 1 });
    raw_mutant ~name:"arity-corrupt" ~expected:"NET002"
      ~description:"balancer 0 declared with fan-in 0" base
      (fun r ->
        let r = copy_raw r in
        r.Raw.balancers.(0) <- { r.Raw.balancers.(0) with Raw.fan_in = 0 };
        r);
    raw_mutant ~name:"init-out-of-range" ~expected:"NET003"
      ~description:"balancer 0's initial state set to its fan-out" base
      (fun r ->
        let r = copy_raw r in
        let b = r.Raw.balancers.(0) in
        r.Raw.balancers.(0) <- { b with Raw.init_state = b.Raw.fan_out };
        r);
    raw_mutant ~name:"feeds-truncate" ~expected:"NET004"
      ~description:"balancer 0's feed row truncated to one entry" base
      (fun r ->
        let r = copy_raw r in
        r.Raw.feeds.(0) <- [| r.Raw.feeds.(0).(0) |];
        r);
    raw_mutant ~name:"self-loop" ~expected:"NET009"
      ~description:(Printf.sprintf "balancer %d fed from its own output port 0" (n - 1))
      base
      (fun r ->
        let r = copy_raw r in
        r.Raw.feeds.(n - 1).(0) <- Topology.Bal_output { bal = n - 1; port = 0 };
        r);
  ]

(* --- Semantic mutants: well-formed topologies whose quiescent
   behaviour (or shape) breaks the contract; must be rejected by the
   certifier. ------------------------------------------------------- *)

let semantic_mutant ~name ~description ~expected ~w ~t mutant =
  let reference = (Counting.network ~w ~t, "Theorem 4.2") in
  let cert =
    Cert.certify ~reference ~expected_depth:(Counting.depth_formula ~w) ~subject:name
      ~expectation:Cert.Counting mutant
  in
  finish ~name ~description ~expected (Cert.codes cert)

let semantic_mutants ~w ~t net =
  let swap_ends =
    let a = Array.init t Fun.id in
    a.(0) <- t - 1;
    a.(t - 1) <- 0;
    Permutation.of_array a
  in
  let cross_last_layer () =
    (* Swap the first feed of the first two balancers of the deepest
       layer: same layer, so the result stays acyclic and well-formed,
       but the merger joins the wrong wires. *)
    let layers = Topology.layers net in
    let last = layers.(Array.length layers - 1) in
    let b1 = last.(0) and b2 = last.(1) in
    let r = Raw.of_topology net in
    let tmp = r.Raw.feeds.(b1).(0) in
    r.Raw.feeds.(b1).(0) <- r.Raw.feeds.(b2).(0);
    r.Raw.feeds.(b2).(0) <- tmp;
    match Raw.validate r with Ok net' -> net' | Error _ -> assert false
  in
  [
    semantic_mutant ~name:"output-swap" ~expected:"ABS004" ~w ~t
      ~description:(Printf.sprintf "output wires 0 and %d exchanged" (t - 1))
      (Topology.permute_outputs swap_ends net);
    semantic_mutant ~name:"wire-flip" ~expected:"STEP002" ~w ~t
      ~description:"two feeds crossed inside the last merging layer"
      (cross_last_layer ());
    semantic_mutant ~name:"init-corrupt" ~expected:"ABS004" ~w ~t
      ~description:"balancer 0 starts in state 1 instead of 0"
      (Topology.with_init_states (fun b _ -> if b = 0 then 1 else 0) net);
    semantic_mutant ~name:"pad-layer" ~expected:"ABS003" ~w ~t
      ~description:"an extra ladder cascaded after the network (depth bound broken)"
      (Topology.cascade net (Ladder.network t));
    (* Always C(16,16): past the bounded-exhaustive budget, so only the
       escalate pass's two-token battery refutes it (at C(8,8) the
       exhaustive pass gets there first). *)
    semantic_mutant ~name:"escalate-init" ~expected:"STEP003" ~w:16 ~t:16
      ~description:"C(16,16) with balancer 1 starting in state 1 instead of 0"
      (Topology.with_init_states
         (fun b _ -> if b = 1 then 1 else 0)
         (Counting.network ~w:16 ~t:16));
  ]

(* --- Compiled-runtime mutants: corrupted views; must be rejected by
   the CSR faithfulness pass. --------------------------------------- *)

let csr_mutant ~name ~description ~expected net mutate =
  let v = mutate (Rt.view (Rt.compile net)) in
  finish ~name ~description ~expected
    (List.map (fun d -> d.Diagnostic.code) (Csr_lint.check ~subject:name net v))

let csr_mutants net =
  let n = Topology.size net in
  [
    csr_mutant ~name:"csr-truncate-row" ~expected:"CSR001"
      ~description:"last offsets entry shortened; flat table length no longer matches" net
      (fun v ->
        v.Rt.v_offsets.(n) <- v.Rt.v_offsets.(n) - 1;
        v);
    csr_mutant ~name:"csr-mask-corrupt" ~expected:"CSR002"
      ~description:"balancer 0's port-mask base raised above its fan-out" net
      (fun v ->
        v.Rt.v_fan_out.(0) <- v.Rt.v_fan_out.(0) + 1;
        v);
    csr_mutant ~name:"csr-dangling" ~expected:"CSR003"
      ~description:"one jump-table entry redirected to a balancer id past the end" net
      (fun v ->
        v.Rt.v_next.(0) <- n + 3;
        v);
    csr_mutant ~name:"csr-rewire" ~expected:"CSR009"
      ~description:"two jump-table entries with different targets swapped" net
      (fun v ->
        let j = ref 1 in
        while v.Rt.v_next.(!j) = v.Rt.v_next.(0) do
          incr j
        done;
        let tmp = v.Rt.v_next.(0) in
        v.Rt.v_next.(0) <- v.Rt.v_next.(!j);
        v.Rt.v_next.(!j) <- tmp;
        v);
    csr_mutant ~name:"csr-entry-corrupt" ~expected:"CSR006"
      ~description:"input wire 0 enters at input wire 1's balancer" net
      (fun v ->
        v.Rt.v_entry.(0) <- v.Rt.v_entry.(1);
        v);
    csr_mutant ~name:"csr-init-corrupt" ~expected:"CSR007"
      ~description:"balancer 0 compiled with initial state 1" net
      (fun v ->
        v.Rt.v_init_states.(0) <- 1;
        v);
    csr_mutant ~name:"csr-width" ~expected:"CSR008"
      ~description:"compiled output width off by one" net
      (fun v -> { v with Rt.v_output_width = v.Rt.v_output_width + 1 });
    csr_mutant ~name:"csr-route-strategy" ~expected:"CSR010"
      ~description:"balancer 0's precompiled port strategy downgraded to the double-mod path" net
      (fun v ->
        v.Rt.v_route.(1) <- -v.Rt.v_fan_out.(0);
        v);
    csr_mutant ~name:"csr-route-shift" ~expected:"CSR010"
      ~description:"routing base of balancer 1 shifted off its CSR row" net
      (fun v ->
        v.Rt.v_route.(2) <- v.Rt.v_route.(2) + 1;
        v);
    csr_mutant ~name:"csr-drop-output" ~expected:"CSR004"
      ~description:"the jump to output wire 0 redirected to output wire 1" net
      (fun v ->
        let j = ref 0 in
        while v.Rt.v_next.(!j) <> -1 do
          incr j
        done;
        v.Rt.v_next.(!j) <- -2;
        v);
  ]

let battery ?(w = 8) ?(t = 8) () =
  let net = Counting.network ~w ~t in
  raw_mutants net @ semantic_mutants ~w ~t net @ csr_mutants net

let all_rejected outcomes = List.for_all (fun o -> o.rejected) outcomes

let pp_outcome ppf o =
  Format.fprintf ppf "%-18s expect %s, got [%s] — %s" o.name o.expected
    (String.concat "; " o.got)
    (if o.rejected then "rejected" else "ESCAPED")

let to_json outcomes =
  let buf = Buffer.create 512 in
  Buffer.add_char buf '[';
  List.iteri
    (fun i o ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":%s,\"description\":%s,\"expected\":%s,\"got\":[%s],\"rejected\":%b}"
           (Diagnostic.json_string o.name)
           (Diagnostic.json_string o.description)
           (Diagnostic.json_string o.expected)
           (String.concat "," (List.map Diagnostic.json_string o.got))
           o.rejected))
    outcomes;
  Buffer.add_char buf ']';
  Buffer.contents buf
