type balancer = { fan_in : int; fan_out : int; init_state : int }

type t = {
  input_width : int;
  balancers : balancer array;
  feeds : Topology.source array array;
  outputs : Topology.source array;
}

type violation = { code : string; message : string }

let violation code fmt = Format.kasprintf (fun message -> { code; message }) fmt
let pp_violation ppf v = Format.fprintf ppf "%s: %s" v.code v.message

let of_topology net =
  {
    input_width = Topology.input_width net;
    balancers =
      Array.init (Topology.size net) (fun b ->
          let d = Topology.balancer net b in
          {
            fan_in = d.Balancer.fan_in;
            fan_out = d.Balancer.fan_out;
            init_state = d.Balancer.init_state;
          });
    feeds = Array.init (Topology.size net) (Topology.feeds net);
    outputs = Topology.outputs net;
  }

let source_str = function
  | Topology.Net_input i -> Printf.sprintf "network input %d" i
  | Topology.Bal_output { bal; port } -> Printf.sprintf "output port %d of balancer %d" port bal

(* The pass mirrors [Topology.create]'s invariants but keeps going after
   a violation, so a mutant with several defects reports all of them.
   Checks that would crash on malformed earlier stages (consumer
   counting over out-of-range ports, cycle detection) skip the entries
   already reported as violations instead of bailing out entirely. *)
let check raw =
  let n = Array.length raw.balancers in
  let out = ref [] in
  let emit v = out := v :: !out in
  if raw.input_width <= 0 then
    emit (violation "NET001" "input width must be positive (got %d)" raw.input_width);
  if Array.length raw.outputs = 0 then emit (violation "NET008" "the network has no output wires");
  Array.iteri
    (fun b { fan_in; fan_out; init_state } ->
      if fan_in <= 0 || fan_out <= 0 then
        emit (violation "NET002" "balancer %d has invalid arity (%d,%d)" b fan_in fan_out)
      else if init_state < 0 || init_state >= fan_out then
        emit
          (violation "NET003" "balancer %d has initial state %d outside [0, %d)" b init_state
             fan_out))
    raw.balancers;
  if Array.length raw.feeds <> n then
    emit
      (violation "NET004" "%d balancers but %d feed rows" n (Array.length raw.feeds))
  else
    Array.iteri
      (fun b row ->
        let p = raw.balancers.(b).fan_in in
        if p > 0 && Array.length row <> p then
          emit
            (violation "NET004" "balancer %d has fan-in %d but %d feeds" b p (Array.length row)))
      raw.feeds;
  (* A source reference is sound when it points at an existing network
     input or at an in-range port of a balancer with valid arity. *)
  let source_ok s =
    match s with
    | Topology.Net_input i -> i >= 0 && i < raw.input_width
    | Topology.Bal_output { bal; port } ->
        bal >= 0 && bal < n && port >= 0
        && raw.balancers.(bal).fan_out > 0
        && port < raw.balancers.(bal).fan_out
  in
  (* [bal < 0] names network output [index], otherwise feed [index] of
     balancer [bal]; the label is formatted only for a violation. *)
  let check_ref ~bal ~index s =
    if not (source_ok s) then
      emit
        (if bal < 0 then
           violation "NET005" "network output %d refers to missing %s" index (source_str s)
         else
           violation "NET005" "feed %d of balancer %d refers to missing %s" index bal
             (source_str s))
  in
  let each_feed f =
    if Array.length raw.feeds = n then
      Array.iteri (fun b row -> Array.iteri (fun i s -> f ~bal:b ~index:i s) row) raw.feeds
  in
  each_feed check_ref;
  Array.iteri (fun i s -> check_ref ~bal:(-1) ~index:i s) raw.outputs;
  (* Consumption counts over the sound references only. *)
  let net_uses = Array.make (max raw.input_width 0) 0 in
  let bal_uses = Array.init n (fun b -> Array.make (max raw.balancers.(b).fan_out 0) 0) in
  let consume s =
    if source_ok s then
      match s with
      | Topology.Net_input i -> net_uses.(i) <- net_uses.(i) + 1
      | Topology.Bal_output { bal; port } -> bal_uses.(bal).(port) <- bal_uses.(bal).(port) + 1
  in
  each_feed (fun ~bal:_ ~index:_ s -> consume s);
  Array.iter consume raw.outputs;
  Array.iteri
    (fun i c ->
      if c = 0 then emit (violation "NET007" "network input %d is never consumed" i)
      else if c > 1 then emit (violation "NET006" "network input %d consumed %d times" i c))
    net_uses;
  Array.iteri
    (fun b row ->
      Array.iteri
        (fun p c ->
          if c = 0 then emit (violation "NET007" "output port %d of balancer %d is never consumed" p b)
          else if c > 1 then
            emit (violation "NET006" "output port %d of balancer %d consumed %d times" p b c))
        row)
    bal_uses;
  (* Cycle detection: Kahn's algorithm over the balancer edges induced
     by sound feed references.  Any balancer left unplaced sits on (or
     downstream of) a cycle. *)
  if Array.length raw.feeds = n then begin
    let indeg = Array.make n 0 in
    let succs = Array.make n [] in
    Array.iteri
      (fun b row ->
        Array.iter
          (fun s ->
            if source_ok s then
              match s with
              | Topology.Bal_output { bal; _ } ->
                  indeg.(b) <- indeg.(b) + 1;
                  succs.(bal) <- b :: succs.(bal)
              | Topology.Net_input _ -> ())
          row)
      raw.feeds;
    let queue = Queue.create () in
    Array.iteri (fun b d -> if d = 0 then Queue.add b queue) indeg;
    let placed = ref 0 in
    while not (Queue.is_empty queue) do
      let b = Queue.pop queue in
      incr placed;
      List.iter
        (fun b' ->
          indeg.(b') <- indeg.(b') - 1;
          if indeg.(b') = 0 then Queue.add b' queue)
        succs.(b)
    done;
    if !placed <> n then
      emit (violation "NET009" "the balancer graph contains a cycle (%d balancers involved)" (n - !placed))
  end;
  List.rev !out

let validate raw =
  match check raw with
  | [] ->
      Ok
        (Topology.create ~input_width:raw.input_width
           ~balancers:
             (Array.map
                (fun { fan_in; fan_out; init_state } ->
                  Balancer.make ~init_state ~fan_in ~fan_out ())
                raw.balancers)
           ~feeds:raw.feeds ~outputs:raw.outputs)
  | violations -> Error violations
