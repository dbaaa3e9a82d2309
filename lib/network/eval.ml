let check_input net x =
  if Array.length x <> Topology.input_width net then
    invalid_arg "Eval: input sequence has wrong length";
  Array.iter (fun v -> if v < 0 then invalid_arg "Eval: negative token count") x

(* [c] tokens reach the wire encoded [d]: a balancer's input, or a
   network output. *)
let deliver totals out d c = if d >= 0 then totals.(d) <- totals.(d) + c else out.(-d - 1) <- c

(* One pass over the wiring image in topological order: [totals.(b)]
   sums the (net) tokens reaching balancer [b]'s input ports, and each
   output port's share follows from that total in closed form — one
   division per balancer for tokens, [Balancer.net_output_count] per
   port for signed totals ([signed]: tokens minus antitokens).  A
   balancer whose total is 0 delivers 0 on every port, whatever its
   state, so it is skipped: each wire has one producer and both
   [totals] and [out] start at 0.  Sparse loads (the certifier's
   batteries) touch only the balancers their tokens reach.  Returns the
   output wires and the totals. *)
let flow ~signed net x =
  let { Topology.order; base; next; entry } = Topology.wiring net in
  let totals = Array.make (Topology.size net) 0 in
  let out = Array.make (Topology.output_width net) 0 in
  for i = 0 to Array.length x - 1 do
    deliver totals out entry.(i) x.(i)
  done;
  for k = 0 to Array.length order - 1 do
    let b = order.(k) in
    let total = totals.(b) in
    if total <> 0 then begin
      let d = Topology.balancer net b and row = base.(b) in
      let q = d.Balancer.fan_out in
      if signed then
        for port = 0 to q - 1 do
          deliver totals out next.(row + port) (Balancer.net_output_count d ~net:total port)
        done
      else begin
        let quotient = total / q and remainder = total mod q in
        for port = 0 to q - 1 do
          deliver totals out next.(row + port) (Balancer.share d ~quotient ~remainder port)
        done
      end
    end
  done;
  (out, totals)

let quiescent_full net x =
  check_input net x;
  let out, totals = flow ~signed:false net x in
  (* Each balancer's total becomes its final state, in place. *)
  Array.iteri
    (fun b tokens -> totals.(b) <- Balancer.state_after (Topology.balancer net b) ~tokens)
    totals;
  (out, totals)

let quiescent net x =
  check_input net x;
  fst (flow ~signed:false net x)

(* Token-level stepper.  A token's position is the balancer it is about to
   cross; mutable balancer states advance as tokens win. *)

type stepper = {
  net : Topology.t;
  states : int array;
  out_counts : int array;
}

let make_stepper net =
  {
    net;
    states = Array.init (Topology.size net) (fun b -> (Topology.balancer net b).Balancer.init_state);
    out_counts = Array.make (Topology.output_width net) 0;
  }

(* Advance a token sitting at balancer [b]: returns the next balancer, or
   the exit wire. *)
let step st b =
  let descriptor = Topology.balancer st.net b in
  let s = st.states.(b) in
  st.states.(b) <- (s + 1) mod descriptor.Balancer.fan_out;
  match Topology.consumer st.net (Topology.Bal_output { bal = b; port = s }) with
  | Topology.Bal_input { bal; port = _ } -> Some bal
  | Topology.Net_output i ->
      st.out_counts.(i) <- st.out_counts.(i) + 1;
      None

let quiescent_net net x =
  if Array.length x <> Topology.input_width net then
    invalid_arg "Eval.quiescent_net: input sequence has wrong length";
  fst (flow ~signed:true net x)

let trace_signed ?(seed = 0) net ~tokens ~antitokens =
  let w = Topology.input_width net in
  if Array.length tokens <> w || Array.length antitokens <> w then
    invalid_arg "Eval.trace_signed: input sequences have wrong length";
  Array.iter (fun v -> if v < 0 then invalid_arg "Eval.trace_signed: negative count") tokens;
  Array.iter (fun v -> if v < 0 then invalid_arg "Eval.trace_signed: negative count") antitokens;
  let st = make_stepper net in
  let out_nets = Array.make (Topology.output_width net) 0 in
  let rng = Random.State.make [| seed |] in
  (* In-flight (anti)tokens as (sign, balancer); bare wires short-circuit. *)
  let inflight = ref [] in
  let enter sign wire =
    match Topology.consumer net (Topology.Net_input wire) with
    | Topology.Bal_input { bal; port = _ } -> inflight := (sign, bal) :: !inflight
    | Topology.Net_output i -> out_nets.(i) <- out_nets.(i) + sign
  in
  Array.iteri (fun wire count -> for _ = 1 to count do enter 1 wire done) tokens;
  Array.iteri (fun wire count -> for _ = 1 to count do enter (-1) wire done) antitokens;
  let items = ref (Array.of_list !inflight) in
  let live = ref (Array.length !items) in
  while !live > 0 do
    let pick = Random.State.int rng !live in
    let sign, b = !items.(pick) in
    let descriptor = Topology.balancer st.net b in
    let q = descriptor.Balancer.fan_out in
    let port =
      if sign > 0 then begin
        let s = st.states.(b) in
        st.states.(b) <- (s + 1) mod q;
        s
      end
      else begin
        let s = ((st.states.(b) - 1) mod q + q) mod q in
        st.states.(b) <- s;
        s
      end
    in
    (match Topology.consumer st.net (Topology.Bal_output { bal = b; port }) with
    | Topology.Bal_input { bal = next; port = _ } -> !items.(pick) <- (sign, next)
    | Topology.Net_output i ->
        out_nets.(i) <- out_nets.(i) + sign;
        !items.(pick) <- !items.(!live - 1);
        decr live);
    if !live > 0 && Array.length !items > 4 * !live then items := Array.sub !items 0 !live
  done;
  out_nets

let trace ?(seed = 0) net x =
  check_input net x;
  let st = make_stepper net in
  let rng = Random.State.make [| seed |] in
  (* In-flight tokens, as the balancer each one is waiting at. *)
  let inflight = ref [] in
  Array.iteri
    (fun wire count ->
      for _ = 1 to count do
        match Topology.consumer net (Topology.Net_input wire) with
        | Topology.Bal_input { bal; port = _ } -> inflight := bal :: !inflight
        | Topology.Net_output i -> st.out_counts.(i) <- st.out_counts.(i) + 1
      done)
    x;
  let tokens = ref (Array.of_list !inflight) in
  let live = ref (Array.length !tokens) in
  while !live > 0 do
    let pick = Random.State.int rng !live in
    let b = !tokens.(pick) in
    (match step st b with
    | Some next -> !tokens.(pick) <- next
    | None ->
        !tokens.(pick) <- !tokens.(!live - 1);
        decr live);
    if !live > 0 && Array.length !tokens > 4 * !live then tokens := Array.sub !tokens 0 !live
  done;
  st.out_counts

let token_run net entries =
  let st = make_stepper net in
  let t = Topology.output_width net in
  let next_value = Array.init t (fun i -> i) in
  let run_one wire =
    if wire < 0 || wire >= Topology.input_width net then
      invalid_arg "Eval.token_run: entry wire out of range";
    (* Walk balancer to balancer until a network output is reached. *)
    let rec walk src =
      match Topology.consumer net src with
      | Topology.Bal_input { bal; port = _ } ->
          let descriptor = Topology.balancer net bal in
          let s = st.states.(bal) in
          st.states.(bal) <- (s + 1) mod descriptor.Balancer.fan_out;
          walk (Topology.Bal_output { bal; port = s })
      | Topology.Net_output i ->
          let v = next_value.(i) in
          next_value.(i) <- v + t;
          (i, v)
    in
    walk (Topology.Net_input wire)
  in
  List.map run_one entries

let counter_values net entries = List.map snd (token_run net entries)
