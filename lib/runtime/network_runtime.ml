module Topology = Cn_network.Topology
module Balancer = Cn_network.Balancer

type mode = Faa | Cas

(* Port strategies, precompiled per balancer: a non-negative strategy is
   the mask [q - 1] of a power-of-two fan-out [q] (state land mask is
   the port, even for negative post-antitoken states, by two's
   complement); a negative strategy [-q] selects the symmetric
   double-[mod] path for general fan-outs.  Compiling the power-of-two
   test here hoists it out of every crossing of every walk loop. *)
let strategy_of q = if q land (q - 1) = 0 then q - 1 else -q

let[@inline] port_of_strategy s strat =
  if strat >= 0 then s land strat
  else
    let q = -strat in
    (s mod q + q) mod q

type t = {
  mode : mode;
  input_width : int;
  output_width : int;
  states : Padded_atomic.t; (* per balancer: monotone transition count *)
  init_states : int array;
  offsets : int array; (* CSR row starts; length n+1, so row b spans
                          [offsets.(b), offsets.(b+1)) and its width is
                          balancer b's fan-out *)
  next : int array; (* CSR: encoded destination of port p of balancer b
                       at [offsets.(b) + p] *)
  fan_out : int array;
  route : int array; (* stride-2 routing table: [route.(2b)] is balancer
                        b's CSR row base (= offsets.(b)), [route.(2b+1)]
                        its port strategy — one adjacent pair per
                        crossing instead of two [offsets] reads plus a
                        power-of-two test *)
  entry : int array; (* per input wire: encoded destination *)
  values : Padded_atomic.t; (* per output wire: next value to hand out *)
  failures : Padded_atomic.t; (* single slot, always padded *)
  metrics : Metrics.t option;
  order : int array; (* balancer ids in topological order: the count walk's visit order *)
  crossover : int; (* smallest batch walked as counts: n * depth >= 2 * size *)
}

(* A per-token walk of [n] tokens makes [n * depth] crossings; a count
   walk makes at most one fetch-and-add per balancer and reads every
   balancer's count once, about [2 * size] steps.  Counts win from the
   [n] where the first reaches the second. *)
let batch_crossover net =
  let depth = Topology.depth net in
  if depth = 0 then 1 else max 1 (((2 * Topology.size net) + depth - 1) / depth)

let compile ?(mode = Faa) ?(metrics = false) net =
  let n = Topology.size net in
  let t = Topology.output_width net in
  (* One topology query per balancer; every per-balancer field below is
     derived from this pass.  All routing — including the Lemma 5.3
     bit-reversal wiring of the butterfly blocks — is already baked into
     the wiring image [Topology.create] records in this module's
     destination encoding: [offsets]/[next]/[entry] share its arrays
     read-only (no walk writes them; [view] copies them), and only
     [route] is derived here, so no walk loop ever re-derives a wire. *)
  let descriptors = Array.init n (Topology.balancer net) in
  let init_states = Array.map (fun d -> d.Balancer.init_state) descriptors in
  let fan_out = Array.map (fun d -> d.Balancer.fan_out) descriptors in
  let { Topology.base = offsets; next; entry; order } = Topology.wiring net in
  let route = Array.make (2 * n) 0 in
  for b = 0 to n - 1 do
    route.(2 * b) <- offsets.(b);
    route.((2 * b) + 1) <- strategy_of fan_out.(b)
  done;
  {
    mode;
    input_width = Topology.input_width net;
    output_width = t;
    states = Padded_atomic.make n ~init:(Array.get init_states);
    init_states;
    offsets;
    next;
    fan_out;
    route;
    entry;
    order;
    crossover = batch_crossover net;
    values = Padded_atomic.make t ~init:Fun.id;
    failures = Padded_atomic.make 1 ~init:(fun _ -> 0);
    metrics = (if metrics then Some (Metrics.create ~balancers:n ~wires:t ()) else None);
  }

let mode rt = rt.mode
let input_width rt = rt.input_width
let output_width rt = rt.output_width
let metrics rt = rt.metrics

(* Balancer crossings.  Every crossing function is a top-level value of
   one shared shape [t -> Metrics.sink -> int -> int]: the bare versions
   ignore the sink (callers pass [Metrics.null]), the metered versions
   record into it.  Sharing the shape means the walk loops take the
   crossing as an ordinary function argument and the dispatch [match]es
   below return statically allocated closures — the traverse paths
   allocate nothing, metered or not.

   The CAS loop backs off exponentially (doubling [cpu_relax] bursts,
   bounded) instead of hammering the contended line, and a crossing that
   lost at least one CAS counts as ONE stall however many retries it
   took: stalls witness contended crossings, not retry storms amplified
   by the lack of backoff. *)

let max_backoff = 64

let cross_faa rt _sk b = Padded_atomic.fetch_and_add rt.states b 1
let cross_dec_faa rt _sk b = Padded_atomic.fetch_and_add rt.states b (-1) - 1

let rec cas_retry rt b step bias spins contended =
  let s = Padded_atomic.get rt.states b in
  if Padded_atomic.compare_and_set rt.states b s (s + step) then begin
    if contended then Padded_atomic.incr rt.failures 0;
    s + bias
  end
  else begin
    for _ = 1 to spins do
      Domain.cpu_relax ()
    done;
    cas_retry rt b step bias (if spins >= max_backoff then max_backoff else spins * 2) true
  end

let cross_cas rt _sk b = cas_retry rt b 1 0 1 false
let cross_dec_cas rt _sk b = cas_retry rt b (-1) (-1) 1 false

(* Metered crossings: same transitions, plus per-balancer crossing and
   stall recording into the calling domain's metrics sink. *)

let metered_faa rt sk b =
  Metrics.crossings sk b 1;
  Padded_atomic.fetch_and_add rt.states b 1

let metered_dec_faa rt sk b =
  Metrics.crossings sk b 1;
  Padded_atomic.fetch_and_add rt.states b (-1) - 1

let rec metered_cas_retry rt sk b step bias spins contended =
  let s = Padded_atomic.get rt.states b in
  if Padded_atomic.compare_and_set rt.states b s (s + step) then begin
    if contended then begin
      Padded_atomic.incr rt.failures 0;
      Metrics.stall sk b
    end;
    s + bias
  end
  else begin
    for _ = 1 to spins do
      Domain.cpu_relax ()
    done;
    metered_cas_retry rt sk b step bias
      (if spins >= max_backoff then max_backoff else spins * 2)
      true
  end

let metered_cas rt sk b =
  Metrics.crossings sk b 1;
  metered_cas_retry rt sk b 1 0 1 false

let metered_dec_cas rt sk b =
  Metrics.crossings sk b 1;
  metered_cas_retry rt sk b (-1) (-1) 1 false

(* Dispatch: each arm is a statically allocated top-level function, so
   selecting one allocates nothing. *)
let cross_fn mode ~anti =
  match (mode, anti) with
  | Faa, false -> cross_faa
  | Faa, true -> cross_dec_faa
  | Cas, false -> cross_cas
  | Cas, true -> cross_dec_cas

let metered_fn mode ~anti =
  match (mode, anti) with
  | Faa, false -> metered_faa
  | Faa, true -> metered_dec_faa
  | Cas, false -> metered_cas
  | Cas, true -> metered_dec_cas

(* The walk loop.  A token crossing is one adjacent [route] pair read,
   one read of [next], and the atomic transition — no nested array to
   chase, no per-crossing power-of-two test.  The unsafe reads are
   sound: [Topology.create] validated the wiring, so every encoded
   destination and every [route]/[next] index is in range. *)

let rec walk rt sk cross dest =
  if dest >= 0 then begin
    let s = cross rt sk dest in
    let base = Array.unsafe_get rt.route (2 * dest) in
    let strat = Array.unsafe_get rt.route ((2 * dest) + 1) in
    walk rt sk cross (Array.unsafe_get rt.next (base + port_of_strategy s strat))
  end
  else dest

let exit_increment rt dest =
  let out = -dest - 1 in
  Padded_atomic.fetch_and_add rt.values out rt.output_width

let exit_decrement rt dest =
  let out = -dest - 1 in
  Padded_atomic.fetch_and_add rt.values out (-rt.output_width) - rt.output_width

(* One metered traversal: latency sampling brackets the walk, the exit
   tally lands in the same sink as the crossings. *)
let metered_one rt sk cross entry ~anti =
  let t0 = Metrics.sample_begin sk in
  let dest = walk rt sk cross entry in
  let out = -dest - 1 in
  let v = if anti then exit_decrement rt dest else exit_increment rt dest in
  if anti then Metrics.antitoken_exits sk ~wire:out 1 else Metrics.token_exits sk ~wire:out 1;
  if t0 >= 0 then Metrics.sample_end sk t0;
  v

let traverse_metered rt m ~wire ~anti =
  let sk = Metrics.sink m in
  metered_one rt sk (metered_fn rt.mode ~anti) rt.entry.(wire) ~anti

let traverse rt ~wire =
  if wire < 0 || wire >= rt.input_width then
    invalid_arg "Network_runtime.traverse: wire out of range";
  match rt.metrics with
  | Some m -> traverse_metered rt m ~wire ~anti:false
  | None -> exit_increment rt (walk rt Metrics.null (cross_fn rt.mode ~anti:false) rt.entry.(wire))

let traverse_decrement rt ~wire =
  if wire < 0 || wire >= rt.input_width then
    invalid_arg "Network_runtime.traverse_decrement: wire out of range";
  match rt.metrics with
  | Some m -> traverse_metered rt m ~wire ~anti:true
  | None -> exit_decrement rt (walk rt Metrics.null (cross_fn rt.mode ~anti:true) rt.entry.(wire))

let check_batch_args rt ~who ~wire ~n =
  if wire < 0 || wire >= rt.input_width then
    invalid_arg (Printf.sprintf "Network_runtime.%s: wire out of range" who);
  if n < 0 then invalid_arg (Printf.sprintf "Network_runtime.%s: negative batch size" who)

(* Per-token batch: bounds check and dispatch paid once for the whole
   batch, tokens walked one after the other. *)
let batch_loop rt ~wire ~n ~f ~anti =
  let entry = rt.entry.(wire) in
  match rt.metrics with
  | Some m ->
      let sk = Metrics.sink m in
      let cross = metered_fn rt.mode ~anti in
      for i = 0 to n - 1 do
        f i (metered_one rt sk cross entry ~anti)
      done
  | None ->
      let cross = cross_fn rt.mode ~anti in
      let sk = Metrics.null in
      if anti then
        for i = 0 to n - 1 do
          f i (exit_decrement rt (walk rt sk cross entry))
        done
      else
        for i = 0 to n - 1 do
          f i (exit_increment rt (walk rt sk cross entry))
        done

(* ------------------------------------------------------------------ *)
(* The count walk.  A balancer's outputs depend only on how many tokens
   reach it (Eval.flow), so a batch can cross each balancer it reaches
   in one transition of +-k: from the returned state [s], its k tokens
   take ports (s + j) mod q and its k antitokens (s - k + j) mod q, for
   j < k, exactly the ports k single crossings would take back to back.
   Balancers are visited in topological order, so every count is
   complete before its balancer is visited.  Each exit wire then takes
   one fetch-and-add of +-c*t for its c tokens.

   Visits share one shape, [t -> Metrics.sink -> int -> int -> int]:
   balancer, signed step, and the state before it. *)

let visit_faa rt _sk b step = Padded_atomic.fetch_and_add rt.states b step
let visit_cas rt _sk b step = cas_retry rt b step 0 1 false

let metered_visit_faa rt sk b step =
  Metrics.crossings sk b (abs step);
  Padded_atomic.fetch_and_add rt.states b step

let metered_visit_cas rt sk b step =
  Metrics.crossings sk b (abs step);
  metered_cas_retry rt sk b step 0 1 false

let visit_fn mode ~metered =
  match (mode, metered) with
  | Faa, false -> visit_faa
  | Cas, false -> visit_cas
  | Faa, true -> metered_visit_faa
  | Cas, true -> metered_visit_cas

(* Count-walk scratch, one per domain (Domain.DLS), never in [t]:
   [counts.(t + d)] is the number of tokens that reached encoded
   destination [d] (a balancer, or output wire [-d - 1] below [t]), and
   is zero outside a walk; [pending.(o)] and [cursor.(o)] are output
   wire [o]'s values still to hand out and the next of them.  [busy]
   marks a walk in progress: a caller's [f] that walks again, or a
   thread of the same domain scheduled mid-walk, walks per token
   instead of sharing the arrays.  Only the walk that set [busy] grows
   (replaces) the arrays, so none is replaced under a walk that holds
   it. *)
type scratch = {
  mutable busy : bool;
  mutable counts : int array;
  mutable pending : int array;
  mutable cursor : int array;
}

let scratch_key =
  Domain.DLS.new_key (fun () -> { busy = false; counts = [||]; pending = [||]; cursor = [||] })

let grow sc rt =
  let t = rt.output_width in
  let need = t + Array.length rt.fan_out in
  if Array.length sc.counts < need then sc.counts <- Array.make need 0;
  if Array.length sc.pending < t then begin
    sc.pending <- Array.make t 0;
    sc.cursor <- Array.make t 0
  end

let count_walk rt sk visit cnt ~entry ~n ~anti =
  let t = rt.output_width in
  Array.unsafe_set cnt (t + entry) n;
  let order = rt.order in
  for i = 0 to Array.length order - 1 do
    let b = Array.unsafe_get order i in
    let k = Array.unsafe_get cnt (t + b) in
    if k > 0 then begin
      Array.unsafe_set cnt (t + b) 0;
      let s = visit rt sk b (if anti then -k else k) in
      let base = Array.unsafe_get rt.route (2 * b) in
      let strat = Array.unsafe_get rt.route ((2 * b) + 1) in
      let p0 = port_of_strategy (if anti then s - k else s) strat in
      let q = Array.unsafe_get rt.fan_out b in
      (* j < k takes port p0 + j; past q the ports repeat, each taking
         [k / q] tokens and the first [k mod q] one more. *)
      let full = if k < q then 0 else k / q in
      let rem = k - (full * q) in
      for j = 0 to (if k < q then k else q) - 1 do
        let p = p0 + j in
        let d = t + Array.unsafe_get rt.next (base + if p >= q then p - q else p) in
        Array.unsafe_set cnt d (Array.unsafe_get cnt d + full + if j < rem then 1 else 0)
      done
    end
  done

(* One fetch-and-add per exit wire that the batch reached. *)
let count_exits rt sk cnt pending cursor ~metered ~anti =
  let t = rt.output_width in
  for o = 0 to t - 1 do
    let c = Array.unsafe_get cnt (t - 1 - o) in
    Array.unsafe_set pending o c;
    if c > 0 then begin
      Array.unsafe_set cnt (t - 1 - o) 0;
      if anti then begin
        Array.unsafe_set cursor o (Padded_atomic.fetch_and_add rt.values o (-c * t) - t);
        if metered then Metrics.antitoken_exits sk ~wire:o c
      end
      else begin
        Array.unsafe_set cursor o (Padded_atomic.fetch_and_add rt.values o (c * t));
        if metered then Metrics.token_exits sk ~wire:o c
      end
    end
  done

(* The wire holding the lowest (highest, [~up:false]) pending value. *)
let extreme_wire pending cursor t ~up =
  let w = ref (-1) in
  for o = 0 to t - 1 do
    if
      Array.unsafe_get pending o > 0
      && (!w < 0
         ||
         if up then Array.unsafe_get cursor o < Array.unsafe_get cursor !w
         else Array.unsafe_get cursor o > Array.unsafe_get cursor !w)
    then w := o
  done;
  !w

(* Hand the values out in ascending order (descending for antitokens),
   the order n single traversals of a counting network return them.
   Every value of wire [o] is congruent to [o] mod t, so the next value
   is [v +- 1] on the neighbouring wire unless another domain took it;
   only then is the next pending value searched for. *)
let hand_out rt pending cursor ~n ~f ~anti =
  let t = rt.output_width in
  let up = not anti in
  let w = ref (extreme_wire pending cursor t ~up) in
  let v = ref (Array.unsafe_get cursor !w) in
  for i = 0 to n - 1 do
    if not (Array.unsafe_get pending !w > 0 && Array.unsafe_get cursor !w = !v) then begin
      w := extreme_wire pending cursor t ~up;
      v := Array.unsafe_get cursor !w
    end;
    let o = !w and x = !v in
    Array.unsafe_set pending o (Array.unsafe_get pending o - 1);
    if up then begin
      Array.unsafe_set cursor o (x + t);
      v := x + 1;
      w := if o + 1 = t then 0 else o + 1
    end
    else begin
      Array.unsafe_set cursor o (x - t);
      v := x - 1;
      w := if o = 0 then t - 1 else o - 1
    end;
    f i x
  done

(* A batch walked as counts records its crossings and exits; like any
   interleaved walk it takes no latency sample.  The caller has set
   [sc.busy]: the arrays are grown and then read once, and all three
   phases work on those.  On an exception, [sc.counts] is still the
   array the walk used. *)
let count_batch rt sc ~wire ~n ~f ~anti =
  match
    grow sc rt;
    let cnt = sc.counts and pending = sc.pending and cursor = sc.cursor in
    let sk = match rt.metrics with Some m -> Metrics.sink m | None -> Metrics.null in
    let metered = Option.is_some rt.metrics in
    count_walk rt sk (visit_fn rt.mode ~metered) cnt ~entry:rt.entry.(wire) ~n ~anti;
    count_exits rt sk cnt pending cursor ~metered ~anti;
    hand_out rt pending cursor ~n ~f ~anti
  with
  | () -> sc.busy <- false
  | exception e ->
      Array.fill sc.counts 0 (Array.length sc.counts) 0;
      sc.busy <- false;
      raise e

(* [busy] is read and set with no call or allocation in between, so no
   thread switch (a poll point) can fall between them, and nothing
   touches the arrays before it is set. *)
let[@inline] batch rt ~wire ~n ~f ~anti =
  if n < rt.crossover then batch_loop rt ~wire ~n ~f ~anti
  else
    let sc = Domain.DLS.get scratch_key in
    if sc.busy then batch_loop rt ~wire ~n ~f ~anti
    else begin
      sc.busy <- true;
      count_batch rt sc ~wire ~n ~f ~anti
    end

let traverse_batch rt ~wire ~n ~f =
  check_batch_args rt ~who:"traverse_batch" ~wire ~n;
  batch rt ~wire ~n ~f ~anti:false

let traverse_batch_decrement rt ~wire ~n ~f =
  check_batch_args rt ~who:"traverse_batch_decrement" ~wire ~n;
  batch rt ~wire ~n ~f ~anti:true

(* A read-only walk: each balancer's state read where a token would
   cross it, and the exit cell read where it would take its value. *)
let read_state rt _sk b = Padded_atomic.get rt.states b

let peek rt ~wire =
  if wire < 0 || wire >= rt.input_width then invalid_arg "Network_runtime.peek: wire out of range";
  Padded_atomic.get rt.values (-walk rt Metrics.null read_state rt.entry.(wire) - 1)

let exit_distribution rt =
  (* Output wire [i] hands out [i, i + t, ...]; its next value [v]
     encodes the number of exits as [(v - i) / t]. *)
  Array.init rt.output_width (fun i -> (Padded_atomic.get rt.values i - i) / rt.output_width)

let net_count rt =
  (* Every cell moves in steps of [t] from its wire index, so the sum of
     the cells minus [0 + 1 + ... + (t - 1)] is [t] times the net exit
     count: one exact division, no array. *)
  let t = rt.output_width in
  let sum = ref 0 in
  for i = 0 to t - 1 do
    sum := !sum + Padded_atomic.get rt.values i
  done;
  (!sum - (t * (t - 1) / 2)) / t

type view = {
  v_mode : mode;
  v_input_width : int;
  v_output_width : int;
  v_init_states : int array;
  v_fan_out : int array;
  v_offsets : int array;
  v_next : int array;
  v_route : int array;
  v_entry : int array;
}

let view rt =
  {
    v_mode = rt.mode;
    v_input_width = rt.input_width;
    v_output_width = rt.output_width;
    v_init_states = Array.copy rt.init_states;
    v_fan_out = Array.copy rt.fan_out;
    v_offsets = Array.copy rt.offsets;
    v_next = Array.copy rt.next;
    v_route = Array.copy rt.route;
    v_entry = Array.copy rt.entry;
  }

let cas_failures rt = Padded_atomic.get rt.failures 0

let reset rt =
  Array.iteri (fun b s -> Padded_atomic.set rt.states b s) rt.init_states;
  for i = 0 to rt.output_width - 1 do
    Padded_atomic.set rt.values i i
  done;
  Padded_atomic.set rt.failures 0 0;
  Option.iter Metrics.reset rt.metrics
