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
}

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
  let { Topology.base = offsets; next; entry; _ } = Topology.wiring net in
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
  Metrics.crossing sk b;
  Padded_atomic.fetch_and_add rt.states b 1

let metered_dec_faa rt sk b =
  Metrics.crossing sk b;
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
  Metrics.crossing sk b;
  metered_cas_retry rt sk b 1 0 1 false

let metered_dec_cas rt sk b =
  Metrics.crossing sk b;
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
  if anti then Metrics.antitoken_exit sk ~wire:out else Metrics.token_exit sk ~wire:out;
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

(* Sequential batch: bounds check and dispatch paid once for the whole
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

let traverse_batch rt ~wire ~n ~f =
  check_batch_args rt ~who:"traverse_batch" ~wire ~n;
  batch_loop rt ~wire ~n ~f ~anti:false

let traverse_batch_decrement rt ~wire ~n ~f =
  check_batch_args rt ~who:"traverse_batch_decrement" ~wire ~n;
  batch_loop rt ~wire ~n ~f ~anti:true

(* ------------------------------------------------------------------ *)
(* Layer-pipelined batch traversal.  A wavefront of up to [capacity]
   tokens advances one balancer crossing per round, so while one
   crossing waits on a cache miss the next token's crossing — on a
   different balancer bank of the same layer — is already in flight.
   The scratch buffer is caller-owned and reused across batches, so the
   steady-state loop allocates nothing. *)

type buffer = { dests : int array }

let buffer ?(capacity = 64) () =
  if capacity < 1 then invalid_arg "Network_runtime.buffer: capacity must be positive";
  { dests = Array.make capacity 0 }

let buffer_capacity buf = Array.length buf.dests

let wavefront rt sk cross dests k base ~metered ~anti f =
  let live = ref k in
  while !live > 0 do
    for i = 0 to k - 1 do
      let d = Array.unsafe_get dests i in
      if d >= 0 then begin
        let s = cross rt sk d in
        let rbase = Array.unsafe_get rt.route (2 * d) in
        let strat = Array.unsafe_get rt.route ((2 * d) + 1) in
        let nd = Array.unsafe_get rt.next (rbase + port_of_strategy s strat) in
        Array.unsafe_set dests i nd;
        if nd < 0 then begin
          decr live;
          let out = -nd - 1 in
          let v = if anti then exit_decrement rt nd else exit_increment rt nd in
          if metered then
            if anti then Metrics.antitoken_exit sk ~wire:out
            else Metrics.token_exit sk ~wire:out;
          f (base + i) v
        end
      end
    done
  done

(* Pipelined tokens are interleaved, so per-token latency sampling does
   not bracket a single walk; the pipelined paths record crossings,
   stalls and exits but skip the latency reservoir. *)
let pipelined_loop rt buf ~wire ~n ~f ~anti =
  let entry = rt.entry.(wire) in
  let sk, cross, metered =
    match rt.metrics with
    | Some m -> (Metrics.sink m, metered_fn rt.mode ~anti, true)
    | None -> (Metrics.null, cross_fn rt.mode ~anti, false)
  in
  let dests = buf.dests in
  let cap = Array.length dests in
  let base = ref 0 in
  while !base < n do
    let k = if n - !base < cap then n - !base else cap in
    Array.fill dests 0 k entry;
    wavefront rt sk cross dests k !base ~metered ~anti f;
    base := !base + k
  done

let traverse_batch_pipelined rt buf ~wire ~n ~f =
  check_batch_args rt ~who:"traverse_batch_pipelined" ~wire ~n;
  pipelined_loop rt buf ~wire ~n ~f ~anti:false

let traverse_batch_pipelined_decrement rt buf ~wire ~n ~f =
  check_batch_args rt ~who:"traverse_batch_pipelined_decrement" ~wire ~n;
  pipelined_loop rt buf ~wire ~n ~f ~anti:true

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
