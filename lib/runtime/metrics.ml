(* Low-overhead observability for the compiled runtime.

   The hot path must not reintroduce the very contention the network
   exists to spread out, so all counters are sharded: each domain maps
   (by domain id) to a private sink holding its own Padded_atomic banks,
   and the banks are only merged when a snapshot is taken at quiescence.
   Within a sink the banks are unpadded — a sink has a single writer in
   the common case, so padding every slot would multiply memory for no
   contention win; distinct sinks live in distinct heap blocks and so on
   (almost always) distinct cache lines.  Updates still go through the
   atomics, so a hash collision between two domains costs locality, not
   correctness.

   Latency is sampled, not traced: every [sample_period]-th token
   through a sink gets two monotonic-clock reads (CLOCK_MONOTONIC via
   the in-tree no-alloc stub), and the measured latencies feed a
   per-sink reservoir (Vitter's algorithm R) so percentiles stay
   unbiased however long the run.  The reservoir holds plain tagged
   ints of nanoseconds and the clock returns one, so a sampled token
   costs two stub calls and two array stores — no [int64] boxes, no
   float boxes, nothing for the GC. *)

let schema_version = 1

let now_ns = Clock.now_ns

(* Slots of the [lat_state] bank. *)
let tick_slot = 0 (* tokens entered, drives the sampling period *)
let seen_slot = 1 (* latencies measured so far *)
let rng_slot = 2 (* xorshift state for reservoir replacement *)

type sink = {
  crossings : Padded_atomic.t; (* per balancer: tokens that crossed it *)
  stalls : Padded_atomic.t; (* per balancer: contended CAS crossings *)
  exits : Padded_atomic.t; (* per output wire: net exits (tokens - antitokens) *)
  flows : Padded_atomic.t; (* slot 0: tokens entered, slot 1: antitokens *)
  lat : int array; (* latency reservoir, ns (unboxed tagged ints) *)
  lat_state : Padded_atomic.t;
  period : int;
}

type t = {
  balancers : int;
  wires : int;
  sinks : sink array;
}

let make_sink ~balancers ~wires ~reservoir ~period =
  {
    crossings = Padded_atomic.make ~padded:false balancers ~init:(fun _ -> 0);
    stalls = Padded_atomic.make ~padded:false balancers ~init:(fun _ -> 0);
    exits = Padded_atomic.make ~padded:false wires ~init:(fun _ -> 0);
    flows = Padded_atomic.make ~padded:false 2 ~init:(fun _ -> 0);
    lat = Array.make reservoir 0;
    lat_state = Padded_atomic.make ~padded:false 3 ~init:(fun i -> if i = rng_slot then 0x2545F49 else 0);
    period;
  }

(* A zero-size sink for the uninstrumented traverse paths: the bare
   crossing functions share the metered ones' signature (so the walk
   loops need no closures), and this is the sink value they ignore. *)
let null = make_sink ~balancers:0 ~wires:0 ~reservoir:1 ~period:1

let create ?(shards = 16) ?(reservoir = 512) ?(sample_period = 16) ~balancers ~wires () =
  if shards <= 0 then invalid_arg "Metrics.create: shards must be positive";
  if reservoir <= 0 then invalid_arg "Metrics.create: reservoir must be positive";
  if sample_period <= 0 then invalid_arg "Metrics.create: sample_period must be positive";
  if balancers < 0 || wires < 0 then invalid_arg "Metrics.create: negative dimensions";
  {
    balancers;
    wires;
    sinks =
      Array.init shards (fun _ -> make_sink ~balancers ~wires ~reservoir ~period:sample_period);
  }

let sink m = m.sinks.((Domain.self () :> int) mod Array.length m.sinks)

let crossings sk b k = ignore (Padded_atomic.fetch_and_add sk.crossings b k)
let stall sk b = Padded_atomic.incr sk.stalls b

let token_exits sk ~wire c =
  ignore (Padded_atomic.fetch_and_add sk.exits wire c);
  ignore (Padded_atomic.fetch_and_add sk.flows 0 c)

let antitoken_exits sk ~wire c =
  ignore (Padded_atomic.fetch_and_add sk.exits wire (-c));
  ignore (Padded_atomic.fetch_and_add sk.flows 1 c)

let sample_begin sk =
  let tick = Padded_atomic.fetch_and_add sk.lat_state tick_slot 1 in
  if tick mod sk.period = 0 then now_ns () else -1

(* Algorithm R: the [cap]-th and later measurements replace a uniformly
   random reservoir slot with probability cap/seen.  The xorshift state
   is updated racily on hash collisions, which only perturbs the
   randomness, never the memory safety. *)
let sample_end sk t0 =
  let d = now_ns () - t0 in
  let cap = Array.length sk.lat in
  let seen = Padded_atomic.fetch_and_add sk.lat_state seen_slot 1 in
  if seen < cap then sk.lat.(seen) <- d
  else begin
    let r = Padded_atomic.get sk.lat_state rng_slot in
    let r = r lxor (r lsl 13) in
    let r = r lxor (r lsr 7) in
    let r = (r lxor (r lsl 17)) land max_int in
    Padded_atomic.set sk.lat_state rng_slot r;
    let j = r mod (seen + 1) in
    if j < cap then sk.lat.(j) <- d
  end

let reset m =
  Array.iter
    (fun sk ->
      for b = 0 to Padded_atomic.length sk.crossings - 1 do
        Padded_atomic.set sk.crossings b 0;
        Padded_atomic.set sk.stalls b 0
      done;
      for i = 0 to Padded_atomic.length sk.exits - 1 do
        Padded_atomic.set sk.exits i 0
      done;
      Padded_atomic.set sk.flows 0 0;
      Padded_atomic.set sk.flows 1 0;
      Padded_atomic.set sk.lat_state tick_slot 0;
      Padded_atomic.set sk.lat_state seen_slot 0)
    m.sinks

(* ------------------------------------------------------------------ *)
(* Single-owner reservoir.

   The sink reservoir above is welded to the sharded hot path; client
   harnesses (the TCP load rig) need the same Algorithm-R behaviour as
   a plain value owned by one thread — no atomics, no padding, just
   tagged ints and a private xorshift stream. *)

module Reservoir = struct
  type t = {
    samples : int array;
    mutable seen : int;
    mutable rng : int;
  }

  let create ?(capacity = 2048) () =
    if capacity <= 0 then
      invalid_arg "Metrics.Reservoir.create: capacity must be positive";
    { samples = Array.make capacity 0; seen = 0; rng = 0x2545F49 }

  let observed r = r.seen
  let kept r = min r.seen (Array.length r.samples)

  let add r v =
    let cap = Array.length r.samples in
    let seen = r.seen in
    r.seen <- seen + 1;
    if seen < cap then r.samples.(seen) <- v
    else begin
      let x = r.rng in
      let x = x lxor (x lsl 13) in
      let x = x lxor (x lsr 7) in
      let x = (x lxor (x lsl 17)) land max_int in
      r.rng <- x;
      let j = x mod (seen + 1) in
      if j < cap then r.samples.(j) <- v
    end
end

type latency = {
  time_unit : string;
  observed : int;
  kept : int;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
  mean : float;
}

type snapshot = {
  version : int;
  source : string;
  balancers : int;
  wires : int;
  tokens : int;
  antitokens : int;
  crossings : int array;
  stalls : int array;
  exits : int array;
  latency : latency option;
}

let percentiles ?(time_unit = "ns") ?observed samples =
  let n = Array.length samples in
  if n = 0 then None
  else begin
    let sorted = Array.copy samples in
    Array.sort compare sorted;
    (* Nearest-rank percentile on the sorted reservoir. *)
    let rank q = sorted.(min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)) in
    Some
      {
        time_unit;
        observed = (match observed with Some o -> o | None -> n);
        kept = n;
        p50 = rank 0.50;
        p95 = rank 0.95;
        p99 = rank 0.99;
        max = sorted.(n - 1);
        mean = Array.fold_left ( +. ) 0. sorted /. float_of_int n;
      }
  end

(* Defined outside [Reservoir] only because [latency]/[percentiles]
   come later in this file; conceptually it is the module's summary. *)
let reservoir_summary ?(time_unit = "ns") rs =
  let observed = List.fold_left (fun acc r -> acc + Reservoir.observed r) 0 rs in
  let samples =
    Array.concat
      (List.map
         (fun (r : Reservoir.t) ->
           Array.init (Reservoir.kept r) (fun i -> float_of_int r.Reservoir.samples.(i)))
         rs)
  in
  percentiles ~time_unit ~observed samples

let snapshot m =
  let sum_bank len field =
    let acc = Array.make len 0 in
    Array.iter
      (fun sk ->
        let bank = field sk in
        for i = 0 to len - 1 do
          acc.(i) <- acc.(i) + Padded_atomic.get bank i
        done)
      m.sinks;
    acc
  in
  let flows = sum_bank 2 (fun sk -> sk.flows) in
  let samples =
    Array.concat
      (Array.to_list
         (Array.map
            (fun sk ->
              let kept = min (Padded_atomic.get sk.lat_state seen_slot) (Array.length sk.lat) in
              Array.init kept (fun i -> float_of_int sk.lat.(i)))
            m.sinks))
  in
  let observed =
    Array.fold_left (fun acc sk -> acc + Padded_atomic.get sk.lat_state seen_slot) 0 m.sinks
  in
  {
    version = schema_version;
    source = "runtime";
    balancers = m.balancers;
    wires = m.wires;
    tokens = flows.(0);
    antitokens = flows.(1);
    crossings = sum_bank m.balancers (fun sk -> sk.crossings);
    stalls = sum_bank m.balancers (fun sk -> sk.stalls);
    exits = sum_bank m.wires (fun sk -> sk.exits);
    latency = percentiles ~observed samples;
  }

(* ------------------------------------------------------------------ *)
(* JSON serialization (hand-rolled, schema-versioned; the consumers are
   bench/BENCH_runtime.json and `countnet --metrics`). *)

let json_int_array a =
  "[" ^ String.concat ", " (Array.to_list (Array.map string_of_int a)) ^ "]"

let sum = Array.fold_left ( + ) 0

let per_layer ~layers values =
  let depth = Array.fold_left max 0 layers in
  let acc = Array.make depth 0 in
  Array.iteri (fun b v -> acc.(layers.(b) - 1) <- acc.(layers.(b) - 1) + v) values;
  acc

(* Typed per-layer stall profile straight off the sink banks: the
   fabric's auto-tuner polls this between batches, so it must not pay
   for the full snapshot (crossings, exits, latency reservoir merge) —
   and it must never have to re-parse its own JSON. *)
let layer_stalls (m : t) ~layers =
  if Array.length layers <> m.balancers then
    invalid_arg "Metrics.layer_stalls: layers length must equal balancer count";
  let per_b = Array.make m.balancers 0 in
  Array.iter
    (fun (sk : sink) ->
      for b = 0 to m.balancers - 1 do
        per_b.(b) <- per_b.(b) + Padded_atomic.get sk.stalls b
      done)
    m.sinks;
  per_layer ~layers per_b

let to_json ?layers s =
  let b = Buffer.create 1024 in
  let field last fmt = Printf.ksprintf (fun str -> Buffer.add_string b ("  " ^ str ^ (if last then "\n" else ",\n"))) fmt in
  Buffer.add_string b "{\n";
  field false "\"schema_version\": %d" s.version;
  field false "\"source\": %S" s.source;
  field false "\"balancers\": %d" s.balancers;
  field false "\"wires\": %d" s.wires;
  field false "\"tokens\": %d" s.tokens;
  field false "\"antitokens\": %d" s.antitokens;
  field false "\"total_crossings\": %d" (sum s.crossings);
  field false "\"total_stalls\": %d" (sum s.stalls);
  field false "\"per_balancer_crossings\": %s" (json_int_array s.crossings);
  field false "\"per_balancer_stalls\": %s" (json_int_array s.stalls);
  field false "\"per_wire_exits\": %s" (json_int_array s.exits);
  (match layers with
  | Some layers when Array.length layers = Array.length s.crossings ->
      field false "\"per_layer_crossings\": %s" (json_int_array (per_layer ~layers s.crossings));
      field false "\"per_layer_stalls\": %s" (json_int_array (per_layer ~layers s.stalls))
  | _ -> ());
  (match s.latency with
  | None -> field true "\"latency\": null"
  | Some l ->
      field true
        "\"latency\": { \"unit\": %S, \"observed\": %d, \"kept\": %d, \"p50\": %.1f, \"p95\": \
         %.1f, \"p99\": %.1f, \"max\": %.1f, \"mean\": %.1f }"
        l.time_unit l.observed l.kept l.p50 l.p95 l.p99 l.max l.mean);
  Buffer.add_string b "}\n";
  Buffer.contents b
