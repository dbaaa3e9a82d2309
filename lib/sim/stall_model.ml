module Topology = Cn_network.Topology
module Balancer = Cn_network.Balancer

type pstate = Waiting of int | Done

type op = { pid : int; invoke : int; response : int; value : int; stalls : int }

(* Wiring is precompiled once at [create] into flat jump tables — the
   same CSR encoding as [Cn_runtime.Network_runtime] — so [fire] and
   [inject], the simulation's hot path, never query the topology.
   Destinations are encoded as ints: a non-negative value is a balancer
   id; a negative value [-(wire + 1)] is a network output wire. *)

type t = {
  net : Topology.t;
  entry : int array; (* per input wire: encoded destination *)
  next : int array; (* CSR: port p of balancer b at offsets.(b) + p *)
  offsets : int array; (* CSR row starts; length (size net) + 1 *)
  bal_states : int array;
  queues : int Queue.t array; (* waiting processes per balancer, FIFO *)
  pstates : pstate array;
  quota : int array; (* tokens still to inject per process, excluding the in-flight one *)
  mutable total_stalls : int;
  mutable completed : int;
  mutable injected : int;
  tokens : int;
  stalls_at : int array;
  crossings_at : int array; (* balancer transitions, the sim's "crossings" *)
  out_counts : int array;
  mutable clock : int; (* logical time: one tick per balancer transition *)
  invoke_at : int array; (* per process: injection time of in-flight token *)
  mutable history : op list; (* completed ops, most recent first *)
  mutable fired : int list; (* fired process ids, most recent first *)
  received : int array; (* stalls received by each process's current token *)
}

(* Entry point of process [p]: the consumer of network input wire
   [p mod w].  A bare wire (no balancer) means the token exits
   immediately. *)
let rec inject s p =
  s.injected <- s.injected + 1;
  s.invoke_at.(p) <- s.clock;
  let w = Array.length s.entry in
  let dest = s.entry.(p mod w) in
  if dest >= 0 then begin
    Queue.add p s.queues.(dest);
    s.pstates.(p) <- Waiting dest
  end
  else exit_token s p (-dest - 1)

and exit_token s p wire =
  let value = wire + (s.out_counts.(wire) * Array.length s.out_counts) in
  s.history <-
    { pid = p; invoke = s.invoke_at.(p); response = s.clock; value; stalls = s.received.(p) }
    :: s.history;
  s.received.(p) <- 0;
  s.out_counts.(wire) <- s.out_counts.(wire) + 1;
  s.completed <- s.completed + 1;
  if s.quota.(p) > 0 then begin
    s.quota.(p) <- s.quota.(p) - 1;
    inject s p
  end
  else s.pstates.(p) <- Done

let create net ~concurrency ~tokens =
  if concurrency <= 0 then invalid_arg "Stall_model.create: concurrency must be positive";
  if tokens < 0 then invalid_arg "Stall_model.create: negative token count";
  let n = Topology.size net in
  (* One topology pass for the descriptors; the flattened jump tables
     are the wiring image the topology recorded, shared read-only. *)
  let descriptors = Array.init n (Topology.balancer net) in
  let { Topology.base = offsets; next; entry; _ } = Topology.wiring net in
  let s =
    {
      net;
      entry;
      next;
      offsets;
      bal_states = Array.map (fun d -> d.Balancer.init_state) descriptors;
      queues = Array.init n (fun _ -> Queue.create ());
      pstates = Array.make concurrency Done;
      quota = Array.make concurrency 0;
      total_stalls = 0;
      completed = 0;
      injected = 0;
      tokens;
      stalls_at = Array.make n 0;
      crossings_at = Array.make n 0;
      out_counts = Array.make (Topology.output_width net) 0;
      clock = 0;
      invoke_at = Array.make concurrency 0;
      history = [];
      fired = [];
      received = Array.make concurrency 0;
    }
  in
  (* Distribute [tokens] across processes: the first [tokens mod
     concurrency] processes get one extra. *)
  for p = 0 to concurrency - 1 do
    let share = (tokens / concurrency) + (if p < tokens mod concurrency then 1 else 0) in
    if share > 0 then begin
      s.quota.(p) <- share - 1;
      inject s p
    end
  done;
  s

let concurrency s = Array.length s.pstates

let finished s = s.completed >= s.tokens

let waiting_processes s =
  let acc = ref [] in
  for p = Array.length s.pstates - 1 downto 0 do
    match s.pstates.(p) with Waiting _ -> acc := p :: !acc | Done -> ()
  done;
  !acc

let is_waiting s p = match s.pstates.(p) with Waiting _ -> true | Done -> false

let balancer_of s p =
  match s.pstates.(p) with
  | Waiting b -> b
  | Done -> invalid_arg "Stall_model.balancer_of: process is not waiting"

let queue_length s b = Queue.length s.queues.(b)

let crowded_balancer s =
  let best = ref (-1) and best_len = ref 0 in
  Array.iteri
    (fun b q ->
      let len = Queue.length q in
      if len > !best_len then begin
        best := b;
        best_len := len
      end)
    s.queues;
  if !best < 0 then None else Some !best

let process_at s b = Queue.peek_opt s.queues.(b)

let fire s p =
  match s.pstates.(p) with
  | Done -> invalid_arg "Stall_model.fire: process is not waiting"
  | Waiting b ->
      (* Remove [p] from the queue of [b] (it may not be at the head if
         the scheduler chose a later arrival to win the balancer). *)
      let q = s.queues.(b) in
      let others = Queue.length q - 1 in
      let keep = Queue.create () in
      Queue.iter (fun x -> if x <> p then Queue.add x keep) q;
      Queue.clear q;
      Queue.transfer keep q;
      s.total_stalls <- s.total_stalls + others;
      s.stalls_at.(b) <- s.stalls_at.(b) + others;
      s.crossings_at.(b) <- s.crossings_at.(b) + 1;
      (* Charge one stall to every other token waiting at [b]. *)
      Queue.iter (fun x -> if x <> p then s.received.(x) <- s.received.(x) + 1) q;
      s.clock <- s.clock + 1;
      s.fired <- p :: s.fired;
      let base = s.offsets.(b) in
      let fan_out = s.offsets.(b + 1) - base in
      let port = s.bal_states.(b) in
      s.bal_states.(b) <- (port + 1) mod fan_out;
      let dest = s.next.(base + port) in
      if dest >= 0 then begin
        Queue.add p s.queues.(dest);
        s.pstates.(p) <- Waiting dest
      end
      else exit_token s p (-dest - 1)

let total_stalls s = s.total_stalls
let completed_tokens s = s.completed
let injected_tokens s = s.injected
let stalls_at_balancer s b = s.stalls_at.(b)
let crossings_at_balancer s b = s.crossings_at.(b)

let stalls_per_layer s =
  let d = Topology.depth s.net in
  let per = Array.make d 0 in
  Array.iteri
    (fun b stalls ->
      let l = Topology.balancer_depth s.net b - 1 in
      per.(l) <- per.(l) + stalls)
    s.stalls_at;
  per

let output_counts s = Array.copy s.out_counts

let history s = Array.of_list (List.rev s.history)

let fire_trace s = Array.of_list (List.rev s.fired)

(* The simulator's view in the runtime's snapshot type: logical-time
   latencies (response - invoke, in balancer-transition ticks) over the
   complete history rather than a sampled reservoir.  The sim has no
   antitokens, so the net exits are just the output counts. *)
let snapshot s =
  let module M = Cn_runtime.Metrics in
  let lats =
    Array.map (fun (op : op) -> float_of_int (op.response - op.invoke)) (history s)
  in
  {
    M.version = M.schema_version;
    source = "sim";
    balancers = Topology.size s.net;
    wires = Array.length s.out_counts;
    tokens = s.completed;
    antitokens = 0;
    crossings = Array.copy s.crossings_at;
    stalls = Array.copy s.stalls_at;
    exits = Array.copy s.out_counts;
    latency = M.percentiles ~time_unit:"ticks" lats;
  }
