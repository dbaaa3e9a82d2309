module T = Cn_network.Topology
module B = Cn_network.Balancer
module V = Cn_runtime.Validator
module Sequence = Cn_sequence.Sequence
module A = Instrumented

type t = {
  input_width : int;
  output_width : int;
  entry : int array; (* encoded dests, like Network_runtime *)
  order : int array; (* topological: the count walk's visit order *)
  crossover : int; (* Network_runtime's *)
  next : int array array;
  fan_out : int array;
  states : int A.t array;
  values : int A.t array;
  mutable tokens : int;
  mutable antitokens : int;
      (* bumped when a traversal STARTS; plain fields are fine (one OS
         thread) and the start/exit gap is exactly what lets the
         conservation check witness an unquiesced validation *)
  mutable validations : (int array * bool) list; (* newest first *)
}

let compile net =
  let n = T.size net in
  let descriptors = Array.init n (T.balancer net) in
  let fan_out = Array.map (fun d -> d.B.fan_out) descriptors in
  let w = T.wiring net in
  {
    input_width = T.input_width net;
    output_width = T.output_width net;
    entry = w.T.entry;
    order = w.T.order;
    crossover = Cn_runtime.Network_runtime.batch_crossover net;
    next = Array.init n (fun b -> Array.sub w.T.next w.T.base.(b) fan_out.(b));
    fan_out;
    states = Array.map (fun d -> A.make d.B.init_state) descriptors;
    values = Array.init (T.output_width net) (fun i -> A.make i);
    tokens = 0;
    antitokens = 0;
    validations = [];
  }

let input_width t = t.input_width
let output_width t = t.output_width
let port_of s q = ((s mod q) + q) mod q

(* Same crossing semantics as the runtime's Faa mode: a token keys its
   port off the pre-increment state, an antitoken off the
   post-decrement state. *)
let rec walk t step dest =
  if dest >= 0 then begin
    let s = A.fetch_and_add t.states.(dest) step in
    let s = if step < 0 then s - 1 else s in
    walk t step t.next.(dest).(port_of s t.fan_out.(dest))
  end
  else dest

let traverse t ~wire =
  t.tokens <- t.tokens + 1;
  let out = -walk t 1 t.entry.(wire) - 1 in
  A.fetch_and_add t.values.(out) t.output_width

let traverse_decrement t ~wire =
  t.antitokens <- t.antitokens + 1;
  let out = -walk t (-1) t.entry.(wire) - 1 in
  A.fetch_and_add t.values.(out) (-t.output_width) - t.output_width

(* The count walk of Network_runtime.traverse_batch, written plainly:
   one schedulable fetch-and-add of +-k per balancer reached, in
   topological order, the k tokens spread one by one over the ports
   from the returned state; one of +-c*t per exit wire reached; the
   values handed out sorted, ascending for tokens. *)
let count_walk t ~wire ~n ~anti ~f =
  let sign = if anti then -1 else 1 in
  let at = Array.make (Array.length t.states) 0 in
  let exits = Array.make t.output_width 0 in
  let reach d c = if d >= 0 then at.(d) <- at.(d) + c else exits.(-d - 1) <- exits.(-d - 1) + c in
  reach t.entry.(wire) n;
  Array.iter
    (fun b ->
      let k = at.(b) in
      if k > 0 then begin
        let s = A.fetch_and_add t.states.(b) (sign * k) in
        let first = if anti then s - k else s in
        for j = 0 to k - 1 do
          reach t.next.(b).(port_of (first + j) t.fan_out.(b)) 1
        done
      end)
    t.order;
  let tw = t.output_width in
  let values = ref [] in
  Array.iteri
    (fun o c ->
      if c > 0 then begin
        let v = A.fetch_and_add t.values.(o) (sign * c * tw) in
        for j = 0 to c - 1 do
          values := (if anti then v - ((j + 1) * tw) else v + (j * tw)) :: !values
        done
      end)
    exits;
  List.iteri f (List.sort (fun a b -> sign * compare a b) !values)

let traverse_batch t ~wire ~n ~f =
  if n < t.crossover then
    for i = 0 to n - 1 do
      f i (traverse t ~wire)
    done
  else begin
    t.tokens <- t.tokens + n;
    count_walk t ~wire ~n ~anti:false ~f
  end

let traverse_batch_decrement t ~wire ~n ~f =
  if n < t.crossover then
    for i = 0 to n - 1 do
      f i (traverse_decrement t ~wire)
    done
  else begin
    t.antitokens <- t.antitokens + n;
    count_walk t ~wire ~n ~anti:true ~f
  end

(* Network_runtime.peek: every balancer state and the exit cell read,
   nothing written. *)
let peek t ~wire =
  let rec go dest =
    if dest >= 0 then go t.next.(dest).(port_of (A.get t.states.(dest)) t.fan_out.(dest)) else dest
  in
  A.get t.values.(-go t.entry.(wire) - 1)

let exit_distribution t =
  Array.init t.output_width (fun i ->
      (A.get t.values.(i) - i) / t.output_width)

let net_count t = Sequence.sum (exit_distribution t)

let quiescent t =
  let dist = exit_distribution t in
  let expected = t.tokens - t.antitokens in
  let report =
    {
      V.subject = "model network quiescence";
      checks =
        [
          {
            V.name = "step-property";
            ok = Sequence.is_step dist;
            detail = Sequence.to_string dist;
          };
          {
            V.name = "conservation";
            ok = Sequence.sum dist = expected;
            detail =
              Printf.sprintf "exited %d, tokens - antitokens = %d"
                (Sequence.sum dist) expected;
          };
        ];
    }
  in
  t.validations <- (dist, V.passed report) :: t.validations;
  report

let tokens t = t.tokens
let antitokens t = t.antitokens
let validations t = List.rev t.validations
let last_validation t = match t.validations with [] -> None | x :: _ -> Some x
