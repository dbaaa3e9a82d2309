module T = Cn_network.Topology
module B = Cn_network.Balancer
module V = Cn_runtime.Validator
module Sequence = Cn_sequence.Sequence
module A = Instrumented

type t = {
  input_width : int;
  output_width : int;
  entry : int array; (* encoded dests, like Network_runtime *)
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

let traverse_batch t ~wire ~n ~f =
  for i = 0 to n - 1 do
    f i (traverse t ~wire)
  done

let traverse_batch_decrement t ~wire ~n ~f =
  for i = 0 to n - 1 do
    f i (traverse_decrement t ~wire)
  done

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
