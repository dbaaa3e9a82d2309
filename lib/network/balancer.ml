type t = { fan_in : int; fan_out : int; init_state : int }

let make ?(init_state = 0) ~fan_in ~fan_out () =
  if fan_in <= 0 then invalid_arg "Balancer.make: fan_in <= 0";
  if fan_out <= 0 then invalid_arg "Balancer.make: fan_out <= 0";
  if init_state < 0 || init_state >= fan_out then
    invalid_arg "Balancer.make: init_state out of range";
  { fan_in; fan_out; init_state }

let is_regular b = b.fan_in = b.fan_out

let wire_of_kth_token b k =
  if k < 0 then invalid_arg "Balancer.wire_of_kth_token: negative index";
  (b.init_state + k) mod b.fan_out

let check_port fn b port =
  if port < 0 || port >= b.fan_out then invalid_arg (fn ^ ": port out of range")

(* Token [k] leaves on wire [(init_state + k) mod q], so of [T] tokens
   wire [port] receives [⌊T/q⌋], plus one when its offset
   [(port - init_state) mod q] is below [T mod q]. *)
let share b ~quotient ~remainder port =
  let d = port - b.init_state in
  let d = if d < 0 then d + b.fan_out else d in
  if d < remainder then quotient + 1 else quotient

let output_count b ~tokens port =
  if tokens < 0 then invalid_arg "Balancer.output_count: negative token count";
  check_port "Balancer.output_count" b port;
  share b ~quotient:(tokens / b.fan_out) ~remainder:(tokens mod b.fan_out) port

let output_counts b ~tokens =
  if tokens < 0 then invalid_arg "Balancer.output_counts: negative token count";
  Array.init b.fan_out (output_count b ~tokens)

let state_after b ~tokens =
  if tokens < 0 then invalid_arg "Balancer.state_after: negative token count";
  (b.init_state + tokens) mod b.fan_out

let net_output_count b ~net port =
  if net >= 0 then output_count b ~tokens:net port
  else begin
    check_port "Balancer.net_output_count" b port;
    let q = b.fan_out in
    (* The i-th antitoken (1-based) exits on wire (init_state - i) mod q,
       each contributing -1 to its wire's net flow.  The indices hitting
       [port] are i ≡ d (mod q), i >= 1; count those with i <= -net. *)
    let d = ((b.init_state - port) mod q + q) mod q in
    let d = if d = 0 then q else d in
    if -net >= d then -(((-net - d) / q) + 1) else 0
  end

let net_output_counts b ~net = Array.init b.fan_out (net_output_count b ~net)

let state_after_net b ~net = (((b.init_state + net) mod b.fan_out) + b.fan_out) mod b.fan_out

let equal a b = a = b

let pp ppf b =
  if b.init_state = 0 then Format.fprintf ppf "(%d,%d)" b.fan_in b.fan_out
  else Format.fprintf ppf "(%d,%d)@@%d" b.fan_in b.fan_out b.init_state
