(** [(p, q)]-balancers: the asynchronous switches balancing networks are
    built from (paper, Section 1.1 and 2.2).

    A [(p, q)]-balancer accepts tokens on [p] input wires and forwards the
    [i]-th token it processes to output wire [(s0 + i) mod q], where [s0]
    is its initial state.  The descriptor here is purely combinatorial;
    the concurrent implementation lives in [Cn_runtime]. *)

type t = private { fan_in : int; fan_out : int; init_state : int }
(** Descriptor of a [(fan_in, fan_out)]-balancer whose first processed
    token leaves on wire [init_state]. *)

val make : ?init_state:int -> fan_in:int -> fan_out:int -> unit -> t
(** [make ~fan_in ~fan_out ()] is a [(fan_in, fan_out)]-balancer.
    [init_state] defaults to [0].
    @raise Invalid_argument if [fan_in <= 0], [fan_out <= 0], or
    [init_state] is outside [\[0, fan_out)]. *)

val is_regular : t -> bool
(** [is_regular b] holds iff [b.fan_in = b.fan_out] (paper: regular
    balancer). *)

val wire_of_kth_token : t -> int -> int
(** [wire_of_kth_token b k] is the output wire of the [k]-th token
    (0-based) processed by [b] starting from its initial state:
    [(init_state + k) mod fan_out].
    @raise Invalid_argument if [k < 0]. *)

val output_counts : t -> tokens:int -> Cn_sequence.Sequence.t
(** [output_counts b ~tokens] is the output sequence of [b] in a
    quiescent state after processing [tokens] tokens from its initial
    state.  The result always satisfies a rotated step property; it is a
    step sequence when [init_state = 0].
    @raise Invalid_argument if [tokens < 0]. *)

val output_count : t -> tokens:int -> int -> int
(** [output_count b ~tokens port] is entry [port] of
    [output_counts b ~tokens], in closed form without the array: the
    number of tokens among the first [tokens] that [b] sends to [port].
    @raise Invalid_argument if [tokens < 0] or [port] is outside
    [\[0, fan_out)]. *)

val share : t -> quotient:int -> remainder:int -> int -> int
(** [share b ~quotient ~remainder port] is [output_count b ~tokens port]
    given the split [quotient = tokens / fan_out], [remainder = tokens
    mod fan_out] of a non-negative [tokens]: [quotient], plus one when
    [(port - init_state) mod fan_out < remainder].  Evaluating a whole
    balancer costs one division, however many ports it has.  Unchecked:
    [port] must lie in [\[0, fan_out)]. *)

val state_after : t -> tokens:int -> int
(** [state_after b ~tokens] is the balancer state after [tokens]
    transitions: [(init_state + tokens) mod fan_out].
    @raise Invalid_argument if [tokens < 0]. *)

val net_output_counts : t -> net:int -> Cn_sequence.Sequence.t
(** [net_output_counts b ~net] is the per-wire *net* token flow (tokens
    minus antitokens) out of [b] in a quiescent state whose inputs
    netted to [net] tokens, which may be negative.  An antitoken undoes
    a token: it decrements the balancer state and exits on the wire the
    state now indexes, so any interleaving of [k] tokens and [j]
    antitokens nets to the same flow as [|k - j|] (anti)tokens alone
    (Aiello et al., “Supporting increment and decrement operations in
    balancing networks”). *)

val net_output_count : t -> net:int -> int -> int
(** [net_output_count b ~net port] is entry [port] of
    [net_output_counts b ~net], without the array.
    @raise Invalid_argument if [port] is outside [\[0, fan_out)]. *)

val state_after_net : t -> net:int -> int
(** [state_after_net b ~net] is the balancer state after a quiescent
    mixed run netting [net]: [(init_state + net) mod fan_out],
    normalized into [\[0, fan_out)]. *)

val equal : t -> t -> bool
(** Structural equality of descriptors. *)

val pp : Format.formatter -> t -> unit
(** Prints as [(p,q)@s] ([@s] omitted when the initial state is 0). *)
