(** Quiescent-state evaluation of balancing networks (paper, Section 2.2).

    Two evaluators are provided: a closed-form one that pushes token
    *counts* through the network in topological order, and a token-level
    stepper that moves individual tokens under an arbitrary interleaving.
    In any quiescent state both agree — balancer outputs depend only on
    the number of tokens that crossed them — which is itself a tested
    property.

    The closed-form evaluators walk {!Topology.wiring} once, in
    topological order: one division per balancer (see
    {!Balancer.share}), no allocation per port, and the only arrays they
    allocate are the per-balancer totals and the output sequence.  A
    balancer no token reaches is skipped, so a sparse load costs the
    balancers it reaches. *)

val quiescent : Topology.t -> Cn_sequence.Sequence.t -> Cn_sequence.Sequence.t
(** [quiescent net x] is the output sequence of [net] in the quiescent
    state reached after [x.(i)] tokens have entered on each input wire
    [i].  @raise Invalid_argument if [x] has the wrong length or a
    negative entry. *)

val quiescent_full :
  Topology.t -> Cn_sequence.Sequence.t -> Cn_sequence.Sequence.t * int array
(** [quiescent_full net x] additionally returns the final state of every
    balancer (by balancer id). *)

val trace :
  ?seed:int -> Topology.t -> Cn_sequence.Sequence.t -> Cn_sequence.Sequence.t
(** [trace ~seed net x] evaluates by moving one token at a time under a
    pseudo-random interleaving drawn from [seed] (default 0): all tokens
    are injected, then repeatedly a random in-flight token crosses its
    current balancer.  The quiescent result equals [quiescent net x]
    regardless of [seed]. *)

val quiescent_net : Topology.t -> Cn_sequence.Sequence.t -> Cn_sequence.Sequence.t
(** [quiescent_net net x] is the *net* output flow (tokens minus
    antitokens per wire) after a quiescent mixed execution whose net
    input flow was [x] — entries may be negative.  By the
    token/antitoken cancellation theorem (Aiello et al.; paper,
    Section 1.4.2) the result depends only on the net input counts, and
    for a counting network it satisfies the step property whenever the
    per-wire nets would in an all-token run (validated against
    {!trace_signed} in the test suite). *)

val trace_signed :
  ?seed:int ->
  Topology.t ->
  tokens:Cn_sequence.Sequence.t ->
  antitokens:Cn_sequence.Sequence.t ->
  Cn_sequence.Sequence.t
(** [trace_signed net ~tokens ~antitokens] runs a token-level execution
    interleaving [tokens.(i)] tokens and [antitokens.(i)] antitokens on
    each input wire [i] under a pseudo-random schedule, and returns the
    net flow per output wire.  Agrees with
    [quiescent_net net (tokens - antitokens)] for every seed. *)

val token_run : Topology.t -> int list -> (int * int) list
(** [token_run net entries] shepherds tokens *sequentially* — token [j]
    fully traverses the network before token [j+1] enters — where token
    [j] enters on input wire [List.nth entries j].  Returns, in entry
    order, [(exit_wire, counter_value)] for each token, with counter
    values assigned by the standard output-wire scheme: wire [i] hands
    out [i, i + t, i + 2t, ...] (paper, Section 1.1 and Fig. 1).
    @raise Invalid_argument on an out-of-range entry wire. *)

val counter_values : Topology.t -> int list -> int list
(** [counter_values net entries = List.map snd (token_run net entries)]. *)
