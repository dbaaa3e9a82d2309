(** A miniature network runtime over {!Instrumented} atomics — the
    [RUNTIME] argument the checker feeds to {!Cn_service.Service_core.Make}.

    Semantically it is {!Cn_runtime.Network_runtime} in [Faa] mode with
    every padding and metrics concern stripped: the same encoded-dest
    walk, the same symmetric-modulo port arithmetic, the same
    [values.(i) = i, i + t, ...] exit tallies.  Every balancer crossing
    and exit bump is a scheduler decision point, so a traversal that
    races a drain's validation read is an interleaving the explorer
    actually visits.

    Beyond the [RUNTIME] surface it records the evidence the scenario
    oracles check: a count of tokens and antitokens that {e started}
    traversing, and the distribution observed by every quiescent
    validation. *)

type t

val compile : Cn_network.Topology.t -> t

val input_width : t -> int
val output_width : t -> int
val traverse : t -> wire:int -> int
val traverse_decrement : t -> wire:int -> int
val traverse_batch : t -> wire:int -> n:int -> f:(int -> int -> unit) -> unit
(** The model of [Network_runtime.traverse_batch]: below the same
    crossover, one schedulable crossing at a time; from it on, the
    count walk, one schedulable fetch-and-add per balancer and per exit
    wire the batch reaches. *)

val traverse_batch_decrement : t -> wire:int -> n:int -> f:(int -> int -> unit) -> unit
(** Batched antitoken runs — the model analogue of
    [Network_runtime.traverse_batch_decrement], with the same two
    walks. *)

val peek : t -> wire:int -> int
(** The model of [Network_runtime.peek]: one schedulable read per
    balancer on the path and one of the exit cell, no write. *)

val quiescent : t -> Cn_runtime.Validator.report
(** Step-property plus token-conservation checks on the current exit
    distribution, reading through instrumented atomics (the reads are
    schedulable, like the real validator's).  Every call is recorded for
    {!validations}. *)

val net_count : t -> int
(** The summed {!exit_distribution}, reading through instrumented
    atomics: what the service checks its net count against at a
    validated quiescence point. *)

val exit_distribution : t -> int array
(** Tokens handed out per output wire.  Reads are silent outside an
    engine execution, so oracles can call this on the final state. *)

val tokens : t -> int
(** Traversals started with {!traverse} / {!traverse_batch}. *)

val antitokens : t -> int
(** Traversals started with {!traverse_decrement}. *)

val validations : t -> (int array * bool) list
(** Every {!quiescent} call, oldest first: the distribution it observed
    and whether its checks passed. *)

val last_validation : t -> (int array * bool) option
