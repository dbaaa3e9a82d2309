(** Shared-memory execution of balancing networks on OCaml 5 multicore
    (paper, Section 1.2).

    Each balancer is one shared memory word holding its state; wires are
    precompiled jump tables.  Tokens are traversals performed by domains;
    each output wire [i] carries an assignment cell handing out the values
    [i, i + t, i + 2t, ...] so a full traversal implements
    [Fetch&Increment] on a distributed counter.

    Two balancer implementations are provided: [Faa] uses
    [Atomic.fetch_and_add] (wait-free, fastest) and [Cas] uses a
    compare-and-set retry loop with bounded exponential backoff whose
    contended crossings are counted — the runtime analogue of the stall
    accounting in [Cn_sim].

    {2 Memory layout}

    There is one layout, built for the hardware the paper's contention
    bounds care about: balancer states and assignment cells live in
    {!Padded_atomic} banks (one cache line per slot, no false sharing
    between adjacent balancers), and the wiring is a flat CSR-style jump
    table — crossing a balancer reads one adjacent routing-table pair
    and one [next] entry, with no nested-array pointer chase.

    {2 Precompiled routing}

    [compile] bakes every routing decision into flat tables: the
    Lemma 5.3 bit-reversal wiring of the butterfly blocks becomes plain
    [next] entries, and each balancer's port-selection strategy — the
    mask [fan_out - 1] for power-of-two fan-outs, the symmetric
    double-[mod] otherwise — is chosen once at compile time and stored
    in a stride-2 routing table, so no walk loop re-tests or re-derives
    anything per crossing.

    {2 Allocation}

    Traversals are GC-free: with metrics off, {!traverse},
    {!traverse_decrement}, {!peek} and the batch walks, per token and
    as counts, allocate zero words per token (the crossing functions
    are top-level, the walks are loops over preallocated int arrays);
    with metrics on, recording goes to preallocated sharded counters
    and an unboxed nanosecond reservoir, so the metered paths are
    allocation-free too.  The test suite pins both claims with
    [Gc.minor_words] deltas. *)

type mode = Faa | Cas
(** Balancer implementation: atomic fetch-and-add, or an instrumented
    CAS retry loop. *)

type t
(** A compiled network ready for concurrent traversals. *)

val compile : ?mode:mode -> ?metrics:bool -> Cn_network.Topology.t -> t
(** [compile net] builds the runtime representation (default mode
    [Faa]).  The topology is queried once per balancer.  With
    [~metrics:true] the runtime carries a {!Metrics}
    recorder (per-balancer crossing/stall counters, per-wire tallies,
    sampled token latency) reachable through {!metrics}; without it
    (the default) the traversal paths are exactly the uninstrumented
    ones. *)

val mode : t -> mode
(** Implementation mode chosen at compile time. *)

val metrics : t -> Metrics.t option
(** The observability recorder, when compiled with [~metrics:true].
    Take a {!Metrics.snapshot} at quiescence; [Validator.quiescent_runtime]
    cross-checks it against the assignment cells. *)

val input_width : t -> int
(** Network input width [w]. *)

val output_width : t -> int
(** Network output width [t]. *)

val traverse : t -> wire:int -> int
(** [traverse rt ~wire] shepherds one token from input wire [wire]
    through the network and returns the counter value assigned at its
    exit wire.  Thread-safe; called concurrently from many domains.
    @raise Invalid_argument if [wire] is out of range. *)

val traverse_batch : t -> wire:int -> n:int -> f:(int -> int -> unit) -> unit
(** [traverse_batch rt ~wire ~n ~f] shepherds [n] tokens from input
    wire [wire], calling [f i value] with each token's index and
    assigned counter value, in index order.  The bounds check and mode
    dispatch are paid once for the whole batch.

    {b Below the crossover} ([n < batch_crossover net]) the tokens walk
    one after the other, exactly as [n] calls to {!traverse}.

    {b From the crossover on} the batch walks as counts: it visits the
    balancers in {!Cn_network.Topology.wiring}'s topological order, and
    each balancer [k] of its tokens reach takes one transition of [+k]
    (one fetch-and-add, or one CAS) from state [s] and sends one token
    to each of the ports [(s + j) mod q], [j < k]; each output wire
    its [c] tokens reach takes one fetch-and-add of [c * t].  The
    values are handed to [f] in ascending order.  This is legal: a
    balancer's outputs depend only on how many tokens reach it, so the
    walk is the execution of [n] tokens in which every balancer sees
    the batch's tokens back to back, and each balancer is visited only
    after every balancer that feeds it.  Run alone, the batch leaves
    the balancer states and exit cells [n] {!traverse} calls would
    leave; on a counting network it also returns, per index, the
    values they would return (sequential tokens count up).  Under
    concurrency it is one legal execution, like any other
    interleaving.  It costs at most one atomic per balancer and per
    output wire instead of [depth + 1] per token; the crossover,
    [n * depth >= 2 * size], is where that starts to pay.

    In [Cas] mode a contended visit counts as one stall, as a contended
    crossing does.  With metrics on, a visit records [k] crossings and
    an exit wire [c] exits; the batch takes no latency sample.  The
    count walk allocates nothing: its scratch is the calling domain's
    ({!Domain.DLS}), sized on first use, and a batch that starts on
    the same domain while one is in progress (from its [f], or from
    another thread of the domain) walks per token.

    An exception raised by [f i v] propagates.  Below the crossover the
    tokens [0..i] have then entered the network and no later one has.
    From the crossover on all [n] tokens were counted before the first
    [f] call, so the values of the indices after [i] are taken and
    never handed out: the counter skips them.
    @raise Invalid_argument if [wire] is out of range or [n < 0]. *)

val traverse_batch_decrement : t -> wire:int -> n:int -> f:(int -> int -> unit) -> unit
(** [traverse_batch_decrement rt ~wire ~n ~f] shepherds [n] antitokens
    from input wire [wire] (see {!traverse_decrement}), calling
    [f i value] with each antitoken's index and reclaimed value.  The
    batched analogue of {!traverse_decrement}, used by the service layer
    to drain elimination-remainder decrement runs.  It walks as counts
    from the same crossover as {!traverse_batch}: a balancer reached by
    [k] antitokens from state [s] takes [-k] and sends them to ports
    [(s - k + j) mod q], each output wire takes [-c * t], and the
    reclaimed values are handed out in descending order.  A raising
    [f] behaves as in {!traverse_batch}: from the crossover on, the
    values of the later indices are reclaimed and never handed out.
    @raise Invalid_argument if [wire] is out of range or [n < 0]. *)

val batch_crossover : Cn_network.Topology.t -> int
(** The smallest batch {!traverse_batch} and
    {!traverse_batch_decrement} walk as counts on a runtime compiled
    from this topology: the least [n] with [n * depth >= 2 * size] (at
    least [1]).  16 on [C(16,16)]. *)

val peek : t -> wire:int -> int
(** [peek rt ~wire] walks from input wire [wire] reading, never
    writing: at each balancer it follows the port a token would take
    from the current state, and it returns the exit cell's current
    value.  That is the value of a token followed at once by its
    antitoken: the pair takes the same port at every balancer and
    restores its state, so the lockstep execution writes nothing and
    both return this value.  The service hands it to a perfectly
    matched batch.  Allocates nothing and records no metrics.
    @raise Invalid_argument if [wire] is out of range. *)

val traverse_decrement : t -> wire:int -> int
(** [traverse_decrement rt ~wire] shepherds one *antitoken* from input
    wire [wire]: every balancer state is decremented instead of
    incremented, undoing one token (Aiello et al.; paper,
    Section 1.4.2), and the assignment cell at the exit wire is rolled
    back by [t].  Returns the value given back to the counter — the
    value the next token exiting that wire will receive.  Sequentially,
    [traverse] after [traverse_decrement] returns the same value the
    antitoken reclaimed, implementing [Fetch&Decrement].
    @raise Invalid_argument if [wire] is out of range. *)

val exit_distribution : t -> Cn_sequence.Sequence.t
(** [exit_distribution rt] is the number of tokens that have exited on
    each output wire so far (derived from the assignment cells);  a step
    sequence in any quiescent state of a counting network. *)

val net_count : t -> int
(** [net_count rt] is [Sequence.sum (exit_distribution rt)] — tokens
    minus antitokens exited so far — computed from the assignment cells
    in one pass with a single division and no allocation (the counter
    [Read] path of the service and the fabric).  Exact, including a
    negative net, because every cell moves in steps of [t]. *)

type view = {
  v_mode : mode;
  v_input_width : int;
  v_output_width : int;
  v_init_states : int array;  (** per balancer: initial state *)
  v_fan_out : int array;  (** per balancer: output arity (the port mask base) *)
  v_offsets : int array;  (** CSR row starts; length [n + 1] *)
  v_next : int array;
      (** flat CSR jump table: encoded destination of port [p] of
          balancer [b] at [v_offsets.(b) + p]; a non-negative entry is a
          balancer id, a negative entry [-(wire + 1)] is network output
          wire [wire] *)
  v_route : int array;
      (** stride-2 precompiled routing table: [v_route.(2b)] is balancer
          [b]'s CSR row base (= [v_offsets.(b)]), [v_route.(2b + 1)] its
          port strategy — [fan_out - 1] (a mask) when the fan-out is a
          power of two, [-fan_out] selecting the symmetric double-[mod]
          path otherwise *)
  v_entry : int array;  (** per input wire: encoded destination *)
}
(** A decompilable snapshot of the compiled representation: everything
    the walk loops read except the atomic state banks, as plain copied
    arrays.  This is the raw material of [Cn_lint]'s CSR-faithfulness
    pass — and, mutated, of its compiler-bug mutants. *)

val view : t -> view
(** [view rt] copies out the compiled wiring.  Mutating the result does
    not affect [rt]. *)

val cas_failures : t -> int
(** Total contended CAS crossings so far ([0] in [Faa] mode) — a lower
    bound on memory-contention events experienced by tokens.  A crossing
    that retries its CAS several times before winning counts once. *)

val reset : t -> unit
(** [reset rt] restores initial balancer states and assignment cells.
    Must not run concurrently with traversals. *)
