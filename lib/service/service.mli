(** A long-lived counting {e service} in front of a compiled network —
    the front-end for the paper's target regime of [n] processes sharing
    [w] input wires (Theorem 6.7's contention bounds assume exactly this
    many-clients-per-wire pressure).

    Instead of every caller picking a wire and traversing on its own,
    clients hold {!session}s pinned to input wires and the service runs
    a {e flat-combining} lane per wire:

    - a session's operation first tries to become the lane's combiner
      (one CAS); an uncontended lane degenerates to a plain
      per-operation traversal, so the service costs almost nothing when
      idle;
    - under contention, operations park in a bounded array of lock-free
      submission slots and the current combiner drains them into a
      single {!Network_runtime.traverse_batch} call — batch sizes adapt
      to the arrival rate, up to [max_batch] operations per batch;
    - a client that already holds several operations (a pipelined
      connection's frames) hands them over as one {!run}: one
      admission, one lane entry, one combined batch — the batching
      does not depend on arrivals overlapping in time;
    - pending [Fetch&Increment] / [Fetch&Decrement] operations in the
      same batch {e eliminate} in pairs using the antitoken semantics
      (paper, Section 1.4.2; Shavit-Zemach elimination): a token and an
      antitoken that would have cancelled inside the network instead
      pair off locally and never touch it.

    {2 Elimination value semantics}

    The network is quiescently consistent, not linearizable
    (Section 1.4.2), and elimination preserves exactly that contract.
    An eliminated pair borrows the value [v] of an {e anchor} operation
    that did traverse in the same batch: ordering the batch as
    [... anchor-inc(v) · elim-dec(v) · elim-inc(v) ...] is a valid
    sequential counter history (the decrement hands back [v], the
    increment immediately re-takes it), so both halves of the pair may
    return [v].  When a batch is perfectly matched (same number of
    increments and decrements), every pair is eliminated and the anchor
    is a read-only walk ({!Network_runtime.peek}): a token followed at
    once by its antitoken takes the same port at every balancer and
    restores it, so that lockstep pair writes no shared word, and [v]
    is the value it would return.  Such a batch does no network write
    at all, so a batch now can eliminate down to zero network work;
    [eliminated_pairs] keeps its meaning and does not count the anchor
    pair.

    {2 Backpressure and lifecycle}

    Each lane's slot array is bounded ([queue] slots); when it is full,
    submission fails fast with [Error Overloaded] instead of queueing
    unboundedly — the caller decides whether to retry, shed, or back
    off.  {!drain} stops admissions, helps every lane run dry, then
    checks {!Validator.quiescent_runtime} on the quiesced network and
    the service's {!net} count against the network's exits;
    {!shutdown} does the same and leaves the service closed
    ([Error Closed] thereafter).

    A [session] is owned by one domain at a time and carries at most one
    outstanding operation or run; distinct sessions are safe to use from
    distinct domains concurrently.

    {2 Checked concurrency}

    The protocol itself lives in {!Service_core.Make}, a functor over
    its atomic operations; this module is the instantiation with the
    real atomics.  The [Cn_check] library instantiates the same functor
    with instrumented atomics and model-checks the drain/shutdown and
    admission protocols over every bounded-preemption interleaving —
    see [make check-races]. *)

type t
(** A counting service: a compiled network plus one combining lane per
    input wire. *)

type session
(** A client handle pinned to one input wire. *)

type op = Inc | Dec
(** The two counter operations: [Fetch&Increment] (a token) and
    [Fetch&Decrement] (an antitoken). *)

type error =
  | Overloaded  (** The session's lane has no free submission slot. *)
  | Closed  (** The service is draining or shut down. *)

type stats = {
  wires : int;  (** number of lanes = input width [w] *)
  batches : int array;  (** per-wire combined batches executed *)
  ops_combined : int array;  (** per-wire operations served by batches *)
  max_batch_observed : int array;  (** per-wire largest batch seen *)
  eliminated_pairs : int array;  (** per-wire inc/dec pairs eliminated *)
  rejected : int array;  (** per-wire [Overloaded] rejections *)
  total_batches : int;
  total_ops : int;
  total_eliminated_pairs : int;
  total_rejected : int;
  mean_batch : float;  (** [total_ops /. total_batches] ([0.] if idle) *)
  elimination_rate : float;
      (** fraction of served operations that never entered the network:
          [2 * total_eliminated_pairs / total_ops] ([0.] if idle) *)
}
(** Cumulative combining statistics, readable at any time; exact at
    quiescence. *)

val create :
  ?mode:Cn_runtime.Network_runtime.mode ->
  ?metrics:bool ->
  ?max_batch:int ->
  ?queue:int ->
  ?elim:bool ->
  ?validate:Cn_runtime.Validator.policy ->
  Cn_network.Topology.t ->
  t
(** [create net] compiles [net] and builds a lane per input wire.
    [?mode] and [?metrics] pass through to {!Network_runtime.compile}.
    [?max_batch] (default [64]) bounds the operations one {!run}
    entry carries and the operations one combined batch serves
    (entries are taken whole, and a combiner leaves parked an entry
    that would carry its batch past [max_batch]); [?queue] (default [max_batch]) is the
    submission-slot count per lane; [?elim] (default [true]) enables
    inc/dec elimination; [?validate] (default [Strict]) is the policy
    {!drain} and {!shutdown} apply when not overridden.
    @raise Invalid_argument if [max_batch < 1] or [queue < 1]. *)

val runtime : t -> Cn_runtime.Network_runtime.t
(** The compiled network behind the service. *)

val input_width : t -> int
(** Input width [w] of the wrapped network (= number of lanes). *)

val layers : t -> int array
(** Per-balancer 1-based depth of the compiled network
    ([Topology.balancer_depth] captured at {!create}) — the layer map
    {!Cn_runtime.Metrics.per_layer} and {!Cn_runtime.Metrics.layer_stalls}
    consume. *)

val session : ?wire:int -> t -> session
(** [session t] registers a client, pinned round-robin over the input
    wires; [~wire] pins explicitly (useful to colocate inc/dec traffic
    so elimination can pair it).  Sessions may be created on a closed
    service; their operations just fail with [Error Closed].

    {b Ownership rule}: a session is single-owner state (its submission
    cell and outstanding flag are unsynchronized); at any moment at most
    one domain may be running an operation on it.  Two domains sharing a
    session corrupt the cell protocol — give each concurrent client its
    own session.
    @raise Invalid_argument if [wire] is out of range. *)

val session_wire : session -> int
(** The input wire this session is pinned to. *)

val max_batch : t -> int
(** The [max_batch] the service was created with: the most operations
    one {!run} entry carries. *)

val net : t -> int
(** [net t] is the service's counter value: increments minus decrements
    served so far, eliminated pairs included (they cancel).  Each lane
    keeps one padded word that only its combining-flag holder writes,
    with a plain load and store, and [net] sums them, so a read costs
    one load per input wire whatever the network's output width, and
    no two lanes write one cache line;
    {!Cn_runtime.Network_runtime.net_count} sums all [t] assignment
    cells instead.  Each combined batch adds its nonzero net to its
    lane's word after its traversals and before any of its operations
    returns (the one-operation fast path adds [±1] the same way), so a
    read that starts after an operation returned counts that
    operation; under churn it counts every operation that returned
    before the read began, and possibly some that complete during it.
    At quiescence it equals the runtime's net count, and {!drain} and
    {!shutdown} report that as their [net-agreement] check.
    Allocation-free. *)

val run :
  session -> op array -> int array -> off:int -> len:int -> (unit, int * error) result
(** [run s ops vals ~off ~len] performs the operations
    [ops.(off) .. ops.(off+len-1)] as one concurrent run and writes
    each one's value to the same index of [vals] — the batch entry a
    pipelining client (countnetd, one read of frames) uses instead of
    [len] separate calls.

    A run is admitted with one state check and one combining-flag CAS.
    The flag holder drains the run through the combiner together with
    any entries other sessions parked on the lane, so elimination
    covers the whole batch; when the flag is busy the run is published
    as {e one} lane entry (one cell, one completion flag) and the
    current combiner drains it whole.  A run of one keeps the
    uncontended single-traversal fast path.  A run longer than
    {!max_batch} is split into [max_batch] chunks, each admitted on its
    own.

    The operations of a run are concurrent, not sequential: values obey
    the service's quiescently consistent contract (see "Elimination
    value semantics"), so an [Inc] and a [Dec] of one run may both
    return the anchor value.

    [Ok ()]: every operation completed.  [Error (k, e)]: the operations
    before index [k] completed (their values are in [vals]); none from
    [k] on was performed, and [e] says why ([Overloaded]: the lane had
    no free slot for that chunk; [Closed]: the service is draining or
    stopped).  What a run allocates is bounded per chunk, never per
    operation (a combining flag holder allocates nothing).
    @raise Invalid_argument if the range is out of bounds for [ops] or
    [vals], or the session has an outstanding {!submit}. *)

val increment : session -> (int, error) result
(** [increment s] performs one [Fetch&Increment] through the session's
    lane, blocking (spinning, then sleeping) until a combiner delivers
    the value — a {!run} of one.  Fails fast with [Error Overloaded] under backpressure
    and [Error Closed] once the service is draining or stopped.
    @raise Invalid_argument if the session has an outstanding
    {!submit}. *)

val decrement : session -> (int, error) result
(** [decrement s] performs one [Fetch&Decrement]; same contract as
    {!increment}.  Returns the value handed back to the counter. *)

val submit : session -> op -> (unit, error) result
(** [submit s op] publishes [op] into the lane without waiting and
    without electing a combiner — the asynchronous half of
    {!increment}/{!decrement}.  At most one outstanding operation per
    session; complete it with {!await}.
    @raise Invalid_argument if the session already has one. *)

val await : session -> int
(** [await s] completes the session's outstanding {!submit}: helps
    combine if the lane has no combiner, then returns the operation's
    value.
    @raise Invalid_argument if nothing was submitted. *)

val lifecycle : t -> [ `Running | `Draining | `Stopped ]
(** The service's current lifecycle state.  [`Stopped] is terminal: no
    interleaving of {!drain} and {!shutdown} calls can re-open a
    stopped service. *)

val drain :
  ?policy:Cn_runtime.Validator.policy -> t -> Cn_runtime.Validator.report
(** [drain t] stops admitting operations, helps every lane run dry
    (combining any parked submissions), then runs
    {!Validator.quiescent_runtime} on the quiesced network, adds a
    [net-agreement] check ({!net} against the runtime's
    {!Cn_runtime.Network_runtime.net_count}), applies
    [?policy] (default: the service's [validate] policy) and re-opens
    the service.  Callers should quiesce their own sessions first:
    operations racing with the admission flip either fail with
    [Error Closed] or complete before the validation point — never
    after it.

    Lifecycle transitions are CAS-elected and compose: exactly one
    caller owns the drain at a time; a concurrent [drain]/[shutdown]
    waits for the owner to finish and then performs its own
    drain-and-validate cycle (so every caller still receives a report
    for a quiescent point).  A [drain] racing a [shutdown] never
    re-opens the service: stopped is terminal.
    @raise Validator.Invalid under [Strict] when a check fails (the
    service is left terminally stopped). *)

val shutdown :
  ?policy:Cn_runtime.Validator.policy -> t -> Cn_runtime.Validator.report
(** [shutdown t] drains, validates, and leaves the service closed:
    every subsequent operation returns [Error Closed].  Idempotent, and
    sticky against concurrent {!drain}s — whichever of the two racing
    calls validates last, the service ends stopped. *)

val stats : t -> stats
(** Combining statistics so far (batches, batch sizes, eliminations,
    rejections — per wire and aggregated). *)

val stats_json : t -> string
(** {!stats} rendered as a JSON object. *)

val report_json : t -> string
(** A combined JSON report: [{"service": <stats>, "network": <metrics
    snapshot>}] — the network half is [null] unless the service was
    created with [~metrics:true]. *)
