(** Concurrent shared counters supporting [Fetch&Increment] — the data
    structure counting networks exist to implement (paper, Section 1.1).

    Three implementations with identical semantics (each call returns a
    distinct value, and after [m] quiesced calls the values handed out
    are exactly [0 .. m-1]):

    - {!of_topology}: a counting network; low contention, not
      linearizable (Section 1.4.2 — none of the networks considered
      are), wait-free in [Faa] mode;
    - {!central_faa}: a single fetch-and-add word; linearizable, maximal
      contention on one cache line;
    - {!with_lock}: a mutex-protected integer; the naive baseline. *)

type t
(** A shared counter handle, safe to use from any domain. *)

val of_topology :
  ?mode:Network_runtime.mode ->
  ?metrics:bool ->
  Cn_network.Topology.t ->
  t
(** [of_topology net] is a counter backed by the counting network [net]:
    the caller's token enters on wire [pid mod w].  [?mode] and
    [?metrics] are passed through to {!Network_runtime.compile}. *)

val runtime : t -> Network_runtime.t option
(** The compiled network behind a {!of_topology} counter ([None] for
    the other implementations) — the hook {!Harness} and the validator
    use to check quiescent invariants after a run. *)

val central_faa : unit -> t
(** A counter backed by one [Atomic.fetch_and_add] word. *)

val with_lock : unit -> t
(** A counter backed by a [Mutex]-protected integer. *)

val custom :
  name:string -> next:(pid:int -> int) -> prev:(pid:int -> int) -> t
(** [custom ~name ~next ~prev] is a counter backed by caller-supplied
    operations — the extension point the approximate tiers
    ({!Cn_sketch.Backend}) and test doubles use to slot into
    {!Harness} runs without a dependency cycle.  {!runtime} is [None]
    for it, so {!Harness.run_collect} validates only the values
    collected.  The closures must be safe to call from any domain;
    [pid] has already been checked non-negative. *)

val next : t -> pid:int -> int
(** [next c ~pid] performs one [Fetch&Increment] as process [pid]
    (process identity selects the entry wire for network-backed
    counters; the others ignore it).
    @raise Invalid_argument if [pid < 0]. *)

val prev : t -> pid:int -> int
(** [prev c ~pid] performs one [Fetch&Decrement], returning the value
    handed back to the counter — sequentially, the next [next] call
    returns the same value.  Network-backed counters implement it with
    antitokens (paper, Section 1.4.2).
    @raise Invalid_argument if [pid < 0]. *)

val name : t -> string
(** Implementation name for reporting ("network", "central-faa",
    "lock"). *)
