(** Low-overhead observability for the compiled runtime.

    Theorem 6.7's amortized-contention bound says {e where} contention
    lands, not just how much of it there is; this module gives the
    runtime the per-balancer view needed to check that shape
    empirically.  A [Metrics.t] holds per-balancer traversal and stall
    counters plus per-output-wire tallies, sharded into per-domain sinks
    ({!Padded_atomic} banks, merged only at {!snapshot} time) so the
    accounting never adds a shared hot word to the traversal path, and a
    monotonic-clock token-latency reservoir sampled every
    [sample_period] tokens.

    Enable it with [Network_runtime.compile ~metrics:true]; read it back
    with {!snapshot} once the network is quiescent.  The snapshot type
    is shared with the simulator ([Cn_sim.Stall_model.snapshot]), so
    simulated and real contention profiles are directly comparable, and
    serializes to schema-versioned JSON with {!to_json}. *)

type t
(** A sharded metrics recorder attached to one compiled network. *)

val schema_version : int
(** Version of the snapshot JSON schema ([1]). *)

val create :
  ?shards:int ->
  ?reservoir:int ->
  ?sample_period:int ->
  balancers:int ->
  wires:int ->
  unit ->
  t
(** [create ~balancers ~wires ()] is a recorder for a network with
    [balancers] balancers and [wires] output wires.  [?shards] (default
    16) is the number of per-domain sinks (domains hash into them by
    id; collisions are correct, just less local), [?reservoir] (default
    512) the latency-sample capacity per sink, [?sample_period] (default
    16) the token period between latency measurements.
    @raise Invalid_argument on non-positive parameters. *)

(** {2 Hot-path recording}

    These are called by the instrumented runtime; library users normally
    only {!snapshot}.  A [sink] is valid on any domain but should be
    re-fetched per task, not cached across domains. *)

type sink
(** The calling domain's shard of the recorder. *)

val sink : t -> sink
(** [sink m] is the sink the calling domain writes to. *)

val null : sink
(** A zero-size sink that must never be recorded into.  The
    uninstrumented runtime walk loops pass it so bare and metered
    crossing functions share one (closure-free) signature. *)

val crossings : sink -> int -> int -> unit
(** [crossings sk b k] records [k] token (or antitoken) crossings of
    balancer [b]: [1] for a token walk, [k] for a batch that walks as
    counts and reaches [b] with [k] tokens. *)

val stall : sink -> int -> unit
(** Record one contended CAS crossing at balancer [b]. *)

val token_exits : sink -> wire:int -> int -> unit
(** [token_exits sk ~wire c] records [c] tokens exiting on [wire]. *)

val antitoken_exits : sink -> wire:int -> int -> unit
(** [antitoken_exits sk ~wire c] records [c] antitokens exiting on
    [wire] (a net tally decrement). *)

val sample_begin : sink -> int
(** [sample_begin sk] advances the sampling tick; a non-negative result
    is a monotonic timestamp (ns) to pass to {!sample_end} when the
    token exits, a negative result means this token is not sampled. *)

val sample_end : sink -> int -> unit
(** [sample_end sk t0] records [now - t0] into the latency reservoir. *)

val reset : t -> unit
(** Zero all counters and the sampling state.  Must not run concurrently
    with recording. *)

(** {2 Single-owner reservoirs}

    The same Algorithm-R reservoir the sinks use, as a plain
    single-owner value for client-side harnesses (the TCP load rig
    records per-operation round-trip latencies into one per client
    thread).  Not thread-safe: one owner per reservoir. *)

module Reservoir : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** [?capacity] (default 2048) samples are kept; later additions
      replace uniformly random slots, keeping the kept set an unbiased
      sample of everything observed.
      @raise Invalid_argument if [capacity <= 0]. *)

  val add : t -> int -> unit
  (** Record one measurement (typically nanoseconds). *)

  val observed : t -> int
  (** Measurements recorded since {!create}. *)

  val kept : t -> int
  (** Samples currently held ([min observed capacity]). *)
end

(** {2 Snapshots} *)

type latency = {
  time_unit : string;  (** ["ns"] for the runtime, ["ticks"] for the simulator *)
  observed : int;  (** latencies measured over the run *)
  kept : int;  (** reservoir samples backing the percentiles *)
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
  mean : float;
}

type snapshot = {
  version : int;  (** {!schema_version} *)
  source : string;  (** ["runtime"] or ["sim"] *)
  balancers : int;
  wires : int;
  tokens : int;  (** tokens that completed (exited) *)
  antitokens : int;  (** antitokens that completed *)
  crossings : int array;  (** per balancer *)
  stalls : int array;  (** per balancer *)
  exits : int array;  (** per output wire, net (tokens - antitokens) *)
  latency : latency option;
}
(** A merged, immutable view of a recorder at quiescence.  The record is
    public so other layers ({!Cn_sim.Stall_model}) can emit the same
    type. *)

val snapshot : t -> snapshot
(** [snapshot m] merges the sinks.  Taken at quiescence it satisfies the
    invariants {!Validator.snapshot_invariants} checks; taken mid-run it
    is a consistent-enough progress view (sums may trail in-flight
    tokens). *)

val percentiles : ?time_unit:string -> ?observed:int -> float array -> latency option
(** [percentiles samples] is the latency summary of [samples] (nearest
    rank, [None] when empty) — exposed so simulator histories can build
    {!snapshot}s. *)

val reservoir_summary : ?time_unit:string -> Reservoir.t list -> latency option
(** Merge the kept samples of several {!Reservoir}s (one per client
    thread, say) into one {!latency} summary via {!percentiles};
    [observed] sums across reservoirs.  [None] when nothing was kept. *)

val per_layer : layers:int array -> int array -> int array
(** [per_layer ~layers values] sums a per-balancer array by layer;
    [layers.(b)] is balancer [b]'s 1-based depth
    ([Topology.balancer_depth]). *)

val layer_stalls : t -> layers:int array -> int array
(** [layer_stalls m ~layers] is the live per-layer stall profile,
    summed directly from the sharded counter banks — the typed
    accessor the fabric auto-tuner consumes (no snapshot allocation,
    no JSON round-trip).  Mid-run reads are a consistent-enough
    progress view, like {!snapshot}'s.
    @raise Invalid_argument unless [layers] has one entry per
    balancer. *)

val to_json : ?layers:int array -> snapshot -> string
(** Schema-versioned JSON rendering.  With [?layers] (as in
    {!per_layer}) the profile additionally carries per-layer crossing
    and stall aggregates — the per-layer contention profile read against
    Theorem 6.7. *)
