(** The shard-fabric protocol, as a functor over its atomic
    operations and the sharded service — the same factoring as
    {!Cn_service.Service_core}, for the same reason: {!Fabric}
    instantiates it with {!Cn_runtime.Atomics.Real} and the production
    {!Cn_service.Service}; the race checker ([Cn_check]) instantiates
    it with instrumented atomics and model services and explores the
    hot-resize protocol's interleavings exhaustively (bounded
    preemptions) — see [make check-races].

    The protocol invariants the factoring exists to check:

    - {b no lost or duplicated work across a resize}: an operation
      racing a hot-resize either completes on the old service before
      its quiescent validation point (the [Service_core] admission
      guarantee), or is not performed there and, once the resize lets
      go of the shard, is retried on the swapped-in service;
    - {b continuity}: a shard's logical value is [base + net(svc)] and
      the resize folds the old service's net count into [base] at the
      validated quiescence point, so the shard's value stream continues
      with no duplicates and the global sum is invariant at the swap;
    - {b routing}: the shard set is fixed when the fabric is made and
      every shard serves until shutdown, so a key's shard is a pure
      hash of the key modulo the shard count, and no operation is sent
      to a shard that will not serve it or refuse it. *)

module V := Cn_runtime.Validator

(** What the fabric needs from a service: sessions, the run entry
    (a single operation is a run of one), the validated drain and
    shutdown, and the net count that every {!S.read} sums and that
    becomes the [base] offset at a resize.
    {!Cn_service.Service} matches this signature as it is (see
    {!Fabric}); the checker's model service wraps
    [Service_core.Make (Instrumented) (Model_net)] plus a flag that
    injects one failing shutdown. *)
module type SERVICE = sig
  type t
  type session
  type op = Inc | Dec
  type error = Overloaded | Closed

  val session : ?wire:int -> t -> session

  val run :
    session -> op array -> int array -> off:int -> len:int -> (unit, int * error) result
  (** {!Cn_service.Service.run}: the operations [ops.(off ..)] as one
      concurrent run, values into [vals]; [Error (k, e)] when the
      operations from index [k] on were not performed. *)

  val drain : ?policy:V.policy -> t -> V.report
  val shutdown : ?policy:V.policy -> t -> V.report

  val net : t -> int
  (** Net operations counted so far: increments minus decrements of
      every batch that completed, each counted before its caller sees
      its value.  The fabric reads it on every {!S.read} and
      {!S.shard_value}, so it should not grow with the output width
      ({!Cn_service.Service.net} costs one load per input wire), and
      for the [base] fold after [shutdown]'s validation point, where
      it is exact. *)
end

module type S = sig
  type svc
  (** The underlying service instances being sharded. *)

  type topo_key
  (** What a shard is built from (a {!Cn_network.Topology.t}). *)

  type t
  (** A fabric: a fixed set of shards, each a service with its [base]
      offset, generation and lifecycle state. *)

  type session
  (** A fabric client handle: a routing key plus a cached per-shard
      service session (invalidated by generation on resize).  Single
      owner, like the service sessions it wraps. *)

  type op = Inc | Dec
  type error = Overloaded | Closed

  type resize_error =
    | Cert_rejected of string
        (** the candidate topology failed certification; nothing changed *)
    | Busy  (** another resize (or the shutdown) owns the shard *)
    | Bad_shard  (** shard id out of range *)
    | Fabric_closed

  exception Rejected of string
  (** Raised by {!make} when an {e initial} topology fails
      certification — a fabric never starts serving uncertified. *)

  val make :
    ?validate:V.policy ->
    spawn:(topo_key -> svc) ->
    certify:(topo_key -> (unit, string) result) ->
    shards:int ->
    topo_key ->
    t
  (** [make ~spawn ~certify ~shards topo] certifies [topo] once,
      whatever the shard count, then spawns [shards] services over it
      (shard ids [0..shards-1]).  The shard set is fixed from then on.
      [?validate] (default [Strict]) is the policy resize/drain/shutdown
      apply when not overridden.
      @raise Invalid_argument if [shards] is below 1 or above 16,
      before [certify] is called.
      @raise Rejected if [topo] fails certification, before anything
      is spawned. *)

  val session : ?key:int -> t -> session
  (** [session t] registers a client.  [?key] pins the routing key
      (sessions with equal keys share a shard, {!route}'s hash of the
      key); default keys are assigned round-robin from a counter. *)

  val run :
    session -> op array -> int array -> off:int -> len:int -> (unit, int * error) result
  (** [run s ops vals ~off ~len] performs [ops.(off) .. ops.(off+len-1)]
      as one concurrent run on the session's shard and writes each
      stream value ([base + service value]) to the same index of
      [vals].  The session's key pins it to one shard, so the run is
      routed once and handed to that shard's service as one
      {!SERVICE.run}.  A run that meets a resizing shard, or loses a
      race with a resize, waits until the resize is over and retries
      its unserved remainder as one run on the swapped-in service.
      [Error (k, e)]: the operations before [k] completed, none from
      [k] on was performed ([Overloaded]: the backpressure of the
      service that served the run — after a resize, the new one's,
      exactly as for a run arriving a moment later; [Closed]: the
      fabric is shut down, or the resize fail-stopped it).
      @raise Invalid_argument if the range is out of bounds. *)

  val increment : session -> (int, error) result
  (** One [Fetch&Increment] through the session's shard.  The value is
      the shard's stream value ([base + service value]); streams of
      distinct shards are independent (a sharded counter, not a single
      global sequence).  Retries transparently across a racing resize:
      the operation either completes on the pre-resize service before
      its validation point or waits the resize out and runs on the new
      one.  [Error Overloaded] propagates the backpressure of the
      service that took it verbatim (after a resize, the new one's);
      [Error Closed] means the fabric is shut down or fail-stopped.  A
      {!run} of one. *)

  val decrement : session -> (int, error) result

  val read : t -> int
  (** Linearizable-at-quiescence global read: the caller
      double-collects [base + net] across shards until two sweeps agree
      (at most 8 retries), and waits on no other reader.  A resize
      publishes the new service and its folded [base] in one store, so
      a sweep never under- or double-counts a shard mid-swap.  A sweep
      reads each shard's {!SERVICE.net} (for {!Cn_service.Service},
      one word per input wire), so it costs O(shards × w) whatever the
      shards' output width.  Under in-flight traffic it counts every
      operation whose batch completed before the read began, so a read
      that starts after an operation returned counts it. *)

  val shard_count : t -> int

  val route : t -> int -> int
  (** [route t key] is the shard a key's sessions run on:
      [Cn_runtime.Splitmix.mix key mod shard_count t].  Pure and
      deterministic; over consecutive keys it holds every shard's share
      to within a few percent of ideal.  Exposed for the routing tests
      and the bench rig. *)

  val shard_value : t -> int -> int
  (** [shard_value t sid] is the shard's logical counter value
      ([base + net]).  Exact at quiescence.
      @raise Invalid_argument if [sid] is out of range. *)

  val shard_gen : t -> int -> int
  (** Resize generation of the shard: 0 at spawn, +1 per swap, so a
      session's cached [(shard, gen)] pair never aliases a swapped-out
      service. *)

  val shard_topology : t -> int -> topo_key
  val shard_service : t -> int -> svc

  val resize : ?policy:V.policy -> t -> shard:int -> topo_key -> (unit, resize_error) result
  (** [resize t ~shard topo] hot-swaps one shard's topology: certify
      [topo] (rejection aborts with no state change), claim the shard so
      latecomers wait, shut the old service down through the
      {!Cn_runtime.Validator.quiescent_runtime} boundary at [?policy]
      (default: the fabric's policy), fold its net count into the
      shard's [base], spawn and publish the new service, and reopen;
      the waiting operations then run on the new service.  A shard id
      outside [0 .. shard_count - 1] is [Error Bad_shard] before
      anything is certified.
      @raise Validator.Invalid under [Strict] when the old service
      fails its quiescence checks; the fabric fail-stops first
      (integrity over availability), and the shard counts as stopped
      for a later {!shutdown}.
      Any exception the fabric's [spawn] raises for [topo], once the
      old service is shut down, fail-stops the same way and is
      re-raised: the fabric is closed, the shard is [Stopped] with the
      old service still in its slot, operations waiting out the resize
      get [Closed], and a later {!shutdown} re-validates the old,
      already stopped service. *)

  val drain : ?policy:V.policy -> t -> V.report
  (** Quiesce and validate every shard in turn (each re-admits when
      its validation passes), merging the per-shard reports with
      [shardN.]-prefixed check names. *)

  val shutdown : ?policy:V.policy -> t -> V.report
  (** Terminal: mark the fabric closed, shut every shard down through
      the validated quiescence path; operations waiting on a shard's
      claim fail with [Closed].  {!read} and the shard accessors keep working on
      the frozen state.  Idempotent: a shard already stopped (by an
      earlier or concurrent shutdown, or by a resize that fail-stopped)
      is not stopped again; its frozen service is re-validated at
      [?policy], so a later call returns the same report.
      @raise Validator.Invalid under [Strict] when a shard fails its
      quiescence checks, after every shard has been stopped. *)

  val closed : t -> bool
end

module Make (A : Cn_runtime.Atomics.S) (S : SERVICE) :
  S
    with type svc = S.t
     and type topo_key = Cn_network.Topology.t
     and type op = S.op
     and type error = S.error
