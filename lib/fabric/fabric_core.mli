(** The elastic shard-fabric protocol, as a functor over its atomic
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
      guarantee), or parks and is replayed exactly once on the
      swapped-in service;
    - {b continuity}: a shard's logical value is [base + net(svc)] and
      the resize folds the old service's net count into [base] at the
      validated quiescence point, so the shard's value stream continues
      with no duplicates and the global sum is invariant at the swap;
    - {b routing}: the consistent-hash router is published before any
      shard retires and after every shard spawns, so no operation is
      ever routed to a shard that will not serve or park it. *)

module V := Cn_runtime.Validator

(** What the fabric needs from a service: sessions, the run entry
    (a single operation is a run of one), the validated drain/shutdown
    lifecycle, and the net token count that becomes the [base] offset
    at a resize.
    {!Cn_service.Service} matches this signature once extended with
    [net_count] (see {!Fabric}); the checker's model service is
    [Service_core.Make (Instrumented) (Model_net)] plus the same
    one-liner. *)
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

  val lifecycle : t -> [ `Running | `Draining | `Stopped ]
  val drain : ?policy:V.policy -> t -> V.report
  val shutdown : ?policy:V.policy -> t -> V.report

  val net_count : t -> int
  (** Net tokens handed out so far (tokens minus antitokens).  Exact at
      quiescence — the fabric only reads it for the [base] fold after
      [shutdown]'s validation point. *)
end

module type S = sig
  type svc
  (** The underlying service instances being sharded. *)

  type topo_key
  (** What a shard is built from (a {!Cn_network.Topology.t}). *)

  type t
  (** A fabric: up to [max_shards] shard slots, a published router, and
      the combining-read state. *)

  type session
  (** A fabric client handle: a routing key plus a cached per-shard
      service session (invalidated by generation on resize).  Single
      owner, like the service sessions it wraps. *)

  type op = Inc | Dec
  type error = Overloaded | Closed

  type resize_error =
    | Cert_rejected of string
        (** the candidate topology failed certification; nothing changed *)
    | Busy  (** another resize or rescale owns the shard / the fabric *)
    | Bad_shard  (** shard id out of range *)
    | Fabric_closed

  exception Rejected of string
  (** Raised by {!make} when an {e initial} topology fails
      certification — a fabric never starts serving uncertified. *)

  val make :
    ?max_shards:int ->
    ?vnodes:int ->
    ?validate:V.policy ->
    spawn:(topo_key -> svc) ->
    certify:(topo_key -> (unit, string) result) ->
    topo_key list ->
    t
  (** [make ~spawn ~certify topos] builds one shard per listed topology
      (shard ids [0..n-1]), certifying every topology {e before}
      spawning anything.  [?max_shards] (default [16]) bounds
      {!set_shard_count}; [?vnodes] (default {!Router.default_vnodes})
      sizes the hash ring; [?validate] (default [Strict]) is the policy
      resize/drain/shutdown apply when not overridden.
      @raise Rejected if any initial topology fails certification.
      @raise Invalid_argument on an empty list or [n > max_shards]. *)

  val session : ?key:int -> t -> session
  (** [session t] registers a client.  [?key] pins the routing key
      (sessions with equal keys share a shard — the consistent-hash
      pinning the property tests check); default keys are assigned
      round-robin from a counter. *)

  val run :
    session -> op array -> int array -> off:int -> len:int -> (unit, int * error) result
  (** [run s ops vals ~off ~len] performs [ops.(off) .. ops.(off+len-1)]
      as one concurrent run on the session's shard and writes each
      stream value ([base + service value]) to the same index of
      [vals].  The session's key pins it to one shard, so the run is
      routed once and handed to that shard's service as one
      {!SERVICE.run}; only while the shard is resizing does it fall
      back to parking (and replaying) one operation at a time.  A run
      that loses a race with a resize retries its unserved remainder.
      [Error (k, e)]: the operations before [k] completed, none from
      [k] on was performed ([Overloaded]: the shard's backpressure;
      [Closed]: the fabric is shut down).
      @raise Invalid_argument if the range is out of bounds. *)

  val increment : session -> (int, error) result
  (** One [Fetch&Increment] through the session's shard.  The value is
      the shard's stream value ([base + service value]); streams of
      distinct shards are independent (a sharded counter, not a single
      global sequence).  Retries transparently across a racing resize:
      the operation either completes on the pre-resize service before
      its validation point or parks and is replayed on the new one.
      [Error Overloaded] propagates the shard's backpressure verbatim;
      [Error Closed] means the fabric is shut down.  A {!run} of one. *)

  val decrement : session -> (int, error) result

  val read : t -> int
  (** Linearizable-at-quiescence global read: one reader CASes itself
      collector, double-collects [base + net] across shards (a retired
      slot contributes its tombstoned net, published atomically at the
      retirement, so a sweep never under- or double-counts a shard
      mid-shrink) until two sweeps agree, and publishes the sweep;
      concurrent readers adopt any sweep that started after they
      arrived — a second-level combining pass, so [n] concurrent reads
      cost one sweep, not [n].  Under in-flight traffic the value is
      quiescently consistent (it counts exactly the operations whose
      tokens have exited). *)

  val shard_count : t -> int
  val max_shards : t -> int

  val route : t -> int -> int
  (** The shard id the current router assigns a key — exposed for the
      routing-stability tests and the bench rig. *)

  val shard_value : t -> int -> int
  (** [shard_value t sid] is the shard's logical counter value
      ([base + net]).  Exact at quiescence.
      @raise Invalid_argument if [sid] is retired or out of range. *)

  val shard_gen : t -> int -> int
  (** Resize generation of the shard: 0 at first spawn, +1 per swap —
      and monotonic across retirement, so a slot re-created by a grow
      continues (not restarts) the sequence and a session's cached
      [(shard, gen)] pair can never alias a retired service. *)

  val shard_topology : t -> int -> topo_key
  val shard_service : t -> int -> svc

  val resize : ?policy:V.policy -> t -> shard:int -> topo_key -> (unit, resize_error) result
  (** [resize t ~shard topo] hot-swaps one shard's topology: certify
      [topo] (rejection aborts with no state change), seal the shard so
      latecomers park, shut the old service down through the
      {!Cn_runtime.Validator.quiescent_runtime} boundary at [?policy]
      (default: the fabric's policy), fold its net count into the
      shard's [base], spawn and publish the new service, reopen, and
      replay every parked operation exactly once.
      @raise Validator.Invalid under [Strict] when the old service
      fails its quiescence checks; the fabric fail-stops first
      (integrity over availability). *)

  val set_shard_count :
    ?policy:V.policy -> ?topo:topo_key -> t -> int -> (unit, resize_error) result
  (** Elastically grow or shrink the live shard set to [n].  Growth
      certifies and spawns shards (topology [?topo], default: shard
      0's current topology) before publishing the wider router; shrink
      publishes the narrower router first, then drains each removed
      shard through the same seal/validate/replay path as {!resize},
      atomically replacing it with a tombstone that preserves its net
      count (and generation) so {!read} stays conserved and a later
      grow continues the slot's stream.  Serialized against itself
      ([Error Busy]). *)

  val drain : ?policy:V.policy -> t -> V.report
  (** Quiesce and validate every shard in turn (each re-admits when
      its validation passes), merging the per-shard reports with
      [shardN.]-prefixed check names. *)

  val shutdown : ?policy:V.policy -> t -> V.report
  (** Terminal: mark the fabric closed, shut every shard down through
      the validated quiescence path, and fail any parked stragglers
      with [Closed].  {!read} and the shard accessors keep working on
      the frozen state. *)

  val closed : t -> bool
end

module Make (A : Cn_runtime.Atomics.S) (S : SERVICE) :
  S
    with type svc = S.t
     and type topo_key = Cn_network.Topology.t
     and type op = S.op
     and type error = S.error
