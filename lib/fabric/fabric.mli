(** The elastic sharded counter fabric — the production instantiation
    of {!Fabric_core.Make} over {!Cn_runtime.Atomics.Real} and the
    combining {!Cn_service.Service}.

    A fabric owns N independently compiled [C(w,t)] service instances
    (shards), routes sessions to shards through a consistent-hash ring
    ({!Router} — stable under shard-count changes), merges the shard
    counters into a linearizable-at-quiescence global {!read} via a
    second-level combining pass, and can {b hot-resize} any shard:
    drain it through the {!Cn_runtime.Validator.quiescent_runtime}
    boundary, park in-flight operations, swap in a freshly compiled
    topology, and replay the parked work — losing no tokens and
    duplicating no values (the shard's value stream continues from a
    [base] offset folded at the validated quiescence point).

    Every topology the fabric ever serves — initial shards, resize
    candidates, grow targets — is first certified by the {!Cn_lint}
    eight-pass pipeline with expectation [Counting]; a rejected
    certificate aborts the operation before any state changes.

    The protocol body lives in {!Fabric_core.Make} and is model-checked
    by [Cn_check] over instrumented atomics ([make check-races]); this
    module adds only the concrete spawn and certify policies. *)

include
  Fabric_core.S
    with type svc = Cn_service.Service.t
     and type topo_key = Cn_network.Topology.t
     and type op = Cn_service.Service.op
     and type error = Cn_service.Service.error

val create :
  ?mode:Cn_runtime.Network_runtime.mode ->
  ?metrics:bool ->
  ?max_batch:int ->
  ?queue:int ->
  ?elim:bool ->
  ?validate:Cn_runtime.Validator.policy ->
  ?max_shards:int ->
  ?vnodes:int ->
  ?exhaustive_budget:int ->
  shards:int ->
  Cn_network.Topology.t ->
  t
(** [create ~shards net] certifies [net], then builds [shards]
    identical service shards over it.  The service knobs ([?mode],
    [?metrics], [?max_batch], [?queue], [?elim], [?validate]) pass
    through to
    {!Cn_service.Service.create} for every spawned shard — including
    the ones hot-resize swaps in later.  [?exhaustive_budget] (default
    [2_000]) caps the certifier's bounded-exhaustive pass per topology.
    @raise Rejected if [net] fails certification.
    @raise Invalid_argument if [shards < 1] or [shards > max_shards]. *)

val certificate : ?exhaustive_budget:int -> Cn_network.Topology.t -> Cn_lint.Cert.t
(** The certificate the fabric's gate evaluates: the full
    {!Cn_lint.Cert.certify} pipeline with expectation [Counting],
    using a rebuilt [C(w,t)] as structural reference when the
    dimensions are a legal pair. *)

val certify_topology :
  ?exhaustive_budget:int -> Cn_network.Topology.t -> (Cn_lint.Cert.t, string) result
(** The gate itself: [Ok cert] when the certificate is clean and its
    evidence is not a refutation, [Error summary] otherwise — the
    string is what {!resize} wraps in [Cert_rejected]. *)

(** {2 Reporting} *)

type shard_info = {
  id : int;
  width : int;  (** input width [w] of the shard's current topology *)
  out_width : int;  (** output width [t] *)
  gen : int;  (** resize generation *)
  value : int;  (** the shard's logical counter value, [base + net] *)
}

val shard_info : t -> int -> shard_info
val shard_infos : t -> shard_info list

val report_json : t -> string
(** Fabric summary (shard table, global value) plus every shard's
    {!Cn_service.Service.report_json}, as one JSON document. *)
