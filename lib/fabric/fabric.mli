(** The sharded counter fabric — the production instantiation of
    {!Fabric_core.Make} over {!Cn_runtime.Atomics.Real} and the
    combining {!Cn_service.Service}.

    A fabric owns a fixed set of N independently compiled [C(w,t)]
    service instances (shards), routes each session to shard
    [hash(key) mod N] ({!route}), sums the shard counters into a
    linearizable-at-quiescence global {!read} that every reader
    double-collects itself, and can {b hot-resize} any shard:
    drain it through the {!Cn_runtime.Validator.quiescent_runtime}
    boundary, swap in a freshly compiled topology, and let operations
    that waited out the swap run on it — losing no tokens and
    duplicating no values (the shard's value stream continues from a
    [base] offset folded at the validated quiescence point).

    Every topology the fabric ever serves — initial shards and resize
    candidates — is first certified by the {!Cn_lint} eight-pass
    pipeline with expectation [Counting]; a rejected certificate aborts
    the operation before any state changes.

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
  shards:int ->
  Cn_network.Topology.t ->
  t
(** [create ~shards net] certifies [net] once, then builds [shards]
    identical service shards over it.  The service knobs ([?mode],
    [?metrics], [?max_batch], [?queue], [?elim], [?validate]) pass
    through to
    {!Cn_service.Service.create} for every spawned shard — including
    the ones hot-resize swaps in later.
    @raise Rejected if [net] fails certification.
    @raise Invalid_argument if [shards < 1] or [shards > 16]. *)

val certify_topology : Cn_network.Topology.t -> (Cn_lint.Cert.t, string) result
(** The fabric's certification gate: the full {!Cn_lint.Cert.certify}
    pipeline with expectation [Counting], using a rebuilt [C(w,t)] as
    structural reference when the dimensions are a legal pair, and the
    bounded-exhaustive pass capped at 2,000 inputs.  [Ok cert] when the
    certificate is clean and its evidence is not a refutation,
    [Error summary] otherwise — the string is what {!resize} wraps in
    [Cert_rejected]. *)

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
