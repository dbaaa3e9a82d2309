(** Sketches adapted to the {!Cn_runtime.Shared_counter.custom}
    extension point, so approximate backends slot into every layer
    that already speaks [Shared_counter] — the {!Cn_runtime.Harness},
    the bench rig's [sketch] suite, and the CLI's
    [countnet throughput --backend hll|sparse] switch.

    The semantic contract is deliberately weaker than the exact
    implementations': [next]/[prev] return {e estimates} of the
    running count, not a gap-free [0 .. m-1] sequence, in exchange for
    bounded memory at unbounded key cardinality.  Use them for
    telemetry-grade keys; billing-grade keys stay on the exact
    network-backed tier, served through [Cn_service.Service] and
    [Cn_fabric.Fabric] sessions. *)

type hll = {
  counter : Cn_runtime.Shared_counter.t;
      (** [next ~pid] mints a globally unique key, observes it in
          {!incs}, and returns the key — a per-slot-monotone ticket,
          so the hot path stays one FAA plus a CAS-max (no [O(m)]
          estimator scan per operation).  [prev ~pid] does the same
          against {!decs}.  Estimates are read-side:
          [Hll.cardinality incs] for increments, minus
          [Hll.cardinality decs] for the net.  Safe from any domain. *)
  incs : Hll.t;
  decs : Hll.t;
}

val hll : ?precision:int -> ?slots:int -> unit -> hll
(** An HLL-backed distinct counter.  Unique keys are minted from a
    bank of [?slots] (default [64]) per-slot FAA sequences — caller
    [pid] picks slot [pid mod slots], and [key = seq * slots + slot]
    is unique across all slots — so the key-minting hot path contends
    only within a slot, like the service's session lanes.
    [?precision] is forwarded to {!Hll.create}.
    @raise Invalid_argument unless [slots > 0]. *)

type sparse = {
  counter : Cn_runtime.Shared_counter.t;
      (** Per-flow tally keyed by [pid]: [next ~pid] adds [+1] to flow
          [pid] and returns its {!Sparse.estimate}; [prev ~pid] adds
          [-1]. *)
  sketch : Sparse.t;
}

val sparse : ?counters:int -> ?degree:int -> unit -> sparse
(** A sparse-graph per-flow counter.  [?counters] (default [4096]) and
    [?degree] are forwarded to {!Sparse.create}. *)
