(** The built-in certification portfolio: every constructible family at
    the standard widths, certified down to the compiled runtime — plus the
    merger-substituted hybrid campaign.

    [entries] covers, for [w ∈ {2, 4, 8, 16, 32, 64}]:

    - [C(w, w)] and [C(w, w·lgw)] — counting, depth
      [(lg²w + lgw)/2] (Theorems 4.1/4.2);
    - [C'(w, w)] — [s]-smoothing for [s = ⌊w·lgw/w⌋ + 2] (Lemma 6.6),
      depth [lg w];
    - [D(w)] and [E(w)] — [lg w]-smoothing (Lemma 5.2), with [E(w)]
      certified against [D(w)] through the Lemma 5.3 isomorphism;
    - [L(w)] — the half-split contract (Section 4.1), depth 1;
    - [M(t, δ)] — difference merging (Lemma 3.1), depth [lg δ];
    - [BITONIC(w)] and [PERIODIC(w)] — the regular baselines
      (Aspnes–Herlihy–Shavit), counting;
    - [DIFF(w)] — the diffracting-tree core, counting.

    [hybrid_entries] is the certification campaign for the periodic
    merger strategies of {!Cn_core.Merger}: every
    [(w, t) × strategy × scope] combination with [t] a power of two up
    to width 64 — [C(w,t)[periodic3/top]], [C(w,t)[pk2/all]], … — plus
    the standalone periodic merger stages [M(t, t/2)[periodic3]] etc.
    against the Lemma 3.1 merging contract.  Hybrid entries carry {b no
    reference construction} (no theorem covers a substituted merger):
    their evidence comes from the bounded-exhaustive and two-token
    escalation passes alone, and a [Refuted] certificate with a
    replayable counterexample is a first-class campaign result, not a
    failure.

    [run] certifies every classic entry and is the engine behind
    [countnet lint --all] and [make lint]; [run_hybrids] is the engine
    behind [countnet lint --hybrids] and [make lint-hybrids]. *)

type entry = {
  name : string;
  expectation : Cert.expectation;
  expected_depth : int;
  build : unit -> Cn_network.Topology.t;
  reference : ((unit -> Cn_network.Topology.t) * string) option;
      (** trusted reconstruction and the theorem it carries; [None] for
          hybrids, which have no covering theorem *)
  iso_hint : (unit -> int array) option;
      (** constructed balancer mapping onto the reference, when one is
          known (the Lemma 5.3 bit-reversal for [E(w)]) *)
  merger : string option;
      (** merger strategy/scope token for hybrid entries,
          e.g. ["periodic3/top"]; [None] for classic families *)
}

val schema_version : int
(** Version of the [LINT_certificates.json] payload (2: adds the
    top-level [schema_version] and per-row [merger] fields). *)

val entries : unit -> entry list

val hybrid_entries : unit -> entry list

val certify :
  ?exhaustive_budget:int ->
  entry ->
  Cert.t

val run :
  ?exhaustive_budget:int ->
  unit ->
  Cert.t list

val run_hybrids :
  ?exhaustive_budget:int ->
  unit ->
  Cert.t list

val all_ok : Cert.t list -> bool

val refuted : Cert.t -> bool
(** The certificate's evidence is a concrete counterexample. *)

val adjudicated : Cert.t -> bool
(** The pipeline reached a decision either way: clean, or refuted with
    a concrete counterexample.  A diagnostic without a refutation
    (e.g. a depth-formula mismatch) is a pipeline failure, not an
    adjudication. *)

val all_adjudicated : Cert.t list -> bool
(** Success criterion for the hybrid campaign: refutations are results,
    unexplained diagnostics are not. *)

val pp_summary : Format.formatter -> Cert.t list -> unit
(** One line per certificate plus a final tally. *)

val pp_hybrid_summary : Format.formatter -> Cert.t list -> unit
(** One line per certificate plus a certified/refuted tally. *)

val to_json : Cert.t list -> string
(** [{"schema_version": 2, "certificates": [...], "ok": bool}] — the CI
    artifact payload.  Each row carries a top-level ["merger"] field:
    the strategy/scope token for hybrids, [null] for classic rows. *)
