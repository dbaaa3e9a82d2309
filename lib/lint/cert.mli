(** Step-property certification: the multi-pass certifier.

    [certify] runs a fixed pipeline of analyses over one topology and
    produces a certificate — a per-pass report plus the strongest piece
    of {e semantic evidence} established for the expected property:

    + {b wellformed} — the complete {!Cn_network.Raw.check} pass
      ([NETnnn]; vacuous for a [Topology.t], which is valid by
      construction, but load-bearing for decoded or mutated inputs).
    + {b shape} — width/size/depth facts; when [expected_depth] is
      given (the closed forms of Theorem 4.1, Lemmas 3.1/5.1), a
      mismatch is [ABS003].
    + {b absint} — the {!Absint} interval facts: flow conservation
      ([ABS001] when broken), uniform [1/t] mixing ([ABS005] when a
      counting expectation lacks it), abstract smoothness against the
      expected bound ([ABS002]), ladder half-split intervals
      ([ABS006]).
    + {b probe} — deterministic quiescent loads (ramps, spikes, seeded
      pseudo-random, and for merging: step-half grids); a violating
      load is reported as [ABS004] {e with the concrete input profile}.
    + {b exhaustive} — bounded-exhaustive model check
      ({!Cn_core.Verify}) whenever the input space fits the budget;
      refutation is [STEP002] with the counterexample profile.
    + {b escalate} — the explicit "absint inconclusive" path.  The
      interval domain cannot decide an order-sensitive property (for a
      counting expectation it proves uniform [1/t] mixing at best), so
      when the bounded-exhaustive pass was skipped over budget the
      certifier escalates to a directed battery: every load placing at
      most two tokens on at most two input wires
      ([1 + 2w + w(w−1)/2] loads).  In the portfolio 24 rows run it
      (every family at [w >= 16] but [M(t, δ)]); the [escalate-init]
      mutant of {!Mutate.battery} shows it refuting what the
      exhaustive pass cannot reach.  A violation is [STEP003] with the
      concrete replayable profile.  Skipped (with the reason on
      record) when the exhaustive pass was conclusive or a refutation
      already exists.
    + {b structural} — against a [reference] construction: structural
      equality certifies by construction; otherwise an isomorphism
      ({!Cn_network.Iso}, Lemma 2.7) certifies order-insensitive
      expectations (smoothing) outright and order-sensitive ones
      (counting, merging, half-split) only when the derived output
      correspondence is the identity — an output permutation preserves
      smoothness but not the step property.  Failure is [STEP001].
    + {b csr} — compile the runtime and run {!Csr_lint.check} on its
      {!Cn_runtime.Network_runtime.view}.

    The evidence order is [Refuted > Exhaustive > By_construction >
    By_isomorphism > Unverified]: a concrete counterexample trumps
    everything; a completed exhaustive check outranks citation-backed
    structural identity; a certificate with no semantic evidence at
    all remains honest about it. *)

type expectation =
  | Counting  (** step property on every quiescent load (Theorem 4.2) *)
  | Smoothing of int  (** [k]-smooth outputs (Lemmas 5.2, 6.6) *)
  | Merging of int
      (** [M(t, δ)] contract: step halves with [0 ≤ Σx − Σy ≤ δ] merge
          to a step output (Lemma 3.1) *)
  | Half_split
      (** the ladder contract (Section 4.1): paired outputs differ by 0
          or 1, halves by at most [w/2] *)

type evidence =
  | Exhaustive of { max_tokens : int; vectors : int }
      (** property checked on every load with per-wire counts in
          [[0, max_tokens]] *)
  | By_construction of string  (** structurally equal to the cited reference *)
  | By_isomorphism of string
      (** isomorphic to the cited reference, soundly for this
          expectation (Lemma 2.7) *)
  | Refuted of Cn_sequence.Sequence.t  (** concrete violating input profile *)
  | Unverified

type pass_report = {
  pass : string;
  facts : (string * string) list;  (** key/value findings, for the report *)
  diagnostics : Diagnostic.t list;
}

type t = {
  subject : string;
  expectation : expectation;
  passes : pass_report list;
  evidence : evidence;
}

val escalation_loads : int -> Cn_sequence.Sequence.t list
(** The directed two-token battery for width [w]: every quiescent load
    of at most two tokens spread over at most two wires ([1 + 2w +
    w(w-1)/2] loads).  This is the input set the escalate pass runs when
    the bounded-exhaustive check is over budget; exposed so tests can
    replay the exact battery. *)

val certify :
  ?reference:Cn_network.Topology.t * string ->
  ?iso_hint:int array ->
  ?expected_depth:int ->
  ?exhaustive_budget:int ->
  subject:string ->
  expectation:expectation ->
  Cn_network.Topology.t ->
  t
(** [certify ~subject ~expectation net] runs the pipeline.
    [reference] is the trusted reconstruction and its citation
    (e.g. rebuilding [C(w,t)] and citing Theorem 4.2).
    [iso_hint] is a candidate balancer mapping onto the reference
    (e.g. [Butterfly.lemma_5_3_mapping]); it is validated with
    [Iso.check] before [Iso.find]'s search is attempted, which keeps the
    structural pass cheap where the generic search would blow up
    (backward butterflies at [w >= 32]).
    [exhaustive_budget] (default [20_000]) caps the bounded-exhaustive
    input space. *)

val ok : t -> bool
(** No error-severity diagnostic in any pass. *)

val diagnostics : t -> Diagnostic.t list
(** All diagnostics, in pass order. *)

val codes : t -> string list
(** Deduplicated diagnostic codes, in first-occurrence order. *)

val expectation_string : expectation -> string
val evidence_string : evidence -> string

val pp : Format.formatter -> t -> unit
(** Human-readable certificate: verdict line, evidence, key facts, then
    any diagnostics. *)

val pp_line : Format.formatter -> t -> unit
(** One-line summary: [subject: ok expectation evidence]. *)

val to_json : t -> string
