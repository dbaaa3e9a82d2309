(** The built-in certification portfolio: every constructible family at
    the standard widths, certified down to the compiled runtime.

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

    [run] certifies every entry and is the engine behind
    [countnet lint --all] and [make lint]. *)

type entry = {
  name : string;
  expectation : Cert.expectation;
  expected_depth : int;
  build : unit -> Cn_network.Topology.t;
  reference : (unit -> Cn_network.Topology.t) * string;
      (** trusted reconstruction and the theorem it carries *)
  iso_hint : (unit -> int array) option;
      (** constructed balancer mapping onto the reference, when one is
          known (the Lemma 5.3 bit-reversal for [E(w)]) *)
}

val schema_version : int
(** Version of the [LINT_certificates.json] payload: 3. *)

type family =
  | Counting  (** [C(w,t)] *)
  | Bitonic
  | Periodic
  | Diffracting
  | Butterfly_fwd  (** [D(w)] *)
  | Butterfly_bwd  (** [E(w)] *)
  | Ladder  (** [L(w)] *)
  | Merging  (** [M(w,δ)] *)
  | C_prime  (** [C'(w,t)] *)

val entry : family -> w:int -> t:int -> delta:int -> entry
(** [entry family ~w ~t ~delta] is the certification contract of one
    family member: subject name, expectation, closed-form depth,
    builder, trusted reference with its citation, and isomorphism hint.
    [w] is the input width, [t] the output width of [C(w,t)] and
    [C'(w,t)], and [delta] the parameter of [M(w,δ)]; a family ignores
    the parameters it does not take.  The one per-family table behind
    {!entries} and [countnet lint -f].  The builders are lazy; the
    closed forms are evaluated here.
    @raise Invalid_argument where a closed form rejects its
    parameters. *)

val entries : unit -> entry list

val certify :
  ?exhaustive_budget:int ->
  entry ->
  Cert.t

val run :
  ?exhaustive_budget:int ->
  unit ->
  Cert.t list

val all_ok : Cert.t list -> bool

val pp_summary : Format.formatter -> Cert.t list -> unit
(** One line per certificate plus a final tally. *)

val to_json : Cert.t list -> string
(** [{"schema_version": 3, "certificates": [...], "ok": bool}] — the CI
    artifact payload. *)
