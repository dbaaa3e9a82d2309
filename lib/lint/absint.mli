(** Abstract interpretation of balancing networks over an exact
    affine-form / interval domain.

    The quiescent output of every balancer port is a deterministic
    function of the input token counts [x = (x_0, ..., x_{w-1})]
    (paper, Section 2.2): port [r] of a [(p,q)]-balancer with initial
    state [s] that has seen [T] tokens in total emits exactly
    [⌈(T − d_r)/q⌉] tokens, where [d_r = (r − s) mod q].  The analyzer
    abstracts each wire by an {e affine form with an interval error}:

    {v count(wire) ∈ Σ_j c_j·x_j + [lo, hi] v}

    with exact rational coefficients [c_j] and bounds [lo, hi].  The
    transfer function for a port divides the incoming coefficients by
    [q] and widens the error interval by the rounding slack: since
    [(T − d_r)/q ≤ ⌈(T − d_r)/q⌉ ≤ (T − d_r + q − 1)/q], the output
    error is [[(lo − d_r)/q, (hi − d_r + q − 1)/q]].  All arithmetic is
    exact (normalized [int] rationals), so the derived facts are sound
    for {e every} input load — they are small theorems about the
    topology, not samples:

    - {b flow conservation}: each input's coefficients sum to 1 across
      the outputs — tokens are neither created nor destroyed;
    - {b uniformity}: every output coefficient equals [1/t] — each
      output wire carries an exact [t]-th of the traffic, the
      first-order content of the step property;
    - {b smoothness}: when uniform, the affine parts cancel pairwise and
      [max hi − min lo] bounds the output spread; for the butterfly the
      interval grows by at most 1 per layer, so the analyzer re-derives
      the [lg w] bound of Lemma 5.2 abstractly;
    - {b half-split}: pairwise output differences with cancelling
      coefficients get exact interval bounds — the ladder invariant of
      Section 4.1 ([out_i − out_{i+w/2} ∈ [0,1]]).

    The interval domain deliberately drops correlations between wires,
    so it cannot by itself certify the full step property (an
    order-sensitive, correlation-heavy invariant); {!Cert} combines
    these facts with bounded-exhaustive and structural evidence. *)

(** Exact rational arithmetic on normalized [int] fractions.  Intended
    range: denominators are products of balancer fan-outs along a path
    (at most [2^depth] for the networks here), well inside 63-bit
    overflow for every network in the portfolio. *)
module Q : sig
  type t

  val zero : t
  val one : t
  val of_int : int -> t
  val make : int -> int -> t
  (** [make num den] is [num/den] normalized. @raise Invalid_argument on
      zero denominator. *)

  val add : t -> t -> t
  val sub : t -> t -> t
  val add_int : t -> int -> t
  val div_int : t -> int -> t
  (** @raise Invalid_argument on non-positive divisor. *)

  val compare : t -> t -> int
  val equal : t -> t -> bool
  val leq : t -> t -> bool
  val floor : t -> int
  val to_float : t -> float
  val pp : Format.formatter -> t -> unit
end

type wire = { coeffs : Q.t array; lo : Q.t; hi : Q.t }
(** Abstract value of one wire: token count lies in
    [Σ_j coeffs.(j)·x_j + [lo, hi]] for every input load [x].  The
    ports of one balancer share a single [coeffs] array: read it,
    never write it. *)

type t
(** Analysis result for one topology. *)

val analyze : Cn_network.Topology.t -> t
(** Propagate abstract values through the network in topological
    order.  Cost: [O(size · width)] exact rational operations. *)

val output : t -> int -> wire
(** Abstract value of network output wire [i]. *)

val outputs : t -> wire array

val conserves : t -> bool
(** Flow conservation: for every input [j], the output coefficients on
    [x_j] sum to exactly 1. *)

val uniform : t -> bool
(** Every output coefficient is exactly [1/t]. *)

val spread_bound : t -> Q.t option
(** When {!uniform}, a sound bound on [max_i out_i − min_j out_j] over
    all loads: [max_i hi_i − min_j lo_j].  [None] when the affine parts
    do not cancel (non-uniform network). *)

val smoothness_bound : t -> int option
(** [⌊spread_bound⌋] — output counts are integers, so the network is
    abstractly [k]-smooth for this [k]. *)

val output_difference : t -> int -> int -> (Q.t * Q.t) option
(** [output_difference a i j] is an exact interval for [out_i − out_j]
    when their coefficient vectors cancel; [None] otherwise. *)

val half_split_bound : t -> (Q.t * Q.t) option
(** Exact interval for [Σ first half − Σ second half] of the outputs
    when the summed coefficients cancel; [None] otherwise (or on odd
    output width). *)
