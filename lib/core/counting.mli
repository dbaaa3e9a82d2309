(** The irregular counting network [C(w, t)] (paper, Section 4) — the
    paper's primary contribution.

    [C(w, t)] has input width [w = 2^k] and output width [t = p·w]
    ([k, p >= 1]); it is built from [(2,2)]- and [(2,2p)]-balancers.  The
    recursion (Fig. 10) is

    {v C(w, t) = L(w) ; ( C(w/2, t/2) || C(w/2, t/2) ) ; M(t, w/2) v}

    with base case [C(2, 2p)] a single [(2, 2p)]-balancer.  Its depth is
    [(lg²w + lgw)/2] (Theorem 4.1) — independent of [t] — and its output
    sequence satisfies the step property in every quiescent state
    (Theorem 4.2).  Increasing [t] lowers amortized contention at equal
    depth (Theorem 6.7). *)

open Cn_network

val valid : w:int -> t:int -> bool
(** [valid ~w ~t] holds iff [(w, t)] is a valid parameter pair. *)

val wires : Builder.t -> t:int -> Builder.wire array -> Builder.wire array
(** [wires b ~t ins] appends [C(w, t)] ([w = Array.length ins]) to
    builder [b] and returns the [t] output wires in order.
    @raise Invalid_argument on invalid parameters. *)

val network : w:int -> t:int -> Topology.t
(** [network ~w ~t] is the standalone topology of [C(w, t)].
    @raise Invalid_argument on invalid parameters. *)

val regular : int -> Topology.t
(** [regular w = network ~w ~t:w] — the new regular family [C(w, w)]
    (Section 1.3.1, first bullet). *)

val wide : int -> Topology.t
(** [wide w = network ~w ~t:(w·lgw)] — the recommended high-concurrency
    configuration [t = w·lgw] (Section 1.3.1, second bullet), for
    [w >= 4].  @raise Invalid_argument if [w < 4] (for [w = 2],
    [w·lgw = w] carries no extra width). *)

val depth_formula : w:int -> int
(** [depth_formula ~w = (lg²w + lgw)/2] (Theorem 4.1). *)

val size_formula : w:int -> t:int -> int
(** [size_formula ~w ~t] is the number of balancers of [C(w, t)], by the
    recurrence [S(2, 2p) = 1],
    [S(w, t) = w/2 + 2·S(w/2, t/2) + (t/2)·lg(w/2)]. *)
