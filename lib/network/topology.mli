(** Immutable, validated balancing-network topologies (paper, Section
    1.1).

    A topology is an acyclic network of balancers in which every wire
    connects exactly one producer (a network input or a balancer output
    port) to exactly one consumer (a balancer input port or a network
    output).  Construction validates all structural invariants; a value
    of type [t] is therefore always a well-formed balancing network. *)

type source =
  | Net_input of int  (** network input wire [i] *)
  | Bal_output of { bal : int; port : int }
      (** output port [port] of balancer [bal] *)

type dest =
  | Bal_input of { bal : int; port : int }
      (** input port [port] of balancer [bal] *)
  | Net_output of int  (** network output wire [i] *)

type t

val create :
  input_width:int ->
  balancers:Balancer.t array ->
  feeds:source array array ->
  outputs:source array ->
  t
(** [create ~input_width ~balancers ~feeds ~outputs] builds a topology in
    which balancer [b]'s input port [i] is fed by [feeds.(b).(i)] and
    network output wire [i] is fed by [outputs.(i)].

    Validation enforces: port arities match the balancer descriptors;
    every network input and every balancer output port is consumed exactly
    once; all references are in range; and the balancer dependency graph
    is acyclic.
    @raise Invalid_argument describing the first violated invariant. *)

val input_width : t -> int
(** Number of network input wires [w]. *)

val output_width : t -> int
(** Number of network output wires [t]. *)

val size : t -> int
(** Number of balancers. *)

val balancer : t -> int -> Balancer.t
(** [balancer net b] is the descriptor of balancer [b].
    @raise Invalid_argument if [b] is out of range. *)

val feeds : t -> int -> source array
(** [feeds net b] is a copy of the sources feeding balancer [b]'s input
    ports. *)

val outputs : t -> source array
(** [outputs net] is a copy of the sources feeding the network output
    wires. *)

val consumer : t -> source -> dest
(** [consumer net s] is the unique consumer of the wire produced at [s].
    @raise Invalid_argument if [s] does not exist in [net]. *)

val balancer_depth : t -> int -> int
(** [balancer_depth net b] is the depth of balancer [b]: the maximum
    number of balancers (including [b]) on any path from a network input
    to an output wire of [b] (paper, Section 2.2). *)

val depth : t -> int
(** [depth net] is the maximum balancer depth; [0] for a balancer-free
    network (bare wires). *)

val layers : t -> int array array
(** [layers net] groups balancer ids by depth: [ (layers net).(i) ] holds
    the balancers of depth [i + 1], each sorted by id.  The concatenation
    covers every balancer exactly once. *)

val is_regular : t -> bool
(** [is_regular net] holds iff every balancer is regular (paper: regular
    network). *)

val topo_order : t -> int array
(** Balancer ids in a topological order of the dependency graph (inputs
    before consumers); stable across calls. *)

type wiring = private {
  order : int array;  (** balancer ids in topological order: {!topo_order} *)
  base : int array;
      (** length [size + 1]: the output ports of balancer [b] are
          numbered [base.(b)] to [base.(b + 1) - 1] *)
  next : int array;
      (** [next.(base.(b) + p)] encodes the consumer of port [p] of
          balancer [b]: a balancer id, or [-(i + 1)] for network output
          wire [i] (the encoding of [Cn_runtime.Network_runtime]) *)
  entry : int array;  (** [entry.(i)]: the encoded consumer of network input [i] *)
}
(** The flat wiring image {!create} records alongside the validated
    topology, for passes that walk every port: no lookup, match or
    allocation per port. *)

val wiring : t -> wiring
(** [wiring net] is [net]'s wiring image.  The arrays are shared with
    [net], not copied: read them, never write them.  {!consumer}
    answers the same questions one checked query at a time. *)

val cascade : t -> t -> t
(** [cascade a b] connects the output wires of [a] to the input wires of
    [b] in order, yielding a network computing [b] after [a].
    @raise Invalid_argument if [output_width a <> input_width b]. *)

val parallel : t -> t -> t
(** [parallel a b] places [a] above [b] with no shared wires: input wires
    of the result are those of [a] followed by those of [b], and likewise
    for outputs. *)

val identity : int -> t
(** [identity w] is the balancer-free network of [w] parallel wires.
    @raise Invalid_argument if [w <= 0]. *)

val permute_inputs : Permutation.t -> t -> t
(** [permute_inputs pi net] relabels input wires: input wire [pi(i)] of
    the result feeds whatever input wire [i] of [net] fed (so a token
    entering the result on wire [pi(i)] behaves like a token entering
    [net] on wire [i]).
    @raise Invalid_argument if sizes mismatch. *)

val permute_outputs : Permutation.t -> t -> t
(** [permute_outputs pi net] relabels output wires: output wire [pi(i)]
    of the result carries what output wire [i] of [net] carried.
    @raise Invalid_argument if sizes mismatch. *)

val with_init_states : (int -> Balancer.t -> int) -> t -> t
(** [with_init_states f net] replaces the initial state of every
    balancer: balancer [b] with descriptor [d] gets initial state
    [f b d], which must lie in [\[0, d.fan_out)].  Wiring is unchanged.
    Used for randomized-initialization experiments (paper, Section 7).
    @raise Invalid_argument if some new state is out of range. *)

val randomize_states : seed:int -> t -> t
(** [randomize_states ~seed net] draws every balancer's initial state
    uniformly from its output range — the randomized-balancer variant
    discussed in Section 7 (cf. Herlihy–Tirthapura). *)

val equal : t -> t -> bool
(** Structural equality: identical balancer arrays and wiring. *)

val pp : Format.formatter -> t -> unit
(** One-line summary [w -> t, size n, depth d]. *)
