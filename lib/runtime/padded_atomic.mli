(** Banks of cache-line-padded atomic integers.

    OCaml 5 allocates each [int Atomic.t] as a one-word heap block, so a
    bank built with [Array.init n (fun _ -> Atomic.make 0)] places the
    atomics on adjacent words: every update invalidates its neighbours'
    cache lines (false sharing), reintroducing exactly the memory
    contention counting networks exist to spread out.  A padded bank
    instead gives each slot its own cache line, so concurrent tokens
    crossing *different* balancers never contend in the memory system.

    The padding trick (cf. [multicore-magic]) re-allocates each atomic
    inside a block widened to a full cache line; the padding travels with
    the block through minor and major collections. *)

type t
(** A fixed-size bank of atomic integer slots. *)

val pad : 'a -> 'a
(** [pad x] re-allocates the heap block of [x] widened to a full cache
    line and returns the copy — the primitive under every padded slot,
    exposed so other layers (e.g. {!Atomics.Real}) can pad individual
    atomics without building a bank.  [x] must be a heap block (an
    [Atomic.t], a record, ...), not an immediate. *)

val make : ?padded:bool -> int -> init:(int -> int) -> t
(** [make n ~init] is a bank of [n] slots, slot [i] starting at
    [init i].  [~padded] (default [true]) gives every slot a private
    cache line; [~padded:false] packs the slots adjacently, for banks
    that trade false sharing for footprint (sharded tallies).
    @raise Invalid_argument if [n < 0]. *)

val length : t -> int
(** Number of slots. *)

val is_padded : t -> bool
(** Whether the bank was built with per-slot cache-line padding. *)

val get : t -> int -> int
(** [get bank i] atomically reads slot [i]. *)

val set : t -> int -> int -> unit
(** [set bank i v] atomically writes [v] to slot [i]. *)

val fetch_and_add : t -> int -> int -> int
(** [fetch_and_add bank i d] atomically adds [d] to slot [i] and
    returns the previous value. *)

val compare_and_set : t -> int -> int -> int -> bool
(** [compare_and_set bank i seen v] installs [v] in slot [i] iff it
    still holds [seen]. *)

val incr : t -> int -> unit
(** [incr bank i] atomically increments slot [i]. *)
