(** Consistent-hash session routing for the shard fabric.

    A hash ring with virtual nodes (Karger-style consistent hashing):
    each shard owns 64 pseudo-random ring points, and a key
    routes to the shard owning the first point at or after the key's
    hash.  Because point positions depend only on the (shard id,
    replica) pair, changing the shard set moves only the keys in the
    ring segments that actually changed hands:

    - adding one shard to an [n]-shard ring remaps an expected
      [1/(n+1)] fraction of keys, all of them {e to} the new shard;
    - removing a shard remaps exactly the keys it owned, and no key
      moves between two surviving shards.

    64 virtual nodes per shard balance a 1-to-8-shard ring to within a
    few percent.  Routers are immutable values; the fabric builds one
    for its fixed shard set.  {!route} is pure (hash + binary search)
    and safe from any domain. *)

type t

val make : int list -> t
(** [make shards] builds the ring over the given shard ids.
    @raise Invalid_argument if [shards] is empty. *)

val route : t -> int -> int
(** [route t key] is the shard id owning [key].  Deterministic: the
    same key on the same shard set always lands on the same shard. *)
