(** SplitMix64-style avalanche hashing over OCaml's tagged ints — the
    one mixing finalizer the whole system shares.

    Consumer: the fabric's session routing, which sends a key to
    shard [mix key mod shards] ([Cn_fabric.Fabric_core.S.route]). *)

val mix : int -> int
(** [mix x] is a SplitMix64-style finalizer over the tagged-int range:
    two xorshift-multiply rounds plus a final shift, result masked
    into [[0, max_int]].  The multipliers are 62-bit-safe variants of
    the canonical 64-bit constants — all we need is avalanche (every
    input bit flips ~half the output bits), not cross-language
    reproducibility.  Deterministic and allocation-free. *)
