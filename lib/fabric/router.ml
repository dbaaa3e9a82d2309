(* Consistent-hash session routing for the shard fabric.

   A classic ring with virtual nodes: every shard contributes [vnodes]
   points, a key routes to the shard owning the first point clockwise
   from the key's own hash.  Point positions depend only on (shard id,
   replica index), never on the shard set, so adding or removing a
   shard moves exactly the keys whose successor point belonged to the
   ring segments that changed hands — the 1/(n+1) remap fraction the
   property tests pin.

   The ring is immutable, built once for the fabric's fixed shard set.
   Routing is a hash plus a binary search — no shared state, safe from
   any domain. *)

(* The ring only needs avalanche, which {!Cn_runtime.Splitmix}
   provides. *)
let mix = Cn_runtime.Splitmix.mix

type t = {
  hashes : int array; (* point positions, sorted ascending *)
  owners : int array; (* owners.(i) = shard owning hashes.(i) *)
}

let vnodes = 64

let point shard replica = mix (((shard + 1) * 1_000_003) + (replica * 8191))

let make shards =
  if shards = [] then invalid_arg "Router.make: at least one shard";
  let ids = Array.of_list shards in
  let points =
    Array.init
      (Array.length ids * vnodes)
      (fun i -> (point ids.(i / vnodes) (i mod vnodes), ids.(i / vnodes)))
  in
  Array.sort compare points;
  { hashes = Array.map fst points; owners = Array.map snd points }

let route t key =
  let h = mix key in
  let n = Array.length t.hashes in
  (* first point with hash >= h, wrapping to 0 *)
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.hashes.(mid) < h then lo := mid + 1 else hi := mid
  done;
  t.owners.(if !lo = n then 0 else !lo)
