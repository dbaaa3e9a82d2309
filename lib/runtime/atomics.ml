module type S = sig
  type 'a t

  val make : 'a -> 'a t
  val make_packed : 'a -> 'a t
  val make_stat : int -> int t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
  val compare_and_set : 'a t -> 'a -> 'a -> bool
  val fetch_and_add : int t -> int -> int
  val incr : int t -> unit
  val sum : int t array -> int
  val relax : unit -> unit
  val nap : unit -> unit
end

module Real = struct
  type 'a t = 'a Atomic.t

  let make v = Padded_atomic.pad (Atomic.make v)
  let make_packed v = Atomic.make v
  let make_stat v = Atomic.make v
  let get = Atomic.get
  let set = Atomic.set
  let compare_and_set = Atomic.compare_and_set
  let fetch_and_add = Atomic.fetch_and_add
  let incr = Atomic.incr

  (* A loop over inlined loads: one call for the whole array. *)
  let sum a =
    let s = ref 0 in
    for i = 0 to Array.length a - 1 do
      s := !s + Atomic.get (Array.unsafe_get a i)
    done;
    !s
  let relax = Domain.cpu_relax

  (* Same patience as Domain_pool's waiters. *)
  let nap () = Unix.sleepf 0.0002
end
