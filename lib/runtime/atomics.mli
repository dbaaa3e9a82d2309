(** The atomic-operation vocabulary of the service layer, as a
    signature — so the same protocol code can run over the real
    hardware atomics (production) or over instrumented atomics that
    yield to a deterministic scheduler at every access
    ({!Cn_check.Engine}-style model checking).

    {!Service_core.Make} is a functor over {!S}; {!Real} is the
    default, zero-surprise instantiation (each operation is a direct
    [Stdlib.Atomic] call).  The checker library provides the second
    implementation, where [get]/[set]/[compare_and_set]/
    [fetch_and_add] are controller yield points and [relax]/[nap]
    deschedule the model domain until another domain writes. *)

module type S = sig
  type 'a t
  (** An atomic reference. *)

  val make : 'a -> 'a t
  (** A fresh atomic holding the given value.  Under instrumentation
      every access to it is a scheduler decision point and its value is
      part of the explored state. *)

  val make_packed : 'a -> 'a t
  (** A fresh atomic with the protocol role of {!make} but no layout
      promise: the real implementation leaves it unpadded, for arrays
      of words whose neighbours are mostly idle.  The instrumented
      implementation is exactly {!make}, so choosing it never changes
      the explored state space. *)

  val make_stat : int -> int t
  (** A fresh atomic for a {e statistics counter}: a single-writer
      tally that never influences control flow.  The real
      implementation is identical to {!make}; the instrumented one
      excludes the cell from yield points and state hashing so
      monotonically growing counters do not blow up the explored state
      space.  Using it for anything a protocol branches on is unsound. *)

  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit

  val compare_and_set : 'a t -> 'a -> 'a -> bool
  (** Same equality contract as [Stdlib.Atomic.compare_and_set]:
      physical comparison of the current value against [seen]. *)

  val fetch_and_add : int t -> int -> int
  val incr : int t -> unit

  val sum : int t array -> int
  (** The sum of the atomics' values, each read with {!get} in index
      order: not a snapshot, so under writers it may mix old and new
      values.  Real: one call whose loads are inlined, which is what
      makes a per-lane count cheap to read.  Instrumented: one yield
      point per element, as a loop of {!get}s. *)

  val relax : unit -> unit
  (** A failed-spin hint: the caller observed no progress and is about
      to retry.  Real: [Domain.cpu_relax].  Instrumented: deschedule
      until another model domain performs a write (a pure spin retry
      against unchanged shared state is guaranteed to fail again, so
      skipping ahead loses no interleavings). *)

  val nap : unit -> unit
  (** A longer backoff after a spin budget is exhausted.  Real: a
      sub-millisecond [Unix.sleepf].  Instrumented: same as {!relax}. *)
end

module Real : S with type 'a t = 'a Atomic.t
(** The production implementation.  [make] pads each atomic onto its
    own cache line (via {!Padded_atomic.pad}) because the hot
    coordination words — combiner flags, parked counts, a cell's
    [done_], the lifecycle words — are exactly the kind of adjacent
    one-word blocks that false-share.  [make_packed] and [make_stat]
    are plain unpadded atomics.  The service's submission slots are
    packed: a lane holds [queue] of them (64 by default) on every
    input wire, yet a served lane rarely has more than a few parked at
    once, so padding them cost a 144-byte block per slot at
    [Service.create] and bought no measured throughput
    (EXPERIMENTS.md, "Packed submission slots"). *)
