(** The combining-service protocol, factored out as a functor over its
    atomic operations and the network runtime it drives.

    {!Service} instantiates {!Make} with {!Cn_runtime.Atomics.Real} and
    the compiled {!Cn_runtime.Network_runtime} — that instantiation IS
    the production service; there is no second copy of the protocol.
    The deterministic race checker ([Cn_check]) instantiates the same
    functor with instrumented atomics and a model runtime, so every
    interleaving it explores exercises the exact code production runs.

    The protocol invariants the functorization exists to check:

    - {b lifecycle}: [`Stopped] is terminal; a [drain] racing a
      [shutdown] can never re-open a stopped service (transitions are
      CAS-elected, shutdown intent is sticky);
    - {b admission}: no operation's network traversal happens after the
      quiescent validation of a [drain]/[shutdown] that rejected it —
      a publisher that parked against a closing service withdraws its
      cell unless a pre-validation combiner already took it;
    - {b liveness}: every accepted operation's [await] completes; no
      cell stays parked forever;
    - {b runs}: every operation of an admitted run resolves to a value
      or [Closed] — a run entry is taken by a combiner whole or
      withdrawn whole;
    - {b read your own operation}: the service's net count counts an
      operation before the operation's caller can see its value. *)

module type RUNTIME = sig
  type t

  val input_width : t -> int
  val traverse : t -> wire:int -> int
  val traverse_decrement : t -> wire:int -> int
  val traverse_batch : t -> wire:int -> n:int -> f:(int -> int -> unit) -> unit

  val traverse_batch_decrement : t -> wire:int -> n:int -> f:(int -> int -> unit) -> unit
  (** Batched antitoken runs: the combiner drains the decrement half of
      a mixed batch through this instead of per-operation traversals. *)

  val peek : t -> wire:int -> int
  (** The value a token from [wire] followed at once by its antitoken
      would return, read without writing
      ({!Cn_runtime.Network_runtime.peek}): the anchor value of a
      perfectly matched batch. *)

  val quiescent : t -> Cn_runtime.Validator.report
  (** Quiescent-state validation ({!Cn_runtime.Validator}-shaped): only
      called by [drain]/[shutdown] once every lane is quiet. *)

  val net_count : t -> int
  (** Tokens minus antitokens that have exited, from the runtime's own
      state: [drain]/[shutdown] check the service's net count against it
      at the validated quiescence point ([net-agreement]). *)
end

module type S = sig
  type rt
  type t
  type session
  type op = Inc | Dec
  type error = Overloaded | Closed

  type stats = {
    wires : int;
    batches : int array;
    ops_combined : int array;
    max_batch_observed : int array;
    eliminated_pairs : int array;
    rejected : int array;
    total_batches : int;
    total_ops : int;
    total_eliminated_pairs : int;
    total_rejected : int;
    mean_batch : float;
    elimination_rate : float;
  }

  val make :
    ?max_batch:int ->
    ?queue:int ->
    ?elim:bool ->
    ?validate:Cn_runtime.Validator.policy ->
    ?layers:int array ->
    rt ->
    t
  (** Build a service over an already-compiled runtime.  Combined runs
      drain through the runtime's batch walks.  [?layers] is opaque
      per-balancer depth metadata carried for reporting (default
      [[||]]). *)

  val runtime : t -> rt
  val layers : t -> int array
  val input_width : t -> int
  val session : ?wire:int -> t -> session
  val session_wire : session -> int

  val max_batch : t -> int
  (** The most operations one run entry carries; longer runs are split. *)

  val net : t -> int
  (** Increments minus decrements of every completed batch: the sum of
      one padded word per lane, each written only by the lane's
      combining-flag holder, so a read costs one load per input wire.
      A batch adds its nonzero net to its lane's word after its
      traversals and before any of its operations returns, so a read
      that starts after an operation returned counts it.  Equal to the
      runtime's net count at quiescence, which [drain] and [shutdown]
      check. *)

  val run :
    session -> op array -> int array -> off:int -> len:int -> (unit, int * error) result
  (** [run s ops vals ~off ~len] performs [ops.(off) .. ops.(off+len-1)]
      as one concurrent run and writes each operation's value to the
      same index of [vals].  The run is admitted with one state check
      and one combining-flag CAS per [max_batch] chunk: the flag holder
      drains its chunk through the combiner together with whatever other
      sessions parked on the lane (elimination covers the whole batch);
      a busy flag publishes the chunk as one lane entry that the current
      combiner drains whole.  [Error (k, e)]: the operations before
      index [k] completed, those from [k] on were not performed.
      {!increment}, {!decrement} and {!submit} are runs of one. *)

  val increment : session -> (int, error) result
  val decrement : session -> (int, error) result
  val submit : session -> op -> (unit, error) result
  val await : session -> int

  val lifecycle : t -> [ `Running | `Draining | `Stopped ]
  (** The service's current lifecycle state.  [`Stopped] is terminal. *)

  val drain : ?policy:Cn_runtime.Validator.policy -> t -> Cn_runtime.Validator.report
  val shutdown : ?policy:Cn_runtime.Validator.policy -> t -> Cn_runtime.Validator.report
  val stats : t -> stats
  val stats_json : t -> string
end

module Make (A : Cn_runtime.Atomics.S) (R : RUNTIME) : S with type rt = R.t
