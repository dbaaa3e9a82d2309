(** Fabric resize scenarios: the {e real} shard-fabric protocol
    ({!Cn_fabric.Fabric_core.Make} — the same functor body production
    runs) instantiated with {!Instrumented} atomics over the checker's
    model service ({!Scenarios.Svc} plus a fault-injection flag that makes one shutdown raise), driven over
    miniature C(2,2) shards.

    Every scenario's oracle checks, on the final state:

    - {b closed is terminal}: once a fabric [shutdown] has returned,
      [closed] holds;
    - {b validations are quiescent}: every validation any spawned model
      network recorded — including those run by the hot-resize drain —
      passed;
    - {b step property} on every spawned network's final distribution
      (pre-resize services included);
    - {b resizes succeed}: no resize may fail (certification is
      stubbed [Ok]);
    - {b no spurious refusal}: an operation may only return [Closed]
      if the scenario actually shuts the fabric down — an operation
      that meets a racing resize must wait it out and run on the new
      service, never refuse;
    - {b conservation}: the fabric's global [read] equals successful
      increments minus successful decrements, across every resize —
      the base-fold accounting;
    - {b continuity} (single-shard, elimination off): the shard's value
      stream stays duplicate-free across the base fold at a resize;
    - {b liveness} (via the engine): an operation waiting out a resize
      resumes once the shard is released — a waiter never released
      shows up as a deadlock — and a shutdown never waits on a shard
      that nobody will release.

    Certification is stubbed to [Ok]: the eight-pass pipeline is pure
    and deterministic (no schedule points), and has its own suite. *)

module Fab : Cn_fabric.Fabric_core.S with type topo_key = Cn_network.Topology.t

val resize_vs_submit : unit -> Engine.scenario
(** Two workers on distinct keys of a one-shard fabric racing a
    hot-resize of that shard — operations must complete before the
    quiescent validation point or wait the resize out and complete
    exactly once on the new service. *)

val resize_vs_resize : unit -> Engine.scenario
(** Two resizers (each retrying [Busy] until it owns the shard) force
    back-to-back swaps of one shard under a racing worker — a worker
    waiting out the first swap may find the second already claiming
    the shard, and must land on the last service exactly once (a
    worker never released deadlocks). *)

val drain_vs_route : unit -> Engine.scenario
(** Workers pinned to both shards of a two-shard fabric racing a
    fabric-wide [drain] (per-shard quiesce/validate/re-admit). *)

val shutdown_vs_submit : unit -> Engine.scenario
(** A worker racing the terminal fabric [shutdown]; the operation
    completes before the validation point or fails [Closed]. *)

val shutdown_vs_shutdown : unit -> Engine.scenario
(** Two stoppers and a worker on a two-shard fabric: the second
    shutdown of a shard finds it stopped instead of waiting for a claim
    nobody releases, and both shutdowns return equal reports. *)

val shutdown_after_failstop : unit -> Engine.scenario
(** A model service whose first shutdown raises, as a Strict
    validation failure does, under a resizer, a stopper and a worker:
    whichever hits the failure records it once, the fail-stopped shard
    counts as stopped, and every fiber returns with every shard's
    service stopped. *)

val run_vs_resize : unit -> Engine.scenario
(** A 3-op mixed {!Cn_fabric.Fabric_core.S.run} on the shard a
    hot-resize swaps: routed once, the run completes on the old service
    before its validation point, or waits the resize out and retries
    its unserved remainder as one run on the new service.  Every
    operation must resolve to a value exactly once, with the read
    conserved. *)

val shutdown_vs_resize : unit -> Engine.scenario
(** A worker, a resizer and a stopper on a one-shard fabric: a resize
    that succeeds racing the terminal [shutdown].  The shutdown
    returns, every shard's service ends stopped, the resize returns
    [Ok], [Busy] or [Fabric_closed], and the read is conserved. *)

val resize_spawn_fails : unit -> Engine.scenario
(** {!shutdown_vs_resize} with a spawn that raises once the old
    service is shut down: a resize that claims the shard re-raises
    with the fabric fail-stopped and the shard stopped (a shard left
    claimed deadlocks the worker and the stopper). *)

val read_vs_resize : unit -> Engine.scenario
(** A reader, an increment on shard 0 of a two-shard fabric and a
    hot-resize of that shard: the read returns, is 0 or 1, and sees the
    increment whenever it starts after the increment returned — before,
    during or after the swap that folds the count into [base]. *)

val all : (string * (unit -> Engine.scenario)) list
(** Every scenario above, keyed by name, in a stable order. *)
