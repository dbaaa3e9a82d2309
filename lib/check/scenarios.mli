(** The checked scenarios: the {e real} service protocol
    ({!Cn_service.Service_core.Make} — the same functor body production
    runs) instantiated with {!Instrumented} atomics over a {!Model_net},
    driven by 2–4 model domains through tiny C(2,2) / C(4,4) networks.

    Every scenario's oracle checks, on the final state:

    - {b stopped is terminal}: once any [shutdown] has returned, the
      service is [`Stopped] — no racing [drain] resurrected it;
    - {b frozen after stop}: a stopped service's exit distribution is
      exactly what its last quiescent validation saw — no operation
      traversed the network past the validation point;
    - {b validations are quiescent}: every report a [drain]/[shutdown]
      produced passed its step-property and conservation checks;
    - {b conservation}: tokens handed out equal successful increments
      minus successful decrements (Theorem 4.2's quiescent step property
      plus value conservation);
    - {b step property} on the final distribution;
    - {b net count}: the service's {!Cn_service.Service_core.S.net}
      equals successful increments minus successful decrements;
    - {b liveness} (via the engine): every accepted operation's wait
      completes — a cell parked forever or an [await] that never
      returns shows up as a deadlock.

    The module {!Svc} is exposed so tests can build bespoke scenarios
    against the instrumented instantiation. *)

module Svc : Cn_service.Service_core.S with type rt = Model_net.t

val drain_vs_shutdown : unit -> Engine.scenario
(** One worker incrementing while a [drain] and a [shutdown] race on a
    C(2,2) service — the lifecycle-race scenario. *)

val late_admission : unit -> Engine.scenario
(** Two workers contending for one lane's combiner flag (forcing the
    park/publish path) while a [shutdown] races the admission check —
    the admission-hole scenario.  Elimination off, so successful
    increment values must also be distinct. *)

val mixed_ops_drain : unit -> Engine.scenario
(** Increments and decrements (elimination on) racing a mid-flight
    [drain] that re-opens the service. *)

val submit_await_shutdown : unit -> Engine.scenario
(** The asynchronous [submit]/[await] path racing a [shutdown]. *)

val c44_shutdown : unit -> Engine.scenario
(** Three workers on distinct wires of a C(4,4) network racing a
    [shutdown] — wider network, checks the oracles beyond one lane. *)

val run_vs_drain : unit -> Engine.scenario
(** A 3-op mixed {!Cn_service.Service_core.S.run} on a lane a second
    session contends for (elimination on), racing a [drain].  Beyond
    the shared oracle, every operation of the run must resolve to a
    value or [Closed], exactly once. *)

val run_vs_shutdown : unit -> Engine.scenario
(** The same run racing a [shutdown]: nothing of the run may traverse
    past the validated quiescence point. *)

val run_cap : unit -> Engine.scenario
(** Two runs on one lane, of 3 and 2 operations, whose total overflows
    [max_batch] 4: no combined batch may serve more than [max_batch]
    operations, and every increment value is distinct. *)

val read_own_op : unit -> Engine.scenario
(** Two sessions on one lane each increment once, then read
    {!Cn_service.Service_core.S.net}: whichever fiber's increment is
    drained by the other's combiner, each read must count the reader's
    own operation (the word is added before any waiter is released). *)

val all : (string * (unit -> Engine.scenario)) list
(** Every scenario above, keyed by name, in a stable order. *)
