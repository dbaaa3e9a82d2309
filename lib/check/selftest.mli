(** The checker checking itself: a miniature of the {e pre-fix} service
    protocol with its bugs deliberately preserved, so the test
    suite can prove the explorer still finds them.

    The model is one combining lane in front of a single shared counter
    (the "network"), built over {!Instrumented} atomics:

    - {b lifecycle bug}: [drain_to] grabs the state with an exchange and
      decides the final state from what it read {e before} sweeping — a
      drain whose exchange caught a concurrent shutdown's [st_draining]
      re-opens the service after the shutdown stopped it (the race the
      CAS-elected transitions + sticky stop intent in
      {!Cn_service.Service_core} fix);
    - {b admission bug}: [publish] CASes its cell into a slot, raises the
      parked count only {e afterwards}, and never re-checks the service
      state — a publisher that passed the admission check can park after
      the sweep saw the lane empty, handing its traversal to a helper
      past the validated quiescence point (the parked-before-probe +
      re-check-and-withdraw fix).

    - {b run admission bug}: [run] passes the admission check, wins
      the combining flag and traverses its whole run without
      re-checking the service state under the flag — a shutdown that
      flipped the state in between finds the lane quiet, validates,
      and the run then traverses past the validated quiescence point
      (the re-check-under-the-flag in {!Cn_service.Service_core}'s run
      entry).

    Exploring any of the scenarios must produce a failure; the pinned
    schedules are minimal reproducers found by the explorer, checked in
    as engine regression tests. *)

val lifecycle_race : unit -> Engine.scenario
(** A [drain] racing a [shutdown] on the buggy lifecycle. *)

val admission_race : unit -> Engine.scenario
(** Two increments racing a [shutdown] through the buggy publish. *)

val run_race : unit -> Engine.scenario
(** A 3-op run racing a [shutdown] through the buggy run entry. *)

val lifecycle_schedule : int list
(** A pinned schedule on which {!lifecycle_race} resurrects the stopped
    service. *)

val admission_schedule : int list
(** A pinned schedule on which {!admission_race} mutates the counter
    after the validated quiescence point. *)

val run_schedule : int list
(** A pinned schedule on which {!run_race} traverses after the
    validated quiescence point. *)
