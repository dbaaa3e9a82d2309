(** Multi-domain measurement harness for shared counters (experiment E5;
    the real-system side of the comparison reported in Section 1.3.1).

    Domains beyond the host's cpu count
    ([Domain.recommended_domain_count ()]) timeshare rather than run in
    parallel, so such rows understate contention effects; relative
    per-implementation shapes remain indicative, and correctness checks
    are unaffected.

    Every run is one {!Domain_pool.round}.  Repeated measurements
    should share a {!Domain_pool.t} via [?pool]; without one, each run
    opens a pool of [domains] workers and shuts it down afterwards,
    paying the spawn and join outside the timed region. *)

type result = {
  counter : string;  (** implementation name *)
  domains : int;
  total_ops : int;
  seconds : float;
  ops_per_sec : float;
}

val max_calibration_ops : int
(** Ceiling on the per-domain op count the calibration escalation in
    {!throughput} will reach, [1 lsl 24]. *)

val next_calibration_ops : domains:int -> ops_per_domain:int -> int option
(** The next per-domain op count the calibration escalation would try:
    [Some (ops_per_domain * 2)] (at least [1]), or [None] when
    escalation must stop — the cap {!max_calibration_ops} is reached,
    or doubling / the resulting [domains * ops] total would overflow
    [max_int].  All overflow checks divide; nothing is multiplied
    before it is known safe, so the function is total for every
    [ops_per_domain] up to [max_int].  Exposed for the regression test
    pinning the overflow behaviour near [max_int]. *)

val throughput :
  ?pool:Domain_pool.t ->
  make:(unit -> Shared_counter.t) ->
  domains:int ->
  ops_per_domain:int ->
  unit ->
  result
(** [throughput ~make ~domains ~ops_per_domain ()] runs [domains] domains
    over a fresh counter, each performing [ops_per_domain] increments,
    and reports aggregate throughput.  The domains are released
    together and the seconds cover the concurrent region only, up to
    the last one checking out.  With [?pool] the round runs on that
    pool's workers (requires [domains <= Domain_pool.size pool]).

    Rounds too short for the wall clock to resolve are re-run with the
    per-domain op count doubled (fresh counter each attempt) until the
    timer registers, so the reported [ops_per_sec] is always positive
    and [total_ops] reflects the ops actually measured.
    @raise Invalid_argument if [domains <= 0], [ops_per_domain < 0], or
    [domains * ops_per_domain] overflows.
    @raise Failure if the clock never advances even at the escalation
    cap (a broken timing environment). *)

val run_collect :
  ?pool:Domain_pool.t ->
  ?validate:Validator.policy ->
  make:(unit -> Shared_counter.t) ->
  domains:int ->
  ops_per_domain:int ->
  unit ->
  int array array
(** [run_collect ~make ~domains ~ops_per_domain ()] performs the same run
    but returns the values each domain obtained, for correctness
    checks.  After the run, [?validate] (default [Log]) applies
    {!Validator.collected_values} to the values and — for
    network-backed counters — {!Validator.quiescent_runtime} to the
    quiesced network.
    @raise Validator.Invalid under [~validate:Strict] when a check
    fails. *)

val values_are_a_range : int array array -> bool
(** [values_are_a_range vss] holds iff the collected values are exactly
    [{0, ..., total - 1}] with no duplicates — the [Fetch&Increment]
    contract of a quiesced counting network. *)
