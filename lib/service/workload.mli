(** Synthetic client populations for driving a {!Service.t} — the
    knobs experiments care about when reproducing the paper's
    high-contention regime ([n] processes ≫ [w] wires).

    A workload runs [domains] clients; each owns
    [sessions_per_domain] service sessions and performs
    [ops_per_domain] operations, choosing a session per operation
    according to [skew] and pacing itself according to [arrival].
    [dec_ratio] is the probability an operation is a
    [Fetch&Decrement]; the generator never lets a client's decrements
    outnumber its increments (every prefix is non-negative), so the
    network-wide token count stays legal for the step property.

    [Overloaded] rejections are counted and the operation dropped —
    the open-loop "shed on backpressure" discipline; [Closed] is also
    counted under [rejected]. *)

type skew =
  | Uniform  (** every session equally likely *)
  | Zipf of float
      (** Zipf-distributed session popularity with the given exponent
          [alpha > 0]; larger skews traffic onto fewer wires, raising
          combining and elimination opportunities *)

type arrival =
  | Closed of float
      (** closed loop: think for the given seconds ([0.] = back to
          back) between an operation's completion and the next
          submission *)
  | Bursty of { burst : int; pause : float }
      (** open-loop bursts: [burst] back-to-back operations, then a
          pause of [pause] seconds *)

val skew_of_string : string -> (skew, string) result
(** [skew_of_string s] parses the textual skew grammar shared by the
    CLI's in-process workload and the TCP load rig: [uniform] or
    [zipf:ALPHA] with [ALPHA > 0].  [Error] carries the usage message. *)

val arrival_of_string : string -> (arrival, string) result
(** [arrival_of_string s] parses [closed] (back to back),
    [closed:THINK] ([THINK >= 0] seconds) or [burst:N:PAUSE]
    ([N >= 1], [PAUSE >= 0]).  [Error] carries the usage message. *)

type spec = {
  domains : int;
  ops_per_domain : int;
  sessions_per_domain : int;
  dec_ratio : float;  (** in [[0, 1]] *)
  skew : skew;
  arrival : arrival;
  seed : int;
}

val default : spec
(** [{ domains = 4; ops_per_domain = 1000; sessions_per_domain = 2;
      dec_ratio = 0.; skew = Uniform; arrival = Closed 0.; seed = 42 }] *)

type stats = {
  completed : int;  (** operations that returned a value *)
  increments : int;
  decrements : int;
  rejected : int;  (** operations shed on [Overloaded]/[Closed] *)
  achieved_dec_ratio : float;
      (** [decrements /. completed] ([0.] when nothing completed) —
          the decrement fraction actually emitted.  A drawn decrement
          that lands on a zero balance is banked and paid as soon as
          the balance allows (never dropped), so on long runs this
          converges on [spec.dec_ratio] for ratios below [0.5]; above
          [0.5] prefix non-negativity caps it near [0.5] (each
          decrement needs a preceding increment), which is inherent,
          not drift. *)
  seconds : float;  (** wall-clock time of the concurrent phase *)
  ops_per_sec : float;
      (** [completed /. seconds] — the {e offered}-load rate, including
          injected think/burst idle time.  Bench rows report this one
          (it is what an operator observes) with [busy_ops_per_sec]
          alongside. *)
  busy_seconds : float;
      (** wall-clock seconds minus the mean measured sleep time across
          domains — the time actually spent in service code *)
  busy_ops_per_sec : float;
      (** [completed /. busy_seconds] — the service-time rate; equals
          [ops_per_sec] when the arrival process injects no idle time *)
}

val session_cdf : skew -> int -> float array
(** [session_cdf skew n] is the cumulative distribution over [n]
    sessions that {!run} samples from: entry [i] is the probability of
    choosing a session [<= i].  Entries are nondecreasing, within
    [[0, 1]], and the last entry is exactly [1.0] (Zipf weights are
    normalised in floating point; the rounding residue is clamped so
    the last session is never underweighted).  Exposed for the TCP
    load rig and for property tests.
    @raise Invalid_argument if [n < 1] or a [Zipf] exponent is [<= 0.]. *)

val pick : Random.State.t -> float array -> int
(** [pick rng cdf] samples an index from a {!session_cdf} by inverse
    transform: the first [i] with [u < cdf.(i)] for a uniform [u]. *)

val run : ?pool:Cn_runtime.Domain_pool.t -> Service.t -> spec -> stats
(** [run svc spec] drives [svc] with the population described by
    [spec] and reports what happened.  Sessions are registered up
    front (round-robin over the wires, in domain-major order) and each
    domain's random stream is derived from [spec.seed] and its id, so
    a run is reproducible up to scheduling.  The clients run as one
    {!Cn_runtime.Domain_pool.round}: on [?pool]'s warmed workers when
    given (requires [spec.domains <= Domain_pool.size pool]), otherwise
    on a pool opened for this run.

    The service is {e not} drained here; callers decide when to
    {!Service.drain} and with which policy.
    @raise Invalid_argument on a malformed spec ([domains < 1],
    [ops_per_domain < 0], [sessions_per_domain < 1], [dec_ratio]
    outside [[0, 1]], [Zipf] exponent [<= 0.], [burst < 1], negative
    pause/think time). *)
