(** Contention-model projection of multicore throughput from single-core
    measurements.

    The repo's benchmarks run on hosts where OCaml domains may timeshare
    one core, so measured multi-domain curves understate contention.
    This module combines the two things that {e are} trustworthy on such
    a host — the measured single-domain cost of a balancer crossing, and
    the stall-counting contention simulator ({!Cn_sim.Contention}, after
    Dwork-Herlihy-Waarts) — into projected throughput curves:

    {v token time(n) = depth · crossing_ns
                     + stalls/token(n) · stall_factor · crossing_ns v}

    For the central [Fetch&Increment] counter, stalls/token is [n - 1]
    (every concurrent process stalls the winner's word), so the
    projected rate saturates at the hot-spot ceiling; for a counting
    network, stalls/token comes from simulating the network at
    concurrency [n] under a fair randomized schedule.  Plotting both
    reproduces the paper's crossover story (Theorem 6.7: amortized
    contention O(n·lg w / w)) from first principles plus one measured
    number.

    [stall_factor] — the cost of one stall (a cache-line transfer to a
    contended word) in units of an uncontended crossing — is the
    model's one free knob.  The default ({!default_stall_factor} = 8)
    is in the range reported for cross-core transfers on commodity
    multicores; benchmarks record the factor they used alongside every
    projected row so the model is auditable. *)

val default_stall_factor : float
(** [8.] — stall cost in crossings when the caller does not override. *)

type calibration = {
  crossing_ns : float;  (** measured cost of one uncontended crossing *)
  stall_factor : float;  (** stall cost as a multiple of [crossing_ns] *)
}

val calibrate : ?stall_factor:float -> crossing_ns:float -> unit -> calibration
(** Build a calibration from an already-computed per-crossing cost (see
    [Cn_runtime.Harness.calibrate_crossing_ns]).
    @raise Invalid_argument unless both parameters are positive. *)

val of_throughput : ?stall_factor:float -> depth:int -> ops:int -> seconds:float -> unit -> calibration
(** [of_throughput ~depth ~ops ~seconds ()] derives [crossing_ns] from a
    single-domain throughput measurement of [ops] operations, each
    crossing [depth] balancers, taking [seconds].
    @raise Invalid_argument on non-positive parameters. *)

val stall_ns : calibration -> float
(** Projected cost of one stall, [stall_factor · crossing_ns]. *)

type point = {
  domains : int;  (** projected concurrency [n] *)
  stalls_per_token : float;  (** model stalls per operation at [n] *)
  token_ns : float;  (** projected per-operation latency *)
  ops_per_sec : float;  (** projected aggregate rate, [n · 10⁹ / token_ns] *)
}

val project_central : calibration -> domains:int -> point
(** Projected throughput of the central single-word counter at [domains]
    concurrent processes (stalls/token [= domains - 1]).
    @raise Invalid_argument if [domains <= 0]. *)

val project_network :
  ?seed:int -> ?m_per_n:int -> calibration -> Cn_network.Topology.t -> domains:int -> point
(** Projected throughput of a balancing network at [domains] concurrent
    processes.  Stalls/token is measured by running
    [?m_per_n · domains] tokens (default 64) through
    {!Cn_sim.Contention.measure} under [Scheduler.Random ?seed]
    (default 1) — the fair-average schedule, not the adversarial worst
    case.
    @raise Invalid_argument if [domains <= 0] or [m_per_n <= 0]. *)

val sweep_central : calibration -> domains_list:int list -> point list
(** {!project_central} at each concurrency. *)

val sweep_network :
  ?seed:int -> ?m_per_n:int -> calibration -> Cn_network.Topology.t -> domains_list:int list -> point list
(** {!project_network} at each concurrency. *)

val crossover : ?seed:int -> ?m_per_n:int -> ?max_domains:int -> calibration -> Cn_network.Topology.t -> int option
(** [crossover c net] is the smallest projected concurrency (scanned up
    to [?max_domains], default 1024) at which the network's projected
    rate beats the central counter's, or [None] if it never does in
    range — the projection's answer to the paper's crossover question
    (compare [Bounds.crossover_concurrency]). *)
