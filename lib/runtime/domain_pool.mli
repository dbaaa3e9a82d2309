(** A reusable pool of worker domains for repeated timed runs, and the
    one place the runtime, the service workload and the benches spawn
    domains.

    Spawning a domain costs a fresh systhread, stack, and minor heap;
    a throughput sweep that spawns and joins for every
    (counter, domain-count) cell pays that setup hundreds of times and
    measures cold domains.  A pool spawns its workers once; each
    {!run} reuses them, gated by a sense barrier so the timed region
    covers concurrent execution only.

    A pool is owned by the domain that created it; {!run} and
    {!shutdown} must be called from that domain, one run at a time. *)

type t
(** A pool of spawned worker domains. *)

val create : int -> t
(** [create size] spawns [size] workers, idle until the first {!run}.
    If a spawn fails (the runtime caps the number of live domains), the
    workers already spawned are stopped and joined before the spawn's
    exception is re-raised, so a failed [create] holds no domains.
    @raise Invalid_argument if [size <= 0]. *)

val size : t -> int
(** Number of workers in the pool. *)

val run : t -> domains:int -> (int -> unit) -> float
(** [run pool ~domains body] executes [body pid] on workers
    [0 .. domains - 1] and returns the wall-clock seconds between the
    instant all participants were released and the last one finishing.
    Workers beyond [domains] sit the round out.

    If a job raises, the round still completes (every participant
    checks out), the first exception raised is re-raised here, and the
    pool remains usable for further rounds — an exception poisons the
    round, never the pool.
    @raise Invalid_argument if [domains] is not in [1 .. size pool], or
    if the pool has been shut down. *)

val shutdown : t -> unit
(** [shutdown pool] terminates and joins the workers.  Idempotent. *)

val with_pool : int -> (t -> 'a) -> 'a
(** [with_pool size f] runs [f] over a fresh pool and shuts it down
    afterwards, whether [f] returns or raises. *)

val round : ?pool:t -> domains:int -> (int -> unit) -> float
(** [round ?pool ~domains body] is one timed {!run} of [body] on
    [domains] workers: on [pool] when given, otherwise on a pool of
    [domains] workers opened for this round and shut down after it (the
    shutdown's joins fall outside the timed region).
    @raise Invalid_argument as {!run}. *)
