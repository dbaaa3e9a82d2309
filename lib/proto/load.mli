(** The client side of the loopback rig: drive a countnetd over TCP
    with the same synthetic populations {!Cn_service.Workload} runs
    in-process — Zipf/uniform skew over a client's connections,
    closed-loop think time or bursty arrivals, a decrement ratio with
    per-client prefix non-negativity — plus the two things only a wire
    can measure: per-operation round-trip latency and behaviour under
    connection loss.

    Each of [clients] threads owns [conns_per_client] connections
    (server-side, each connection is its own service session) and
    performs [ops_per_client] operations, choosing a connection per
    operation by [skew].  Round-trip latencies are recorded into a
    per-thread {!Cn_runtime.Metrics.Reservoir} and merged into one
    p50/p95/p99 summary, the one [countnet load] prints.

    Backpressure discipline matches Workload: an [Overloaded] reply
    sheds the operation (counted in [rejected]); [Closed] means the
    server is draining (counted in [closed]).  A dead connection
    (server gone, mid-load SIGTERM) is counted in [disconnects] and the
    thread carries on with its surviving connections — the rig is built
    to outlive the server so shutdown tests can assert on what the
    clients saw. *)

type spec = {
  clients : int;  (** concurrent client threads *)
  conns_per_client : int;
  ops_per_client : int;
  dec_ratio : float;  (** in [[0, 1]]; prefix non-negative per thread *)
  skew : Cn_service.Workload.skew;  (** connection-pick distribution *)
  arrival : Cn_service.Workload.arrival;
  seed : int;
}

val default : spec
(** [{ clients = 2; conns_per_client = 2; ops_per_client = 1000;
      dec_ratio = 0.; skew = Uniform; arrival = Closed 0.; seed = 42 }] *)

type stats = {
  completed : int;  (** operations that returned a [Value] *)
  increments : int;
  decrements : int;
  rejected : int;  (** shed on [Overloaded] *)
  closed : int;  (** refused because the service was draining/stopped *)
  disconnects : int;  (** connections that died mid-run *)
  seconds : float;  (** wall clock of the concurrent phase *)
  ops_per_sec : float;  (** [completed /. seconds] *)
  busy_seconds : float;  (** [seconds] minus mean injected idle time *)
  busy_ops_per_sec : float;
  latency : Cn_runtime.Metrics.latency option;
      (** merged round-trip summary (ns), [None] if nothing completed *)
}

val run : ?host:string -> port:int -> spec -> stats
(** Connect and drive.  Each thread's random stream derives from
    [spec.seed] and its index, so a run is reproducible up to
    scheduling and server behaviour.  A connection that cannot be
    opened (refused, or a [host] that is not a numeric IPv4 address)
    counts in [disconnects]; a thread with none left returns at once.
    @raise Invalid_argument on a malformed spec. *)
