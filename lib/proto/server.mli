(** [countnetd]'s engine: a TCP front-end for a {!Cn_service.Service}
    or a sharded {!Cn_fabric.Fabric}.

    Each accepted connection gets a dedicated handler thread and its
    own backend {e session} (sessions are single-owner, so the mapping
    is exactly one-to-one); request frames are served in order on that
    session:

    - [Inc]/[Dec] reply [Value]: the consecutive [Inc]/[Dec] frames of
      one [read] are handed to the session as one {!Service.run}, so
      the combiner serves them as one batch and eliminates
      token/antitoken pairs across it.  The service's bounded-queue
      backpressure ([Error Overloaded]) and lifecycle refusals
      ([Error Closed]) surface as the protocol-level
      [Overloaded]/[Closed] replies for the refused part of the run —
      the client decides whether to retry, shed, or back off;
    - [Read] replies with the counter's current value (net tokens
      handed out, derived from the runtime's assignment cells) without
      traversing;
    - [Drain] runs {!Service.drain} — quiesce, validate the step
      property and token conservation, re-admit — and replies
      [Drained] with the validator's verdict;
    - [Stats] replies with a JSON document nesting the server's
      connection and read counters and {!Service.report_json}.

    A framing error from a connection is answered with a best-effort
    [Error_reply] and the connection is dropped; other connections are
    unaffected.

    {2 Pipelining and writes}

    Replies go out in request order, one per request.  The handler
    decodes every complete frame one [read] delivered.  It collects
    consecutive [Inc]/[Dec] frames into one run (up to the service's
    [max_batch]); a [Read], [Drain] or [Stats], a framing error or the
    end of the read ends the run, whose replies are encoded before the
    frame that ended it is served.  All replies (a terminal
    [Error_reply] included) go into one reusable per-connection
    buffer, which is written once; replies past
    64 KiB are written before the rest of the read is served, so the
    buffer stays bounded.  A [Drain] or [Stats] inside a pipelined burst
    therefore delays the replies that share its write.  Every accepted
    socket has [TCP_NODELAY] set, so that one write leaves at once rather
    than waiting on Nagle for the peer's ACK; pipelining clients should
    set it too.  A half-closed peer gets every reply, then EOF.  A peer
    that never reads blocks only its own handler's write, which
    {!stop}'s socket shutdown wakes.

    {2 Poll before parking}

    While a connection is the server's only live one, its handler
    polls the socket ([recv] with [MSG_DONTWAIT], yielding the CPU
    between tries, the runtime lock released) for up to 50 µs before
    it parks in a blocking [read].  A pipelining client sends its next
    batch as the replies land, so that batch usually arrives inside
    the poll and is served without the kernel waking a sleeping
    thread; the budget is twice the loopback round trip (about 25 µs).
    When the budget passes, the handler falls through to the blocking
    [read], so a gap longer than the budget costs 50 µs of CPU and
    nothing after that.  The price is CPU: a busy lone
    connection keeps a core spinning through the gaps between its
    batches.  With two or more live connections every read parks at
    once — the handlers share one OCaml runtime lock and one CPU, and
    a poller would delay its peers' replies.  {!polled_reads} and
    {!parked_reads} count which path each read took; the [Stats]
    document carries both.

    {2 Graceful shutdown}

    {!request_stop} is the SIGTERM entry point (async-signal-safe in
    the OCaml sense: it flips an atomic flag and writes one byte to a
    self-pipe).  The accept loop wakes, stops admitting connections,
    and {!stop} then walks the drain path every other harness uses:
    {!Service.shutdown} sweeps the combining lanes dry and runs
    {!Validator.quiescent_runtime} on the quiesced network, so the
    exact quiescence guarantees of Theorem 4.2's step property hold at
    the moment the server goes dark.  In-flight operations either
    complete before the validation point or fail [Closed] — never
    after it.  Handler threads are then woken and joined. *)

type t

val start :
  ?host:string ->
  ?port:int ->
  ?backlog:int ->
  ?max_payload:int ->
  Cn_service.Service.t ->
  t
(** [start svc] binds a listening socket ([?host] default
    ["127.0.0.1"], [?port] default [0] = kernel-assigned; read it back
    with {!port}) and spawns the accept thread.  [?backlog] (default
    [64]) is the listen queue; [?max_payload] (default
    {!Frame.default_max_payload}) caps accepted frame payloads.

    [Inc]/[Dec] runs go to a per-connection
    {!Cn_service.Service.session}; [Read] is the runtime's net exit
    count ({!Cn_runtime.Network_runtime.net_count}, allocation-free).
    @raise Unix.Unix_error when the socket cannot be bound. *)

val start_fabric :
  ?host:string ->
  ?port:int ->
  ?backlog:int ->
  ?max_payload:int ->
  Cn_fabric.Fabric.t ->
  t
(** [start_fabric fab] is {!start} over a sharded fabric: [Inc]/[Dec]
    runs go to a per-connection {!Cn_fabric.Fabric.session}
    (round-robin routing keys, so connections spread over the shards;
    a run is routed once, since a key pins its shard); [Read] is the
    fabric's second-level combining {!Cn_fabric.Fabric.read};
    [Drain]/stop walk every shard's validated quiescence path. *)

val port : t -> int
(** The bound TCP port (useful with [~port:0]). *)

val connections : t -> int
(** Currently open connections. *)

val accepted : t -> int
(** Connections accepted since {!start} (monotone; churn shows up as
    [accepted] far above [connections]). *)

val polled_reads : t -> int
(** Reads whose data arrived during a poll (monotone; stays put while
    two or more connections are live). *)

val parked_reads : t -> int
(** Reads whose data came back from a blocking [read] (monotone). *)

val request_stop : t -> unit
(** Ask the server to stop: admission ends as soon as the accept loop
    wakes.  Idempotent, callable from a signal handler.  Does not
    block; follow with {!stop} (or {!wait_stop_request} + {!stop} from
    the thread that owns the server). *)

val stop_requested : t -> bool

val wait_stop_request : t -> unit
(** Block (politely, in slices, so signal handlers run) until
    {!request_stop} has been called. *)

val stop :
  ?policy:Cn_runtime.Validator.policy -> t -> Cn_runtime.Validator.report
(** [stop t] performs the graceful drain: stop accepting, shut the
    backend down through the Validator quiescence path, wake and join
    every handler thread, close all sockets, and return the quiescent
    report.  [?policy] defaults to the backend's validate policy.
    Idempotent: later calls return the first report.
    @raise Validator.Invalid under [Strict] when a quiescence check
    fails (sockets are still torn down first). *)
