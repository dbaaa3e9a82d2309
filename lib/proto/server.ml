module A = Cn_runtime.Atomics.Real
module Svc = Cn_service.Service
module Fab = Cn_fabric.Fabric
module V = Cn_runtime.Validator

(* One handler thread per connection, one backend session per handler:
   sessions are single-owner state, and a connection serves its frames
   in order, so the ownership rule holds by construction.  All
   cross-thread coordination below is either an atomic flag, the
   self-pipe, or the connection registry's growth-path mutex. *)

(* What the wire protocol needs from whatever is behind it — a single
   combining service or the sharded fabric.  A record of closures, not
   a functor: the server is all slow-path (one record lookup per run
   next to a syscall), and the two instantiations differ only here. *)

(* A connection's run entry: [ops.(0 .. len-1)] as one concurrent run,
   values into [vals] ({!Svc.run} / {!Fab.run}). *)
type run = Svc.op array -> int array -> len:int -> (unit, int * Svc.error) result

type backend = {
  be_session : unit -> run;
  be_max_batch : int;  (* the longest run handed over in one call *)
  be_value : unit -> int;  (* quiescently-consistent counter read *)
  be_drain : unit -> V.report;  (* policy Off: verdict rides the reply *)
  be_shutdown : V.policy option -> V.report;
  be_report_json : unit -> string;
}

let service_backend svc =
  {
    be_session =
      (fun () ->
        let s = Svc.session svc in
        fun ops vals ~len -> Svc.run s ops vals ~off:0 ~len);
    be_max_batch = Svc.max_batch svc;
    be_value = (fun () -> Svc.net svc);
    be_drain = (fun () -> Svc.drain ~policy:V.Off svc);
    be_shutdown = (fun policy -> Svc.shutdown ?policy svc);
    be_report_json = (fun () -> Svc.report_json svc);
  }

let fabric_backend fab =
  {
    be_session =
      (fun () ->
        let s = Fab.session fab in
        fun ops vals ~len -> Fab.run s ops vals ~off:0 ~len);
    (* every shard, swapped-in ones included, is spawned with the
       fabric's one [max_batch] *)
    be_max_batch = Svc.max_batch (Fab.shard_service fab 0);
    be_value = (fun () -> Fab.read fab);
    be_drain = (fun () -> Fab.drain ~policy:V.Off fab);
    be_shutdown = (fun policy -> Fab.shutdown ?policy fab);
    be_report_json = (fun () -> Fab.report_json fab);
  }

type conn = {
  id : int;
  fd : Unix.file_descr;
  mutable thread : Thread.t option;
      (* set once by the acceptor before the handler can finish *)
}

type t = {
  be : backend;
  listen_fd : Unix.file_descr;
  port_ : int;
  max_payload : int;
  stop_flag : bool A.t;
  stop_rd : Unix.file_descr;  (* self-pipe: wakes the accept loop *)
  stop_wr : Unix.file_descr;
  accepted_ : int A.t;
  live : int A.t;
  polled_reads_ : int A.t;
  parked_reads_ : int A.t;
  mutable acceptor : Thread.t option;
  reg_lock : Mutex.t;
  mutable conns : conn list;
  mutable stop_report : (V.report, exn) result option;
      (* memoized graceful-drain outcome; stop is idempotent *)
}

(* ------------------------------------------------------------------ *)
(* Socket helpers. *)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    let k = Unix.write fd b !off (n - !off) in
    if k = 0 then raise End_of_file;
    off := !off + k
  done

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* [poll_recv fd buf off len budget_ns]: [recv] with [MSG_DONTWAIT],
   retried with a [sched_yield] between tries for up to [budget_ns] of
   monotonic time, with the runtime lock released throughout.  Copies
   into [buf] like [Unix.read] and returns the byte count, 0 on EOF, or
   -1 once the budget has passed.  [off]/[len] are not bounds-checked.
   @raise Unix.Unix_error on any other socket error. *)
external poll_recv : Unix.file_descr -> Bytes.t -> int -> int -> int -> int
  = "cn_poll_recv"

(* Twice the loopback round trip (about 25 us): a pipelining client's
   next batch, sent as its replies land, arrives inside it. *)
let poll_budget_ns = 50_000

(* Every registry access funnels through here: the lock guards
   accept/close/stop bookkeeping only, never the per-frame fast path. *)
let locked t f =
  (Mutex.lock
  [@atomlint.allow
    "connection-registry lock: taken on accept, close and stop only, \
     never on the per-frame fast path"])
    t.reg_lock;
  match f () with
  | v ->
      (Mutex.unlock [@atomlint.allow "registry lock, see locked above"])
        t.reg_lock;
      v
  | exception e ->
      (Mutex.unlock [@atomlint.allow "registry lock, see locked above"])
        t.reg_lock;
      raise e

(* ------------------------------------------------------------------ *)
(* Per-connection protocol loop. *)

let stats_json t =
  Printf.sprintf
    "{\n\"server\": { \"connections\": %d, \"accepted\": %d, \"polled_reads\": %d, \
     \"parked_reads\": %d, \"value\": %d },\n\
     \"report\": %s\n}"
    (A.get t.live) (A.get t.accepted_) (A.get t.polled_reads_) (A.get t.parked_reads_)
    (t.be.be_value ())
    (t.be.be_report_json ())

(* Replies queued past this many bytes are written before the rest of
   the read is served, so a pipelined burst of large replies ([Stats])
   cannot grow a connection's buffer without bound. *)
let flush_bytes = 65536

let error_reply code message =
  Frame.Response (Frame.Error_reply { code; message })

(* One read in, one write out: every complete frame of a read is served
   in order and its reply encoded into [out], then [out] goes to the
   socket in a single write.  With TCP_NODELAY that write leaves at
   once; without coalescing, NODELAY would cost one segment per reply,
   and without NODELAY, Nagle holds a reply back until the peer ACKs
   the previous one.

   One read, one batch: the consecutive Inc/Dec frames of a read are
   collected and handed to the backend as one run, so the combiner sees
   them together (one admission, elimination across the run).  A
   [Read], [Drain] or [Stats], a framing error, the end of the read, or
   a full run ([be_max_batch] frames) ends the run; its replies are
   encoded before whatever ended it, so replies keep request order.

   Poll before parking: while this is the server's only live
   connection, a read first polls the socket for [poll_budget_ns]
   ([poll_recv]) and parks in the blocking [Unix.read] only once the
   budget has passed, so a pipelining peer's next batch is taken
   without the kernel waking a sleeping thread.  With two or more live
   connections every read parks at once: the handlers share one OCaml
   runtime lock, and a poller would hold back its peers. *)
let handler t conn =
  let run = t.be.be_session () in
  let cap = t.be.be_max_batch in
  let ops = Array.make cap Svc.Inc and vals = Array.make cap 0 in
  let pending = ref 0 in
  let dec = Frame.decoder ~max_payload:t.max_payload () in
  let buf = Bytes.create 4096 in
  let out = Buffer.create 4096 in
  let flush () =
    if Buffer.length out > 0 then begin
      let s = Buffer.contents out in
      Buffer.clear out;
      write_all conn.fd s
    end
  in
  let reply frame =
    Frame.encode out frame;
    if Buffer.length out >= flush_bytes then flush ()
  in
  let end_run () =
    let n = !pending in
    if n > 0 then begin
      pending := 0;
      let served, refusal =
        match run ops vals ~len:n with
        | Ok () -> (n, Frame.Closed)
        | Error (k, Svc.Overloaded) -> (k, Frame.Overloaded)
        | Error (k, Svc.Closed) -> (k, Frame.Closed)
      in
      for i = 0 to n - 1 do
        reply (Frame.Response (if i < served then Frame.Value vals.(i) else refusal))
      done
    end
  in
  let push op =
    ops.(!pending) <- op;
    incr pending;
    if !pending = cap then end_run ()
  in
  (* Serve the decoded frames; [false] once the connection must end. *)
  let rec serve () =
    match Frame.next dec with
    | Frame.Need_more ->
        end_run ();
        true
    | Frame.Frame (Frame.Request Frame.Inc) ->
        push Svc.Inc;
        serve ()
    | Frame.Frame (Frame.Request Frame.Dec) ->
        push Svc.Dec;
        serve ()
    | Frame.Frame (Frame.Request Frame.Read) ->
        end_run ();
        reply (Frame.Response (Frame.Value (t.be.be_value ())));
        serve ()
    | Frame.Frame (Frame.Request Frame.Drain) ->
        end_run ();
        (* Policy Off: the verdict rides in the reply instead of raising
           server-side; the service re-admits afterwards either way. *)
        let report = t.be.be_drain () in
        reply
          (Frame.Response
             (Frame.Drained { ok = V.passed report; summary = V.summary report }));
        serve ()
    | Frame.Frame (Frame.Request Frame.Stats) ->
        end_run ();
        reply (Frame.Response (Frame.Stats_reply (stats_json t)));
        serve ()
    | Frame.Frame (Frame.Response _) ->
        (* A valid frame pointed the wrong way; refuse and drop the
           connection — the peer is confused. *)
        end_run ();
        reply (error_reply Frame.Bad_opcode "response frame sent to a server");
        false
    | Frame.Corrupt { code; detail } ->
        end_run ();
        reply (error_reply code detail);
        false
  in
  (try
     Unix.setsockopt conn.fd Unix.TCP_NODELAY true;
     let read () =
       let len = Bytes.length buf in
       match if A.get t.live = 1 then poll_recv conn.fd buf 0 len poll_budget_ns else -1 with
       | -1 ->
           let n = Unix.read conn.fd buf 0 len in
           if n > 0 then A.incr t.parked_reads_;
           n
       | n ->
           if n > 0 then A.incr t.polled_reads_;
           n
     in
     let running = ref true in
     while !running do
       let n = read () in
       if n = 0 then running := false
       else begin
         Frame.feed dec buf ~off:0 ~len:n;
         running := serve ();
         flush ()
       end
     done
   with
  | Unix.Unix_error _ | End_of_file -> ()
  | V.Invalid _ -> ());
  close_quietly conn.fd;
  locked t (fun () -> t.conns <- List.filter (fun c -> c.id != conn.id) t.conns);
  ignore (A.fetch_and_add t.live (-1))

(* ------------------------------------------------------------------ *)
(* Accept loop. *)

let acceptor_loop t =
  let next_id = ref 0 in
  while not (A.get t.stop_flag) do
    match Unix.select [ t.listen_fd; t.stop_rd ] [] [] (-1.) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
        if List.mem t.stop_rd ready then () (* flag is set; loop exits *)
        else if List.mem t.listen_fd ready then begin
          match Unix.accept ~cloexec:true t.listen_fd with
          | exception Unix.Unix_error _ -> ()
          | fd, _peer ->
              if A.get t.stop_flag then close_quietly fd
              else begin
                incr next_id;
                let conn = { id = !next_id; fd; thread = None } in
                A.incr t.accepted_;
                A.incr t.live;
                locked t (fun () ->
                    t.conns <- conn :: t.conns;
                    conn.thread <- Some (Thread.create (handler t) conn))
              end
        end
  done

(* ------------------------------------------------------------------ *)

let start_backend ?(host = "127.0.0.1") ?(port = 0) ?(backlog = 64)
    ?(max_payload = Frame.default_max_payload) be =
  (* A peer that disappears mid-reply must cost the handler an EPIPE,
     not the process a SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd addr;
     Unix.listen listen_fd backlog
   with e ->
     close_quietly listen_fd;
     raise e);
  let port_ =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  let stop_rd, stop_wr = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock stop_wr;
  let t =
    {
      be;
      listen_fd;
      port_;
      max_payload;
      stop_flag = A.make false;
      stop_rd;
      stop_wr;
      accepted_ = A.make 0;
      live = A.make 0;
      polled_reads_ = A.make 0;
      parked_reads_ = A.make 0;
      acceptor = None;
      reg_lock =
        (Mutex.create
        [@atomlint.allow
          "connection-registry lock: taken on accept and close only, \
           never on the per-frame fast path"])
          ();
      conns = [];
      stop_report = None;
    }
  in
  t.acceptor <- Some (Thread.create acceptor_loop t);
  t

let start ?host ?port ?backlog ?max_payload svc =
  start_backend ?host ?port ?backlog ?max_payload (service_backend svc)

let start_fabric ?host ?port ?backlog ?max_payload fab =
  start_backend ?host ?port ?backlog ?max_payload (fabric_backend fab)

let port t = t.port_
let connections t = A.get t.live
let accepted t = A.get t.accepted_
let polled_reads t = A.get t.polled_reads_
let parked_reads t = A.get t.parked_reads_
let stop_requested t = A.get t.stop_flag

let request_stop t =
  if not (A.get t.stop_flag) then begin
    A.set t.stop_flag true;
    (* Wake the select; a full pipe already guarantees a wakeup. *)
    try ignore (Unix.write t.stop_wr (Bytes.make 1 '\000') 0 1)
    with Unix.Unix_error _ -> ()
  end

let wait_stop_request t =
  while not (A.get t.stop_flag) do
    (* Sliced sleep: signal handlers (the SIGTERM path) run between
       slices, flip the flag, and we notice within one slice. *)
    try Thread.delay 0.05 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let stop ?policy t =
  let finish r =
    match r with Ok report -> report | Error e -> raise e
  in
  match locked t (fun () -> t.stop_report) with
  | Some r -> finish r
  | None ->
      request_stop t;
      Option.iter Thread.join t.acceptor;
      close_quietly t.listen_fd;
      (* The quiescence path every harness shares: sweep the lanes dry,
         validate step property + token conservation, close the backend.
         Racing handler operations complete before the validation point
         or fail [Closed] — the Service_core protocol guarantees it
         (per shard, when the backend is a fabric). *)
      let result =
        match t.be.be_shutdown policy with
        | report -> Ok report
        | exception e -> Error e
      in
      (* Wake blocked reads, then join every handler. *)
      let conns = locked t (fun () -> t.conns) in
      List.iter
        (fun c ->
          try Unix.shutdown c.fd Unix.SHUTDOWN_ALL
          with Unix.Unix_error _ -> ())
        conns;
      List.iter (fun c -> Option.iter Thread.join c.thread) conns;
      close_quietly t.stop_rd;
      close_quietly t.stop_wr;
      locked t (fun () -> t.stop_report <- Some result);
      finish result
