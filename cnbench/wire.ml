(* The benchmark's side of the wire: countnetd as a child process, and a
   single-threaded load generator that pipelines frames over a few
   connections from one Unix.select loop.  Only the public protocol
   library is used: Cn_proto.Frame to encode and decode, Cn_proto.Client
   for the blocking control requests (Read, Drain, Stats). *)

module Frame = Cn_proto.Frame
module Client = Cn_proto.Client

let now = Cn_runtime.Clock.now_ns
let ns_of_s s = int_of_float (s *. 1e9)
let us ns = ns /. 1000.

let find_sub s sub =
  let n = String.length s and k = String.length sub in
  let rec go i =
    if i + k > n then None else if String.sub s i k = sub then Some i else go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Child processes.  Every child is registered until it is reaped, so an
   exit path that skipped the orderly stop can still kill and reap it. *)

let children = ref []

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (waitpid pid) with Unix.Unix_error _ -> ())
    !children;
  children := []

type child = { pid : int; out : Unix.file_descr; log : Buffer.t }

(* A child runs on CPU [cpu], by default the second; the caller, the
   load generator, stays on the first. *)
let spawn ?(cpu = 1) exe args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        ignore (Procfs.pin_cpu 0);
        Unix.close wr;
        Unix.close null)
      (fun () ->
        ignore (Procfs.pin_cpu cpu);
        Unix.create_process exe (Array.of_list (exe :: args)) null wr Unix.stderr)
  in
  children := pid :: !children;
  { pid; out = rd; log = Buffer.create 256 }

type outcome = Matched | Eof | Timed_out

(* Appends the child's stdout to its log until [until log] holds, the
   pipe closes, or [timeout_s] passes. *)
let read_log c ~timeout_s ~until =
  let chunk = Bytes.create 1024 in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if until (Buffer.contents c.log) then Matched
    else
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then Timed_out
      else
        match Unix.select [ c.out ] [] [] left with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | [], _, _ -> go ()
        | _ -> (
            match Unix.read c.out chunk 0 (Bytes.length chunk) with
            | 0 -> if until (Buffer.contents c.log) then Matched else Eof
            | n ->
                Buffer.add_subbytes c.log chunk 0 n;
                go ())
  in
  go ()

(* The port from a "...: listening on HOST:PORT (..." first line. *)
let await_port c =
  match read_log c ~timeout_s:60. ~until:(fun s -> String.contains s '\n') with
  | Matched -> (
      let log = Buffer.contents c.log in
      let line = String.sub log 0 (String.index log '\n') in
      let from s i = String.sub s i (String.length s - i) in
      match find_sub line "listening on " with
      | None -> failwith (Printf.sprintf "unexpected first line %S" line)
      | Some i ->
          let addr = List.hd (String.split_on_char ' ' (from line (i + 13))) in
          int_of_string (from addr (String.rindex addr ':' + 1)))
  | Eof | Timed_out ->
      failwith
        (Printf.sprintf "child %d did not report its port (output %S)" c.pid
           (Buffer.contents c.log))

(* Collects the rest of stdout and reaps the child, killing it if it
   has not closed stdout within 30 s: the exit code (-1 when killed by a
   signal) and the whole output. *)
let finish c =
  if read_log c ~timeout_s:30. ~until:(fun _ -> false) = Timed_out then (
    try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
  let status = waitpid c.pid in
  children := List.filter (fun p -> p <> c.pid) !children;
  Unix.close c.out;
  ((match status with Unix.WEXITED k -> k | _ -> -1), Buffer.contents c.log)

let stop c =
  (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
  finish c

type daemon = { proc : child; port : int }

let start_daemon ?cpu ~exe args =
  let proc = spawn ?cpu exe args in
  { proc; port = await_port proc }

(* Set-up time as a client sees it: from spawning countnetd to the
   first Value reply to a Read. *)
let timed_start ?cpu ~exe args =
  let t0 = now () in
  let d = start_daemon ?cpu ~exe args in
  let c = Client.connect ~port:d.port () in
  let v = Client.read c in
  let t1 = now () in
  Client.close c;
  if v <> 0 then failwith (Printf.sprintf "a fresh countnetd reads %d, not 0" v);
  (d, float_of_int (t1 - t0) /. 1e9)

let with_client d f =
  let c = Client.connect ~port:d.port () in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

(* ------------------------------------------------------------------ *)
(* Load generator. *)

let op_inc = 0
let op_dec = 1
let op_read = 2

let request_frame =
  [| Frame.Request Frame.Inc; Frame.Request Frame.Dec; Frame.Request Frame.Read |]

(* In-flight requests per connection are kept in a ring; a request that
   finds it full is counted as failed, never sent. *)
let ring_size = 1 lsl 17
let mask = ring_size - 1

type conn = {
  fd : Unix.file_descr;
  dec : Frame.decoder;
  out : Buffer.t;  (* encoded frames; [written] bytes are on the socket *)
  mutable written : int;
  tags : int array;  (* request id lsl 2 lor opcode, in send order *)
  ends : int array;  (* end offset of each frame in [out] *)
  mutable sent : int;  (* frames encoded *)
  mutable wrote : int;  (* frames fully written *)
  mutable answered : int;  (* replies decoded *)
  mutable balance : int;  (* Inc minus Dec sent on this connection *)
  rbuf : Bytes.t;
}

(* Op mix: the shares of Dec and Read; Inc takes the rest. *)
type mix = { dec : float; read : float }

(* What the correctness gates check, for one served countnetd. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;  (* Overloaded, Closed, or never sent *)
  mutable incs : int;
  mutable decs : int;
  distinct : bool;  (* every Inc value must be new *)
  mutable seen : Bytes.t;  (* bitmap of Inc values *)
  mutable dups : int;
  mutable max_inc : int;
}

let tally ~distinct =
  {
    attempted = 0; failed = 0; incs = 0; decs = 0; distinct;
    seen = Bytes.make 4096 '\000'; dups = 0; max_inc = -1;
  }

let mark t v =
  if v < 0 then t.dups <- t.dups + 1
  else begin
    let byte = v lsr 3 in
    if byte >= Bytes.length t.seen then begin
      let grown = Bytes.make (max (byte + 1) (2 * Bytes.length t.seen)) '\000' in
      Bytes.blit t.seen 0 grown 0 (Bytes.length t.seen);
      t.seen <- grown
    end;
    let b = Char.code (Bytes.get t.seen byte) and bit = 1 lsl (v land 7) in
    if b land bit <> 0 then t.dups <- t.dups + 1
    else Bytes.set t.seen byte (Char.chr (b lor bit));
    if v > t.max_inc then t.max_inc <- v
  end

(* Per-request timestamps of one open-loop phase.  The trace-only
   columns are empty unless the phase is traced. *)
type table = {
  cap : int;
  mutable n : int;
  mutable t_start : int;  (* the open-loop phase's first and last instant *)
  mutable t_stop : int;
  op : int array;
  due : int array;
  w1 : int array;  (* the write that carried the frame's last byte returned *)
  rsel : int array;  (* select reported the reply's connection readable *)
  fin : int array;  (* reply decoded; -1 for a refusal, 0 for none *)
  traced : bool;
  enc0 : int array;
  enc1 : int array;
  w0 : int array;
  r0 : int array;
  r1 : int array;
  d0 : int array;
}

let table ~traced cap =
  let col () = Array.make cap 0 in
  let tcol () = Array.make (if traced then cap else 0) 0 in
  {
    cap; n = 0; t_start = 0; t_stop = 0; op = col (); due = col (); w1 = col (); rsel = col (); fin = col (); traced;
    enc0 = tcol (); enc1 = tcol (); w0 = tcol (); r0 = tcol (); r1 = tcol (); d0 = tcol ();
  }

type gen = {
  conns : conn array;
  conn_list : conn list;
  fds : Unix.file_descr list;
  rng : Random.State.t;
  mix : mix;
  tally : tally;
  mutable reads : int;  (* read syscalls that returned data *)
  mutable replies : int;
  mutable oks : int;  (* Value replies *)
}

external set_timer_slack : int -> bool = "cnbench_set_timer_slack"

(* [seed] seeds the arrivals, the connection choice and the op mix. *)
let connect ~port ~conns ~seed ~mix ~tally =
  let open_conn _ =
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    (* The generator coalesces what is due into one write itself; Nagle
       on this side would only add generator delay. *)
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    Unix.set_nonblock fd;
    {
      fd; dec = Frame.decoder (); out = Buffer.create 65536; written = 0;
      tags = Array.make ring_size 0; ends = Array.make ring_size 0;
      sent = 0; wrote = 0; answered = 0; balance = 0; rbuf = Bytes.create 65536;
    }
  in
  ignore (set_timer_slack 1_000);
  let conns = Array.init conns open_conn in
  {
    conns; conn_list = Array.to_list conns; fds = List.map (fun c -> c.fd) (Array.to_list conns);
    rng = Random.State.make seed; mix; tally; reads = 0; replies = 0; oks = 0;
  }

let close g = Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) g.conns
let in_flight g = Array.fold_left (fun acc c -> acc + c.sent - c.answered) 0 g.conns
let conn_of g fd = List.find (fun c -> c.fd = fd) g.conn_list

(* A Dec only while the connection's own Inc outnumber its Dec: the
   server runs a connection's frames in order, so its count never goes
   below zero. *)
let pick_op g c =
  let r = Random.State.float g.rng 1. in
  if r < g.mix.read then op_read
  else if r < g.mix.read +. g.mix.dec && c.balance > 0 then op_dec
  else op_inc

let issue g c ~tbl ~id op =
  g.tally.attempted <- g.tally.attempted + 1;
  if c.sent - c.answered >= ring_size then begin
    g.tally.failed <- g.tally.failed + 1;
    false
  end
  else begin
    (match tbl with
    | Some t when t.traced ->
        t.enc0.(id) <- now ();
        Frame.encode c.out request_frame.(op);
        t.enc1.(id) <- now ()
    | _ -> Frame.encode c.out request_frame.(op));
    let i = c.sent land mask in
    c.tags.(i) <- (id lsl 2) lor op;
    c.ends.(i) <- Buffer.length c.out;
    c.sent <- c.sent + 1;
    if op = op_inc then c.balance <- c.balance + 1
    else if op = op_dec then c.balance <- c.balance - 1;
    true
  end

(* One write of what is left in the connection's buffer; timestamps go
   to the frames it completed, when the phase keeps them. *)
let flush tbl c =
  let len = Buffer.length c.out in
  if c.written < len then begin
    let chunk = Buffer.sub c.out c.written (len - c.written) in
    let w0 = if tbl = None then 0 else now () in
    match Unix.single_write_substring c.fd chunk 0 (String.length chunk) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | k ->
        let w1 = if tbl = None then 0 else now () in
        c.written <- c.written + k;
        while c.wrote < c.sent && c.ends.(c.wrote land mask) <= c.written do
          (match tbl with
          | Some t ->
              let id = c.tags.(c.wrote land mask) lsr 2 in
              t.w1.(id) <- w1;
              if t.traced then t.w0.(id) <- w0
          | None -> ());
          c.wrote <- c.wrote + 1
        done;
        if c.written = len then begin
          Buffer.clear c.out;
          c.written <- 0
        end
  end

let on_reply g tbl c resp ~rsel ~r0 ~r1 ~d0 ~d1 =
  if c.answered >= c.wrote then failwith "countnetd answered a request it was not sent";
  let tag = c.tags.(c.answered land mask) in
  c.answered <- c.answered + 1;
  g.replies <- g.replies + 1;
  let op = tag land 3 and id = tag lsr 2 and t = g.tally in
  let ok =
    match resp with
    | Frame.Value v ->
        if op = op_inc then begin
          t.incs <- t.incs + 1;
          if t.distinct then mark t v
        end
        else if op = op_dec then t.decs <- t.decs + 1;
        g.oks <- g.oks + 1;
        true
    | Frame.Overloaded | Frame.Closed ->
        t.failed <- t.failed + 1;
        false
    | r -> failwith (Format.asprintf "unexpected reply %a" Frame.pp (Frame.Response r))
  in
  match tbl with
  | Some tb ->
      tb.rsel.(id) <- rsel;
      tb.fin.(id) <- (if ok then d1 else -1);
      if tb.traced then begin
        tb.r0.(id) <- r0;
        tb.r1.(id) <- r1;
        tb.d0.(id) <- d0
      end
  | None -> ()

(* One read of a readable connection; returns the replies it completed.
   Timestamps are taken only for a phase that keeps them. *)
let read_conn g tbl c ~rsel =
  let traced = match tbl with Some t -> t.traced | None -> false in
  let r0 = if traced then now () else 0 in
  match Unix.read c.fd c.rbuf 0 (Bytes.length c.rbuf) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> 0
  | 0 -> failwith "countnetd closed a load connection"
  | n ->
      let r1 = if traced then now () else 0 in
      g.reads <- g.reads + 1;
      Frame.feed c.dec c.rbuf ~off:0 ~len:n;
      let rec decode k =
        let d0 = if traced then now () else 0 in
        match Frame.next c.dec with
        | Frame.Need_more -> k
        | Frame.Corrupt { detail; _ } -> failwith ("corrupt reply stream: " ^ detail)
        | Frame.Frame (Frame.Request _) -> failwith "countnetd sent a request frame"
        | Frame.Frame (Frame.Response r) ->
            let d1 = if tbl = None then 0 else now () in
            on_reply g tbl c r ~rsel ~r0 ~r1 ~d0 ~d1;
            decode (k + 1)
      in
      decode 0

(* Waits for readable connections, or writable ones with output left,
   for at most [timeout_ns]; returns the select time and the readable. *)
let wait_io g timeout_ns =
  let pending c = if c.written < Buffer.length c.out then Some c.fd else None in
  let ready =
    match
      Unix.select g.fds (List.filter_map pending g.conn_list) []
        (float_of_int (max 0 timeout_ns) /. 1e9)
    with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    | r, _, _ -> r
  in
  (now (), ready)

let read_ready g tbl (rsel, ready) =
  List.iter (fun fd -> ignore (read_conn g tbl (conn_of g fd) ~rsel)) ready

(* Waits until every request sent so far is answered. *)
let settle g tbl =
  let deadline = now () + ns_of_s 5. in
  while in_flight g > 0 do
    Array.iter (flush tbl) g.conns;
    let t = now () in
    if t > deadline then
      failwith (Printf.sprintf "%d replies still missing 5 s after the phase" (in_flight g));
    read_ready g tbl (wait_io g (deadline - t))
  done

(* Open loop: Poisson arrivals at [rate] ops/s for [seconds], each
   request spread over the connections at random and timed from the
   instant it was due.  Returns with every request answered. *)
let open_phase g tbl ~rate ~seconds =
  tbl.n <- 0;
  let t_start = now () in
  let t_stop = t_start + ns_of_s seconds in
  tbl.t_start <- t_start;
  tbl.t_stop <- t_stop;
  let gap () = int_of_float (-.log (1. -. Random.State.float g.rng 1.) /. rate *. 1e9) in
  let next_due = ref (t_start + gap ()) in
  while !next_due < t_stop do
    let t = now () in
    while !next_due <= t && !next_due < t_stop do
      let c = g.conns.(Random.State.int g.rng (Array.length g.conns)) in
      let op = pick_op g c in
      let id = tbl.n in
      if id >= tbl.cap then begin
        g.tally.attempted <- g.tally.attempted + 1;
        g.tally.failed <- g.tally.failed + 1
      end
      else begin
        tbl.op.(id) <- op;
        tbl.due.(id) <- !next_due;
        if issue g c ~tbl:(Some tbl) ~id op then tbl.n <- id + 1
      end;
      next_due := !next_due + gap ()
    done;
    Array.iter (flush (Some tbl)) g.conns;
    if !next_due < t_stop then read_ready g (Some tbl) (wait_io g (!next_due - now ()))
  done;
  settle g (Some tbl)

type window_result = {
  ops_per_s : float;
  slice_ops_per_s : float array;  (* one rate per whole slice of the phase *)
  replies_per_read : float;
}

(* Closed loop: [window] requests in flight on every connection for
   [seconds]; capacity counts the Value replies read inside the window,
   over the whole phase and in slices of [slice_s]. *)
let window_phase g ~window ~seconds ~slice_s =
  let refill c n =
    for _ = 1 to n do
      ignore (issue g c ~tbl:None ~id:0 (pick_op g c))
    done
  in
  Array.iter (fun c -> refill c window) g.conns;
  g.reads <- 0;
  g.replies <- 0;
  let t_start = now () in
  let t_stop = t_start + ns_of_s seconds in
  let ok_at_start = g.oks in
  let completed = ref 0 in
  (* Slice k ends at the first select return past its boundary; its rate
     uses the instants actually observed. *)
  let slice_ns = ns_of_s slice_s in
  let slices = ref [] and slice_t0 = ref t_start and slice_ok0 = ref 0 in
  let running = ref true in
  while !running do
    Array.iter (flush None) g.conns;
    let t = now () in
    if t >= t_stop then running := false
    else begin
      let rsel, ready = wait_io g (t_stop - t) in
      List.iter
        (fun fd ->
          let c = conn_of g fd in
          let n = read_conn g None c ~rsel in
          if rsel < t_stop then refill c n)
        ready;
      if rsel < t_stop then begin
        completed := g.oks - ok_at_start;
        if rsel - !slice_t0 >= slice_ns then begin
          slices :=
            (float_of_int (!completed - !slice_ok0) *. 1e9 /. float_of_int (rsel - !slice_t0))
            :: !slices;
          slice_t0 := rsel;
          slice_ok0 := !completed
        end
      end
    end
  done;
  let reads = g.reads and replies = g.replies in
  settle g None;
  let ops_per_s = float_of_int !completed /. seconds in
  {
    ops_per_s;
    slice_ops_per_s = (if !slices = [] then [| ops_per_s |] else Array.of_list (List.rev !slices));
    replies_per_read = (if reads = 0 then 0. else float_of_int replies /. float_of_int reads);
  }

(* ------------------------------------------------------------------ *)
(* Open-loop analysis. *)

type latency = {
  samples : int;
  p50_us : float;
  slice_p50_us : float array;  (* p50 and p95 of the requests due in each slice *)
  slice_p95_us : float array;
  p99_us : float;
  tail_pct : float;  (* highest percentile with ten samples beyond it *)
  tail_us : float;
  max_us : float;
  lag_p99_us : float;  (* write return minus due time *)
  wait_p50_us : float;  (* write return to reply readable *)
  inc_p50_us : float;
  dec_p50_us : float;
  read_p50_us : float;
  read_p99_us : float;
}

(* A refused request counts as slower than any answered one.  Slices are
   the whole [slice_s] pieces of the phase, by due time; a phase shorter
   than one slice is one slice. *)
let analyse tbl ~slice_s =
  let lat i = if tbl.fin.(i) > 0 then tbl.fin.(i) - tbl.due.(i) else max_int in
  let slice_ns = ns_of_s slice_s in
  let whole = (tbl.t_stop - tbl.t_start) / slice_ns in
  let buckets = Array.make (max 1 whole) [] in
  for i = tbl.n - 1 downto 0 do
    let k = if whole = 0 then 0 else (tbl.due.(i) - tbl.t_start) / slice_ns in
    if k < Array.length buckets then buckets.(k) <- lat i :: buckets.(k)
  done;
  let slice_pct = Stats.slice_percentiles buckets [ 50.; 95. ] in
  let slice_us k = Array.map us (List.nth slice_pct k) in
  let sorted keep f =
    let out = ref [] in
    for i = tbl.n - 1 downto 0 do
      if keep i then out := f i :: !out
    done;
    Stats.sort_ints (Array.of_list !out)
  in
  let all = sorted (fun _ -> true) lat in
  let of_op op = sorted (fun i -> tbl.op.(i) = op) lat in
  let lag = sorted (fun _ -> true) (fun i -> tbl.w1.(i) - tbl.due.(i)) in
  let wait = sorted (fun i -> tbl.fin.(i) > 0) (fun i -> tbl.rsel.(i) - tbl.w1.(i)) in
  let pct a p = us (Stats.percentile_sorted a p) in
  let tail_pct, tail = Stats.tail_sorted all in
  {
    samples = tbl.n;
    p50_us = pct all 50.;
    slice_p50_us = slice_us 0;
    slice_p95_us = slice_us 1;
    p99_us = pct all 99.;
    tail_pct;
    tail_us = us tail;
    max_us = pct all 100.;
    lag_p99_us = pct lag 99.;
    wait_p50_us = pct wait 50.;
    inc_p50_us = pct (of_op op_inc) 50.;
    dec_p50_us = pct (of_op op_dec) 50.;
    read_p50_us = pct (of_op op_read) 50.;
    read_p99_us = pct (of_op op_read) 99.;
  }

(* Spans of one request in every [every]: the root "request" (due to
   decoded) and the stages the generator saw.  gen.queue appears twice,
   before encoding and between encoding and the write that sent it. *)
let record_spans store tbl ~every =
  for i = 0 to tbl.n - 1 do
    if i mod every = 0 && tbl.fin.(i) > 0 then
      Trace.add_tree store "request" tbl.due.(i) tbl.fin.(i)
        [
          ("gen.queue", tbl.due.(i), tbl.enc0.(i));
          ("proto.encode", tbl.enc0.(i), tbl.enc1.(i));
          ("gen.queue", tbl.enc1.(i), tbl.w0.(i));
          ("sys.write", tbl.w0.(i), tbl.w1.(i));
          ("server", tbl.w1.(i), tbl.rsel.(i));
          ("sys.read", tbl.r0.(i), tbl.r1.(i));
          ("proto.decode", tbl.d0.(i), tbl.fin.(i));
        ]
  done

(* ------------------------------------------------------------------ *)
(* Loopback floor: the benchmark executable as an echo server in a
   separate process, answering each request frame with a Value frame of
   the size countnetd sends. *)

let echo_main () =
  (* An echo left behind by a crashed parent dies on its own. *)
  ignore (Unix.alarm 120);
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 1;
  let port = match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
  Printf.printf "cnbench echo: listening on 127.0.0.1:%d\n%!" port;
  let c, _ = Unix.accept ~cloexec:true fd in
  Unix.setsockopt c Unix.TCP_NODELAY true;
  let reply = Frame.to_string (Frame.Response (Frame.Value 0)) in
  let dec = Frame.decoder () and buf = Bytes.create 4096 and out = Buffer.create 4096 in
  let rec serve () =
    match Unix.read c buf 0 (Bytes.length buf) with
    | 0 | (exception Unix.Unix_error _) -> ()
    | n ->
        Frame.feed dec buf ~off:0 ~len:n;
        let rec answer () =
          match Frame.next dec with
          | Frame.Frame (Frame.Request _) ->
              Buffer.add_string out reply;
              answer ()
          | _ -> ()
        in
        answer ();
        (* A blocking write writes it all. *)
        ignore (Unix.write_substring c (Buffer.contents out) 0 (Buffer.length out));
        Buffer.clear out;
        serve ()
  in
  serve ();
  exit 0

(* Window-1 round trips of an Inc-sized request and a Value-sized reply;
   the echo exits when the connection closes. *)
let loopback_rtt_p50_us ~exe ~round_trips =
  let proc = spawn exe [ "echo" ] in
  let c = Client.connect ~port:(await_port proc) () in
  let rtt () =
    let t0 = now () in
    ignore (Client.increment c);
    now () - t0
  in
  for _ = 1 to 100 do
    ignore (rtt ())
  done;
  let samples = Array.init round_trips (fun _ -> rtt ()) in
  Client.close c;
  let code, log = finish proc in
  if code <> 0 then failwith (Printf.sprintf "echo exited %d (output %S)" code log);
  us (Stats.percentile_sorted (Stats.sort_ints samples) 50.)
