(* countnetd: the standalone wire-protocol counter daemon.

   Builds the paper's C(w,t), puts a Cn_service.Service — or, with
   --shards N, an N-shard Cn_fabric.Fabric — in front of it, serves it
   with Cn_proto.Server in the foreground, and on SIGTERM/SIGINT walks
   the graceful drain and reports the validator's verdict.

   Stdout contract (the smoke test scrapes it): the first line is

     countnetd: listening on HOST:PORT (C(w,t), pid PID)

   (with --shards N the parenthetical reads "C(w,t) xN shards" — same
   "listening on HOST:PORT (" prefix, so port scrapers keep working).
   On stop it prints

     countnetd: N connections, P reads polled, Q parked

   (Server.accepted, Server.polled_reads, Server.parked_reads) and
   then, as the last line, "countnetd: drain ok — ..." (exit 0) or
   "countnetd: drain FAILED — ..." (exit 1).  Usage errors, including
   a malformed width pair, a rejected topology, a --host that is not a
   numeric IPv4 address and an address that cannot be bound (say, a
   port already in use), exit 2. *)

open Cmdliner

module Server = Cn_proto.Server
module V = Cn_runtime.Validator

let fail_usage msg =
  prerr_endline ("countnetd: " ^ msg);
  exit 2

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Address to bind.")

let port_arg =
  Arg.(
    value & opt int 0
    & info [ "port" ] ~docv:"PORT"
        ~doc:"TCP port to bind (0 = ephemeral; the bound port is printed on stdout).")

let width_arg =
  Arg.(
    value & opt int 16
    & info [ "w"; "width" ] ~docv:"W" ~doc:"Input width of C(w,t) (a power of two).")

let out_width_arg =
  Arg.(
    value & opt (some int) None
    & info [ "t"; "out-width" ] ~docv:"T" ~doc:"Output width (default: w).")

let queue_arg =
  Arg.(
    value & opt (some int) None
    & info [ "queue" ] ~docv:"SLOTS"
        ~doc:"Per-lane submission slots before Overloaded replies (default: the service's).")

let max_batch_arg =
  Arg.(
    value & opt (some int) None
    & info [ "max-batch" ] ~docv:"N" ~doc:"Operations one combined batch may serve.")

let metrics_flag =
  Arg.(
    value & flag
    & info [ "metrics" ] ~doc:"Compile the served runtime with the observability layer.")

let shards_arg =
  Arg.(
    value & opt (some int) None
    & info [ "shards" ] ~docv:"N"
        ~doc:"Serve an N-shard counter fabric (each shard its own certified C(w,t), \
              each session routed to shard hash(key) mod N, global reads summed over \
              the shards) instead of a \
              single service.")

let policy_conv =
  let parse s =
    match V.policy_of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown policy %S (expected strict, log or off)" s))
  in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (V.policy_to_string p))

let validate_arg =
  Arg.(
    value & opt policy_conv V.Strict
    & info [ "validate" ] ~docv:"POLICY"
        ~doc:"Quiescence policy at the SIGTERM drain: $(b,strict) (default), $(b,log) or \
              $(b,off).  The exit code reports the verdict either way.")

let run host port w t queue max_batch metrics validate shards =
  (match Unix.inet_addr_of_string host with
  | addr when Unix.domain_of_sockaddr (Unix.ADDR_INET (addr, 0)) = Unix.PF_INET -> ()
  | _ | (exception Failure _) ->
      fail_usage (Printf.sprintf "--host must be a numeric IPv4 address (got %S)" host));
  if port < 0 || port > 65535 then
    fail_usage (Printf.sprintf "--port must be in [0, 65535] (got %d)" port);
  if w <= 0 then fail_usage (Printf.sprintf "--width must be positive (got %d)" w);
  (match t with
  | Some t when t <= 0 -> fail_usage (Printf.sprintf "--out-width must be positive (got %d)" t)
  | _ -> ());
  (match queue with
  | Some q when q <= 0 -> fail_usage (Printf.sprintf "--queue must be positive (got %d)" q)
  | _ -> ());
  (match max_batch with
  | Some b when b <= 0 ->
      fail_usage (Printf.sprintf "--max-batch must be positive (got %d)" b)
  | _ -> ());
  (match shards with
  | Some n when n <= 0 -> fail_usage (Printf.sprintf "--shards must be positive (got %d)" n)
  | _ -> ());
  let serve () =
    let t = Option.value t ~default:w in
    let net = Cn_core.Counting.network ~w ~t in
    match shards with
    | None ->
        let svc = Cn_service.Service.create ~metrics ?queue ?max_batch ~validate net in
        (Server.start ~host ~port svc, Printf.sprintf "C(%d,%d)" w t)
    | Some n ->
        let fab =
          Cn_fabric.Fabric.create ~metrics ?queue ?max_batch ~validate ~shards:n net
        in
        (Server.start_fabric ~host ~port fab, Printf.sprintf "C(%d,%d) x%d shards" w t n)
  in
  let server, shape =
    try serve () with
    | Invalid_argument msg -> fail_usage msg
    | Cn_fabric.Fabric.Rejected msg -> fail_usage ("topology rejected: " ^ msg)
    | Unix.Unix_error (err, _, _) ->
        fail_usage
          (Printf.sprintf "cannot listen on %s:%d (%s)" host port (Unix.error_message err))
  in
  Printf.printf "countnetd: listening on %s:%d (%s, pid %d)\n%!" host (Server.port server)
    shape (Unix.getpid ());
  let on_signal _ = Server.request_stop server in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Server.wait_stop_request server;
  Printf.printf "countnetd: stop requested, draining\n%!";
  (* Policy Off here so a failed check reports through the exit code
     instead of an escaping exception; --validate chose how strictly
     the service itself polices intermediate drains. *)
  let report = Server.stop ~policy:V.Off server in
  let ok = V.passed report in
  Printf.printf "countnetd: %d connections, %d reads polled, %d parked\n%!"
    (Server.accepted server) (Server.polled_reads server) (Server.parked_reads server);
  Printf.printf "countnetd: drain %s — %s\n%!" (if ok then "ok" else "FAILED") (V.summary report);
  exit (if ok then 0 else 1)

let cmd =
  Cmd.v
    (Cmd.info "countnetd" ~version:"1.0.0"
       ~doc:
         "Serve the C(w,t) counting-network counter over a length-prefixed TCP protocol; \
          SIGTERM drains through the validator quiescence path.")
    Term.(
      const run $ host_arg $ port_arg $ width_arg $ out_width_arg $ queue_arg $ max_batch_arg
      $ metrics_flag $ validate_arg $ shards_arg)

let () = exit (Cmd.eval cmd)
