(* countnetd: the standalone wire-protocol counter daemon.

   The process body lives in Cn_proto.Daemon; this executable is its
   command line: C(w,t) only, foreground, SIGTERM/SIGINT drain. *)

open Cmdliner

module D = Cn_proto.Daemon
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
              consistent-hash session routing, combining global reads) instead of a \
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
  let cfg =
    { D.host; port; width = w; out_width = t; queue; max_batch; metrics; validate; shards }
  in
  match D.serve cfg with
  | code -> exit code
  | exception Invalid_argument msg -> fail_usage msg
  | exception Cn_fabric.Fabric.Rejected msg -> fail_usage ("topology rejected: " ^ msg)

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
