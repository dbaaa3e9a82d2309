module Svc = Cn_service.Service
module V = Cn_runtime.Validator

type config = {
  host : string;
  port : int;
  width : int;
  out_width : int option;
  queue : int option;
  max_batch : int option;
  metrics : bool;
  validate : V.policy;
  shards : int option;
}

let serve cfg =
  let t = Option.value cfg.out_width ~default:cfg.width in
  let net = Cn_core.Counting.network ~w:cfg.width ~t in
  let server, shape =
    match cfg.shards with
    | None ->
        let svc =
          Svc.create ~metrics:cfg.metrics ?queue:cfg.queue
            ?max_batch:cfg.max_batch ~validate:cfg.validate net
        in
        ( Server.start ~host:cfg.host ~port:cfg.port svc,
          Printf.sprintf "C(%d,%d)" cfg.width t )
    | Some n ->
        let fab =
          Cn_fabric.Fabric.create ~metrics:cfg.metrics ?queue:cfg.queue
            ?max_batch:cfg.max_batch ~validate:cfg.validate ~shards:n net
        in
        ( Server.start_fabric ~host:cfg.host ~port:cfg.port fab,
          Printf.sprintf "C(%d,%d) x%d shards" cfg.width t n )
  in
  Printf.printf "countnetd: listening on %s:%d (%s, pid %d)\n%!" cfg.host
    (Server.port server) shape (Unix.getpid ());
  let on_signal _ = Server.request_stop server in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Server.wait_stop_request server;
  Printf.printf "countnetd: stop requested, draining\n%!";
  (* Policy Off here so a failed check reports through the exit code
     instead of an escaping exception; cfg.validate chose how strictly
     the service itself polices intermediate drains. *)
  let report = Server.stop ~policy:V.Off server in
  let ok = V.passed report in
  Printf.printf "countnetd: %d connections, %d reads polled, %d parked\n%!"
    (Server.accepted server) (Server.polled_reads server) (Server.parked_reads server);
  Printf.printf "countnetd: drain %s — %s\n%!"
    (if ok then "ok" else "FAILED")
    (V.summary report);
  if ok then 0 else 1
