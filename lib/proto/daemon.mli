(** The process body behind the [countnetd] executable: build the
    paper's C(w,t), put a {!Cn_service.Service} — or, with [shards], a
    sharded {!Cn_fabric.Fabric} — in front of it, serve it with
    {!Server}, and on SIGTERM/SIGINT walk the graceful drain and report
    the validator's verdict.

    Stdout contract (the smoke test scrapes it): the first line is

    {v countnetd: listening on HOST:PORT (C(w,t), pid PID) v}

    (with [shards = Some n], the parenthetical reads
    [C(w,t) xN shards] — same [listening on HOST:PORT (] prefix, so
    port scrapers keep working).  On stop it prints

    {v countnetd: N connections, P reads polled, Q parked v}

    ({!Server.accepted}, {!Server.polled_reads}, {!Server.parked_reads})
    and then, as the last line, [countnetd: drain ok — ...] (exit 0) or
    [countnetd: drain FAILED — ...] (exit 1). *)

type config = {
  host : string;
  port : int;  (** [0] picks an ephemeral port (printed on stdout) *)
  width : int;
  out_width : int option;  (** default [width] (the regular network) *)
  queue : int option;  (** per-lane submission slots; service default *)
  max_batch : int option;
  metrics : bool;
  validate : Cn_runtime.Validator.policy;
      (** policy applied at the SIGTERM drain *)
  shards : int option;
      (** [Some n]: serve an [n]-shard {!Cn_fabric.Fabric} instead of a
          single service (every shard the same certified C(w,t)) *)
}

val serve : config -> int
(** Run until SIGTERM/SIGINT, then drain and return the process exit
    code ([0] clean, [1] when the quiescence checks fail).  Installs
    handlers for both signals; restores nothing (the process is about
    to exit).
    @raise Invalid_argument on a malformed width pair. *)
