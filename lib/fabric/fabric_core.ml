(* The shard-fabric protocol, factored out as a functor over
   its atomic operations and the service module it shards — the same
   pattern as [Service_core.Make], and for the same reason: [Fabric]
   instantiates it with the real atomics and the production [Service],
   the race checker instantiates it with instrumented atomics and
   model services, and every interleaving the checker explores
   exercises the exact hot-resize protocol production runs.

   Protocol summary (the invariants the checker scenarios pin):

   - routing: the shard set is fixed at [make], so a key's shard is a
     pure hash of the key modulo the shard count; an operation resolves
     its shard, and re-reads that shard's state and service whenever it
     loses a race with a resize — it never holds a stale service across
     a retry;
   - hot-resize: certify first (a rejected certificate aborts with no
     state change), then CAS the shard [Open -> Resizing], shut the old
     service down through the Validator quiescence boundary, fold its
     net count into the shard's [base] offset, swap in the freshly
     spawned service and reopen.  An operation racing the resize either
     completes on the old service before its validation point (the
     Service_core guarantee) or observes [Closed] or [Resizing], waits
     until the shard leaves [Resizing], and retries on whatever service
     the shard then holds;
   - accounting: a shard's logical value is [base + net(svc)].  The
     fold at the swap point keeps the sum invariant, so values handed
     out after a resize continue the shard's stream with no duplicates
     and the global read never observes a discontinuity. *)

module V = Cn_runtime.Validator
module Topology = Cn_network.Topology

module type SERVICE = sig
  type t
  type session
  type op = Inc | Dec
  type error = Overloaded | Closed

  val session : ?wire:int -> t -> session

  val run :
    session -> op array -> int array -> off:int -> len:int -> (unit, int * error) result

  val drain : ?policy:V.policy -> t -> V.report
  val shutdown : ?policy:V.policy -> t -> V.report

  val net : t -> int
  (** Net operations counted so far (increments minus decrements of
      every completed batch), one load.  Every [read] sums it across
      shards; the [base] fold takes it after [shutdown]'s validation
      point, where it is exact. *)
end

module type S = sig
  type svc
  type topo_key
  type t
  type session
  type op = Inc | Dec
  type error = Overloaded | Closed

  type resize_error =
    | Cert_rejected of string
    | Busy
    | Bad_shard
    | Fabric_closed

  exception Rejected of string

  val make :
    ?validate:V.policy ->
    spawn:(topo_key -> svc) ->
    certify:(topo_key -> (unit, string) result) ->
    shards:int ->
    topo_key ->
    t

  val session : ?key:int -> t -> session

  val run :
    session -> op array -> int array -> off:int -> len:int -> (unit, int * error) result

  val increment : session -> (int, error) result
  val decrement : session -> (int, error) result
  val read : t -> int
  val shard_count : t -> int
  val route : t -> int -> int
  val shard_value : t -> int -> int
  val shard_gen : t -> int -> int
  val shard_topology : t -> int -> topo_key
  val shard_service : t -> int -> svc
  val resize : ?policy:V.policy -> t -> shard:int -> topo_key -> (unit, resize_error) result
  val drain : ?policy:V.policy -> t -> V.report
  val shutdown : ?policy:V.policy -> t -> V.report
  val closed : t -> bool
end

module Make (A : Cn_runtime.Atomics.S) (S : SERVICE) :
  S
    with type svc = S.t
     and type topo_key = Topology.t
     and type op = S.op
     and type error = S.error = struct
  type svc = S.t
  type topo_key = Topology.t
  type op = S.op = Inc | Dec
  type error = S.error = Overloaded | Closed

  type resize_error =
    | Cert_rejected of string
    | Busy
    | Bad_shard
    | Fabric_closed

  exception Rejected of string

  (* A shard slot's whole accounting state is one atomic word, so a
     resize publishes (new service + folded [base] + next generation)
     in a single store. *)
  type shard = { svc : S.t; topo : Topology.t; base : int; gen : int }

  (* [Resizing] is held by whoever claimed the shard: a resizer, or a
     stopper.  [Stopped] is terminal: the shard's service is shut down,
     by a fabric shutdown or by a fail-stopped resize. *)
  type shard_state = Open | Resizing | Stopped

  (* One entry per shard in [slots]/[states]: every shard [make]
     spawns serves until shutdown. *)
  type t = {
    slots : shard A.t array;
    states : shard_state A.t array;
    closed_ : bool A.t;
    session_ctr : int A.t;
    spawn : Topology.t -> S.t;
    certify : Topology.t -> (unit, string) result;
    validate : V.policy;
  }

  type session = {
    fab : t;
    key : int;
    (* single-owner cache of the per-shard service session, keyed by
       (shard, generation) so a resize invalidates it *)
    mutable cache : (int * int * S.session) option;
    op1 : op array;  (* the run of one behind increment/decrement *)
    val1 : int array;
  }

  (* The cap on the shard count a caller may ask for. *)
  let max_shards = 16

  let make ?(validate = V.Strict) ~spawn ~certify ~shards topo =
    if shards < 1 then invalid_arg "Fabric_core.make: at least one shard";
    if shards > max_shards then invalid_arg "Fabric_core.make: more shards than max_shards";
    (match certify topo with Ok () -> () | Error msg -> raise (Rejected msg));
    {
      slots = Array.init shards (fun _ -> A.make { svc = spawn topo; topo; base = 0; gen = 0 });
      states = Array.init shards (fun _ -> A.make Open);
      closed_ = A.make false;
      session_ctr = A.make 0;
      spawn;
      certify;
      validate;
    }

  let closed t = A.get t.closed_
  let shard_count t = Array.length t.slots
  let route t key = Cn_runtime.Splitmix.mix key mod Array.length t.slots

  let session ?key t =
    let key =
      match key with Some k -> k | None -> A.fetch_and_add t.session_ctr 1
    in
    { fab = t; key; cache = None; op1 = [| Inc |]; val1 = [| 0 |] }

  let shard_slot t sid =
    if sid < 0 || sid >= Array.length t.slots then
      invalid_arg "Fabric_core: shard out of range";
    A.get t.slots.(sid)

  let shard_value t sid =
    let sh = shard_slot t sid in
    sh.base + S.net sh.svc

  let shard_gen t sid = (shard_slot t sid).gen
  let shard_topology t sid = (shard_slot t sid).topo
  let shard_service t sid = (shard_slot t sid).svc

  (* ---------------------------------------------------------------- *)
  (* The operation loop. *)

  (* Wait until whoever claimed shard [sid] (a resizer or a stopper)
     lets go of it: spin, then nap once the spin budget is spent. *)
  let wait_out fab sid =
    let spins = ref 0 in
    while match A.get fab.states.(sid) with Resizing -> true | Open | Stopped -> false do
      incr spins;
      if !spins < 64 then A.relax () else A.nap ()
    done

  (* Serve [ops.(i) .. ops.(stop-1)].  A session's key pins it to one
     shard, so an open shard takes the whole remainder as one service
     run; a shard that is [Resizing] is waited out, and the remainder is
     then retried against the shard's state and service afresh. *)
  let rec exec sess ops vals i stop =
    let fab = sess.fab in
    if i >= stop then Ok ()
    else if A.get fab.closed_ then Error (i, Closed)
    else begin
      let sid = route fab sess.key in
      match A.get fab.states.(sid) with
      | Stopped -> Error (i, Closed)
      | Resizing ->
          wait_out fab sid;
          exec sess ops vals i stop
      | Open -> (
          let sh = A.get fab.slots.(sid) in
          let ss =
            match sess.cache with
            | Some (c, g, ss) when c = sid && g = sh.gen -> ss
            | _ ->
                let ss = S.session sh.svc in
                sess.cache <- Some (sid, sh.gen, ss);
                ss
          in
          let r = S.run ss ops vals ~off:i ~len:(stop - i) in
          let served = match r with Ok () -> stop | Error (k, _) -> k in
          for j = i to served - 1 do
            vals.(j) <- sh.base + vals.(j)
          done;
          match r with
          | Ok () | Error (_, Overloaded) -> r
          | Error (k, Closed) ->
              (* the shard's service is draining, resizing or shut
                 down under us; the fabric-level state says which —
                 go around (a pure retry against unchanged state
                 would fail again, so the relax is sound under the
                 instrumented scheduler too) *)
              if A.get fab.closed_ then r
              else begin
                A.relax ();
                exec sess ops vals k stop
              end)
    end

  let run sess ops vals ~off ~len =
    if
      off < 0 || len < 0
      || off + len > Array.length ops
      || off + len > Array.length vals
    then invalid_arg "Fabric.run: range out of bounds";
    exec sess ops vals off (off + len)

  let run_one sess op =
    sess.op1.(0) <- op;
    match exec sess sess.op1 sess.val1 0 1 with
    | Ok () -> Ok sess.val1.(0)
    | Error (_, e) -> Error e

  let increment s = run_one s Inc
  let decrement s = run_one s Dec

  (* ---------------------------------------------------------------- *)
  (* Hot resize: certify, claim, shut down, fold, swap, reopen. *)

  (* Fail-stop around [f] on a claimed shard.  A Strict validation
     failure, or a spawn that raises once the old service is shut down,
     is an integrity loss, not a recoverable condition: the fabric
     fail-stops (every later operation refuses with [Closed]), the
     shard is marked [Stopped] so callers waiting out the claim are
     released into that refusal and a later shutdown finds the shard
     already stopped, and the exception propagates. *)
  let fail_stop fab sid f =
    match f () with
    | v -> v
    | exception e ->
        A.set fab.closed_ true;
        A.set fab.states.(sid) Stopped;
        raise e

  let resize ?policy fab ~shard topo =
    if shard < 0 || shard >= Array.length fab.slots then Error Bad_shard
    else if A.get fab.closed_ then Error Fabric_closed
    else
      match fab.certify topo with
      | Error msg -> Error (Cert_rejected msg)
      | Ok () ->
          if not (A.compare_and_set fab.states.(shard) Open Resizing) then
            Error Busy
          else begin
            (* latecomers observing [Resizing] wait in [exec] from here on *)
            let old = A.get fab.slots.(shard) in
            let policy = Option.value policy ~default:fab.validate in
            ignore (fail_stop fab shard (fun () -> S.shutdown ~policy old.svc));
            let base = old.base + S.net old.svc in
            let svc = fail_stop fab shard (fun () -> fab.spawn topo) in
            A.set fab.slots.(shard) { svc; topo; base; gen = old.gen + 1 };
            A.set fab.states.(shard) Open;
            Ok ()
          end

  (* ---------------------------------------------------------------- *)
  (* Global read: every reader double-collects the shard counters
     itself until two sweeps agree (at most 8 retries), and waits on no
     other reader.  A shard counter is one word per service, so a sweep
     costs one load per shard plus one per slot.  At quiescence a single
     sweep is exact — that is the linearizable read the tests pin; under
     churn it counts the operations whose batch completed. *)

  let collect fab =
    (* one atomic read per slot: a resize publishes the swapped-in
       service and its folded [base] as one store, so a sweep never
       counts a shard twice or not at all *)
    let slots = fab.slots in
    let sum = ref 0 in
    for i = 0 to Array.length slots - 1 do
      let sh = A.get slots.(i) in
      sum := !sum + sh.base + S.net sh.svc
    done;
    !sum

  (* Loops, not closures: a read allocates nothing. *)
  let read fab =
    let prev = ref (collect fab) in
    let cur = ref (collect fab) in
    let tries = ref 8 in
    while !cur <> !prev && !tries > 0 do
      prev := !cur;
      cur := collect fab;
      decr tries
    done;
    !cur

  (* ---------------------------------------------------------------- *)
  (* Fabric-wide drain and shutdown. *)

  let merge_reports subject reports =
    {
      V.subject;
      checks =
        List.concat_map
          (fun (sid, (r : V.report)) ->
            List.map
              (fun (c : V.check) ->
                { c with V.name = Printf.sprintf "shard%d.%s" sid c.V.name })
              r.V.checks)
          reports;
    }

  let drain ?policy fab =
    (* each shard's [S.drain] quiesces, validates and re-admits on its
       own; operations racing the admission flip retry through [exec] *)
    let policy = Option.value policy ~default:fab.validate in
    merge_reports
      (Printf.sprintf "fabric(%d shards)" (shard_count fab))
      (List.init (shard_count fab) (fun sid ->
           (sid, S.drain ~policy (A.get fab.slots.(sid)).svc)))

  (* Stop one shard terminally.  An [Open] shard is claimed by CAS
     (waiting out an in-flight resize or a concurrent stopper's claim)
     and its service shut down; callers waiting out the claim then find
     it [Stopped] and refuse with [Closed], exactly as if they had
     arrived after the stop.  A [Stopped] shard (an earlier shutdown,
     or a fail-stopped resize) is not claimed again: its frozen service
     is re-validated, so a second stopper gets the same report, or the
     same Strict failure, and never waits for a claim nobody will
     release. *)
  let rec stop_shard fab sid policy =
    match A.get fab.states.(sid) with
    | Stopped -> S.shutdown ~policy (A.get fab.slots.(sid)).svc
    | Open when A.compare_and_set fab.states.(sid) Open Resizing ->
        let sh = A.get fab.slots.(sid) in
        let report = fail_stop fab sid (fun () -> S.shutdown ~policy sh.svc) in
        A.set fab.states.(sid) Stopped;
        report
    | Open | Resizing ->
        A.relax ();
        stop_shard fab sid policy

  (* Every shard is stopped even when one fails its validation, so a
     fail-stop never leaves another shard's service running; the first
     failure is re-raised once all are stopped. *)
  let shutdown ?policy fab =
    let policy = Option.value policy ~default:fab.validate in
    A.set fab.closed_ true;
    let failure = ref None in
    let reports =
      List.filter_map
        (fun sid ->
          match stop_shard fab sid policy with
          | report -> Some (sid, report)
          | exception e ->
              if Option.is_none !failure then failure := Some e;
              None)
        (List.init (shard_count fab) Fun.id)
    in
    Option.iter raise !failure;
    merge_reports
      (Printf.sprintf "fabric(%d shards, stopped)" (shard_count fab))
      reports
end
