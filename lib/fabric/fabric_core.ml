(* The elastic shard-fabric protocol, factored out as a functor over
   its atomic operations and the service module it shards — the same
   pattern as [Service_core.Make], and for the same reason: [Fabric]
   instantiates it with the real atomics and the production [Service],
   the race checker instantiates it with instrumented atomics and
   model services, and every interleaving the checker explores
   exercises the exact hot-resize protocol production runs.

   Protocol summary (the invariants the checker scenarios pin):

   - routing: an operation reads the published router, resolves its
     shard, and re-resolves from scratch whenever it loses a race with
     a resize — it never holds a stale shard across a retry;
   - hot-resize: certify first (a rejected certificate aborts with no
     state change), then CAS the shard [Open -> Resizing] so latecomers
     park, shut the old service down through the Validator quiescence
     boundary, fold its net count into the shard's [base] offset, swap
     in the freshly spawned service, reopen, and replay every parked
     cell exactly once.  An operation racing the resize either
     completes on the old service before its validation point (the
     Service_core guarantee) or observes [Closed], retries, and parks;
   - accounting: a shard's logical value is [base + net(svc)].  The
     fold at the swap point keeps the sum invariant, so values handed
     out after a resize continue the shard's stream with no duplicates
     and the global read never observes a discontinuity.  A shrink
     publishes retirement the same way: a single atomic store replaces
     the live shard with an equal-valued tombstone carrying its frozen
     net (and its generation, which a later grow continues), so the
     global read is conserved through every rescale. *)

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

  val lifecycle : t -> [ `Running | `Draining | `Stopped ]
  val drain : ?policy:V.policy -> t -> V.report
  val shutdown : ?policy:V.policy -> t -> V.report

  val net_count : t -> int
  (** Net tokens handed out so far (tokens minus antitokens, from the
      runtime's assignment cells).  Exact at quiescence — the fabric
      only folds it into [base] after [shutdown]'s validation point. *)
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
    ?max_shards:int ->
    ?vnodes:int ->
    ?validate:V.policy ->
    spawn:(topo_key -> svc) ->
    certify:(topo_key -> (unit, string) result) ->
    topo_key list ->
    t

  val session : ?key:int -> t -> session

  val run :
    session -> op array -> int array -> off:int -> len:int -> (unit, int * error) result

  val increment : session -> (int, error) result
  val decrement : session -> (int, error) result
  val read : t -> int
  val shard_count : t -> int
  val max_shards : t -> int
  val route : t -> int -> int
  val shard_value : t -> int -> int
  val shard_gen : t -> int -> int
  val shard_topology : t -> int -> topo_key
  val shard_service : t -> int -> svc
  val resize : ?policy:V.policy -> t -> shard:int -> topo_key -> (unit, resize_error) result
  val set_shard_count :
    ?policy:V.policy -> ?topo:topo_key -> t -> int -> (unit, resize_error) result
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

  type shard = { svc : S.t; topo : Topology.t; base : int; gen : int }

  (* A slot's whole accounting state is one atomic word, so shrink can
     publish (service removed + net count preserved) in a single store:
     [Live] carries the serving shard, [Tomb] carries the retired
     shard's folded net count — and its last generation, so a later
     grow re-creates the slot at [gen + 1] and a session's cached
     [(shard, gen)] key can never alias across a retire/respawn (the
     ABA that would otherwise pin a stale session to a dead service).
     [Empty] is a slot that never served. *)
  type slot = Live of shard | Tomb of { net : int; gen : int } | Empty

  (* A parked operation: routed to a shard mid-resize, waiting for the
     resizer to replay it on the swapped-in service.  [value]/[failed]
     are plain mutable fields published through the [done_] atomic
     (write fields, then set the flag — the same release/acquire cell
     idiom as Service_core's submission slots). *)
  type pending = {
    kind : op;
    key : int;
    mutable value : int;
    mutable failed : bool;
    done_ : int A.t;
  }

  type park = Accepting of pending list | Sealed

  (* [Retired] means the slot is not serving (removed by a shrink, or
     never spawned); the router never targets a retired shard, so an
     operation that observes one re-reads the router.  A later grow may
     reopen the slot, continuing its tombstoned count and generation. *)
  type shard_state = Open | Resizing | Retired

  type t = {
    slots : slot A.t array;
    states : shard_state A.t array;
    parked : park A.t array;
    router : Router.t A.t;
    count_ : int A.t;
    closed_ : bool A.t;
    scaling : bool A.t; (* set_shard_count mutual exclusion *)
    session_ctr : int A.t;
    (* flat-combining global read: one collector sweeps, concurrent
       readers adopt any sweep that started after they arrived *)
    read_owner : int A.t;
    read_epoch : int A.t;
    read_done : (int * int) A.t; (* (sweep id, collected value) *)
    spawn : Topology.t -> S.t;
    certify : Topology.t -> (unit, string) result;
    validate : V.policy;
    vnodes : int;
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

  let make ?(max_shards = 16) ?(vnodes = Router.default_vnodes)
      ?(validate = V.Strict) ~spawn ~certify topos =
    let n = List.length topos in
    if n < 1 then invalid_arg "Fabric_core.make: at least one shard";
    if n > max_shards then invalid_arg "Fabric_core.make: more shards than max_shards";
    List.iter
      (fun topo ->
        match certify topo with
        | Ok () -> ()
        | Error msg -> raise (Rejected msg))
      topos;
    let slots = Array.init max_shards (fun _ -> A.make Empty) in
    let states = Array.init max_shards (fun _ -> A.make Retired) in
    let parked = Array.init max_shards (fun _ -> A.make Sealed) in
    List.iteri
      (fun sid topo ->
        A.set slots.(sid) (Live { svc = spawn topo; topo; base = 0; gen = 0 });
        A.set states.(sid) Open)
      topos;
    {
      slots;
      states;
      parked;
      router = A.make (Router.make ~vnodes (List.init n Fun.id));
      count_ = A.make n;
      closed_ = A.make false;
      scaling = A.make false;
      session_ctr = A.make 0;
      read_owner = A.make 0;
      read_epoch = A.make 1;
      read_done = A.make (0, 0);
      spawn;
      certify;
      validate;
      vnodes;
    }

  let closed t = A.get t.closed_
  let shard_count t = A.get t.count_
  let max_shards t = Array.length t.slots
  let route t key = Router.route (A.get t.router) key

  let session ?key t =
    let key =
      match key with Some k -> k | None -> A.fetch_and_add t.session_ctr 1
    in
    { fab = t; key; cache = None; op1 = [| Inc |]; val1 = [| 0 |] }

  let shard_slot t sid =
    if sid < 0 || sid >= Array.length t.slots then
      invalid_arg "Fabric_core: shard out of range";
    match A.get t.slots.(sid) with
    | Live sh -> sh
    | Tomb _ | Empty -> invalid_arg "Fabric_core: shard not live"

  let shard_value t sid =
    let sh = shard_slot t sid in
    sh.base + S.net_count sh.svc

  let shard_gen t sid = (shard_slot t sid).gen
  let shard_topology t sid = (shard_slot t sid).topo
  let shard_service t sid = (shard_slot t sid).svc

  (* ---------------------------------------------------------------- *)
  (* The operation loop. *)

  (* Serve [ops.(i) .. ops.(stop-1)].  A session's key pins it to one
     shard, so an open shard takes the whole remainder as one service
     run; only while the shard is [Resizing] does the run fall back to
     parking one operation at a time. *)
  let rec exec sess ops vals i stop =
    let fab = sess.fab in
    if i >= stop then Ok ()
    else if A.get fab.closed_ then Error (i, Closed)
    else begin
      let sid = Router.route (A.get fab.router) sess.key in
      match A.get fab.states.(sid) with
      | Retired ->
          (* the router that sent us here is already unpublished: the
             narrower ring is published before any shard retires, so an
             immediate re-read resolves to a live shard (no relax — the
             write we need has already landed) *)
          exec sess ops vals i stop
      | Resizing -> (
          match park sess sid ops.(i) with
          | Some (Ok v) ->
              vals.(i) <- v;
              exec sess ops vals (i + 1) stop
          | Some (Error e) -> Error (i, e)
          | None ->
              (* resize finished (or not yet accepting): resolve afresh *)
              A.relax ();
              exec sess ops vals i stop)
      | Open -> (
          match A.get fab.slots.(sid) with
          | Tomb _ | Empty ->
              (* shrink window: the slot tombstones before the state
                 flips to Retired — the state we read above is stale *)
              A.relax ();
              exec sess ops vals i stop
          | Live sh -> (
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
                  end))
    end

  (* Park one operation on a resizing shard and wait for its replay;
     [None] when the park list is sealed (the resize is over). *)
  and park sess sid op =
    let fab = sess.fab in
    match A.get fab.parked.(sid) with
    | Sealed -> None
    | Accepting l as cur ->
        let cell =
          { kind = op; key = sess.key; value = 0; failed = false; done_ = A.make 0 }
        in
        if A.compare_and_set fab.parked.(sid) cur (Accepting (cell :: l)) then begin
          let spins = ref 0 in
          while A.get cell.done_ = 0 do
            incr spins;
            if !spins < 64 then A.relax () else A.nap ()
          done;
          Some (if cell.failed then Error Closed else Ok cell.value)
        end
        else park sess sid op

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
  (* Hot resize: certify, seal, drain, swap, replay. *)

  (* Replay a parked cell through the normal routed path: on the
     common path it lands on the shard's swapped-in service; after a
     shrink it re-routes to the cell's new home shard.  [Overloaded]
     is retried (the caller already committed to waiting), [Closed]
     means the fabric itself closed — the caller gets the same refusal
     it would have gotten arriving a moment later. *)
  let rec replay_cell fab (cell : pending) =
    match run_one (session ~key:cell.key fab) cell.kind with
    | Ok v ->
        cell.value <- v;
        A.set cell.done_ 1
    | Error Overloaded ->
        A.nap ();
        replay_cell fab cell
    | Error Closed ->
        cell.failed <- true;
        A.set cell.done_ 1

  let seal_parked fab sid =
    let rec seal () =
      match A.get fab.parked.(sid) with
      | Sealed -> []
      | Accepting l as cur ->
          if A.compare_and_set fab.parked.(sid) cur Sealed then List.rev l
          else seal ()
    in
    seal ()

  let replay fab sid = List.iter (replay_cell fab) (seal_parked fab sid)

  (* Fail-stop path: seal the park list and refuse every parked caller
     with [Closed] — a parked cell's owner spins on [done_] with no
     escape hatch, so an exception that skips the replay must not leave
     the list armed. *)
  let abort_parked fab sid =
    List.iter
      (fun (cell : pending) ->
        cell.failed <- true;
        A.set cell.done_ 1)
      (seal_parked fab sid)

  (* Arm the park buffer for a freshly claimed shard.  Strictly a CAS
     from [Sealed]: the previous resize of this slot reopens the shard
     {e before} sealing and replaying its park list, so a back-to-back
     claimant can get here while that list is still [Accepting] — a
     blind store would overwrite it and silently drop the parked
     operations (their owners would spin on [done_] forever).  Waiting
     out the seal is live: every prior owner seals, either in [replay]
     on success or in [abort_parked] on the fail-stop path. *)
  let rec arm_parked fab sid =
    if not (A.compare_and_set fab.parked.(sid) Sealed (Accepting [])) then begin
      A.relax ();
      arm_parked fab sid
    end

  (* Shut one shard's service down at [policy] and fold its net count.
     A Strict validation failure is an integrity loss, not a recoverable
     condition: the fabric fail-stops (every later operation refuses
     with [Closed]), the shard's parked callers are refused rather than
     left spinning, and the exception propagates to the resizer. *)
  let retire_service fab sid (sh : shard) policy =
    match S.shutdown ~policy sh.svc with
    | report -> (report, sh.base + S.net_count sh.svc)
    | exception e ->
        A.set fab.closed_ true;
        abort_parked fab sid;
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
            (* latecomers observing [Resizing] park from here on *)
            arm_parked fab shard;
            let old =
              match A.get fab.slots.(shard) with
              | Live sh -> sh
              | Tomb _ | Empty -> assert false
            in
            let policy = Option.value policy ~default:fab.validate in
            let _report, base = retire_service fab shard old policy in
            let svc = fab.spawn topo in
            A.set fab.slots.(shard) (Live { svc; topo; base; gen = old.gen + 1 });
            A.set fab.states.(shard) Open;
            replay fab shard;
            Ok ()
          end

  let rec claim fab sid =
    (* used by shrink/shutdown: wait out a concurrent resize *)
    if A.get fab.closed_ then false
    else if A.compare_and_set fab.states.(sid) Open Resizing then true
    else begin
      A.relax ();
      claim fab sid
    end

  let set_shard_count ?policy ?topo fab n =
    if n < 1 || n > Array.length fab.slots then Error Bad_shard
    else if A.get fab.closed_ then Error Fabric_closed
    else if not (A.compare_and_set fab.scaling false true) then Error Busy
    else begin
      let finish r =
        A.set fab.scaling false;
        r
      in
      let cur = A.get fab.count_ in
      if n = cur then finish (Ok ())
      else if n > cur then begin
        (* grow: certify and install the new shards, then publish the
           wider router — no key routes to a shard before it serves *)
        let topo =
          match topo with
          | Some t -> t
          | None -> (
              match A.get fab.slots.(0) with
              | Live sh -> sh.topo
              | Tomb _ | Empty -> assert false)
        in
        match fab.certify topo with
        | Error msg -> finish (Error (Cert_rejected msg))
        | Ok () ->
            for sid = cur to n - 1 do
              (* a re-created slot continues the retired shard's stream:
                 its tombstoned net becomes the new [base] (one atomic
                 publish keeps [read] conserved) and its generation
                 stays monotonic, so no session cache keyed on the
                 pre-shrink (shard, gen) can alias the new service *)
              let base, gen =
                match A.get fab.slots.(sid) with
                | Tomb { net; gen } -> (net, gen + 1)
                | Empty -> (0, 0)
                | Live _ -> assert false
              in
              A.set fab.slots.(sid)
                (Live { svc = fab.spawn topo; topo; base; gen });
              A.set fab.parked.(sid) Sealed;
              A.set fab.states.(sid) Open
            done;
            A.set fab.router (Router.make ~vnodes:fab.vnodes (List.init n Fun.id));
            A.set fab.count_ n;
            finish (Ok ())
      end
      else begin
        (* shrink: publish the narrower router first so new arrivals
           avoid the doomed shards, then retire each one — parked
           stragglers replay through the new router *)
        A.set fab.router (Router.make ~vnodes:fab.vnodes (List.init n Fun.id));
        A.set fab.count_ n;
        let policy = Option.value policy ~default:fab.validate in
        for sid = n to cur - 1 do
          if claim fab sid then begin
            arm_parked fab sid;
            let sh =
              match A.get fab.slots.(sid) with
              | Live sh -> sh
              | Tomb _ | Empty -> assert false
            in
            let _report, net = retire_service fab sid sh policy in
            (* one atomic store retires the service and preserves its
               net count: a collect sweep sees either [Live] (whose net
               is frozen — the service is already shut down) or the
               equal-valued [Tomb], never an intermediate that counts
               the shard zero or twice *)
            A.set fab.slots.(sid) (Tomb { net; gen = sh.gen });
            A.set fab.states.(sid) Retired;
            replay fab sid
          end
        done;
        finish (if A.get fab.closed_ then Error Fabric_closed else Ok ())
      end
    end

  (* ---------------------------------------------------------------- *)
  (* Global read: a second-level combining pass.  One reader CASes
     itself collector, double-collects the shard counters until two
     sweeps agree, and publishes (sweep id, value); concurrent readers
     adopt any published sweep that {e started} after they arrived
     (sweep id strictly above the epoch they entered at), so every
     adopted value was collected inside the adopter's own interval.
     At quiescence a single sweep is exact — that is the linearizable
     read the tests pin; under churn the double-collect bounds the
     skew to in-flight resizes. *)

  let collect fab =
    (* one atomic read per slot: [Live] contributes [base + net] and a
       [Tomb] the retired shard's frozen net — the shrink publishes the
       transition as a single equal-valued store, so a sweep can never
       drop or double-count a shard mid-retirement *)
    let sum = ref 0 in
    Array.iter
      (fun slot ->
        match A.get slot with
        | Live sh -> sum := !sum + sh.base + S.net_count sh.svc
        | Tomb { net; _ } -> sum := !sum + net
        | Empty -> ())
      fab.slots;
    !sum

  let read fab =
    let e0 = A.get fab.read_epoch in
    let rec attempt () =
      let e, v = A.get fab.read_done in
      if e > e0 then v
      else if A.compare_and_set fab.read_owner 0 1 then begin
        let sweep = A.fetch_and_add fab.read_epoch 1 + 1 in
        let rec settle tries prev =
          let s = collect fab in
          if s = prev || tries = 0 then s else settle (tries - 1) s
        in
        let v = settle 8 (collect fab) in
        A.set fab.read_done (sweep, v);
        A.set fab.read_owner 0;
        v
      end
      else begin
        A.relax ();
        attempt ()
      end
    in
    attempt ()

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

  let live_shards fab =
    let acc = ref [] in
    for sid = Array.length fab.slots - 1 downto 0 do
      match A.get fab.slots.(sid) with
      | Live sh -> acc := (sid, sh) :: !acc
      | Tomb _ | Empty -> ()
    done;
    !acc

  let drain ?policy fab =
    (* each shard's [S.drain] quiesces, validates and re-admits on its
       own; operations racing the admission flip retry through [exec] *)
    let policy = Option.value policy ~default:fab.validate in
    merge_reports
      (Printf.sprintf "fabric(%d shards)" (A.get fab.count_))
      (List.map
         (fun (sid, sh) -> (sid, S.drain ~policy sh.svc))
         (live_shards fab))

  let shutdown ?policy fab =
    let policy = Option.value policy ~default:fab.validate in
    A.set fab.closed_ true;
    let reports =
      List.filter_map
        (fun (sid, _) ->
          (* wait out any in-flight resize of this shard, then claim
             it terminally; its parked cells are replayed into the
             closed fabric and fail [Closed], exactly as if they had
             arrived after the stop *)
          let rec grab () =
            if A.compare_and_set fab.states.(sid) Open Resizing then true
            else
              match A.get fab.states.(sid) with
              | Retired -> false
              | _ ->
                  A.relax ();
                  grab ()
          in
          if not (grab ()) then None
          else
            match A.get fab.slots.(sid) with
            | Tomb _ | Empty -> None
            | Live sh ->
                let report =
                  try S.shutdown ~policy sh.svc
                  with e ->
                    (* same contract as [retire_service]: never leave a
                       parked caller spinning behind an exception *)
                    abort_parked fab sid;
                    raise e
                in
                replay fab sid;
                Some (sid, report))
        (live_shards fab)
    in
    merge_reports
      (Printf.sprintf "fabric(%d shards, stopped)" (A.get fab.count_))
      reports
end
