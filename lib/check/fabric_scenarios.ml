module V = Cn_runtime.Validator
module Sequence = Cn_sequence.Sequence
module Counting = Cn_core.Counting
module Svc = Scenarios.Svc

(* The production fabric protocol body over instrumented atomics and the
   instrumented model service: what the explorer exercises for the
   hot-resize path.  Every service of one run shares a fault-injection
   flag: while it holds [true], the next shutdown stops its service and
   then raises, as a Strict validation failure would. *)
module MS = struct
  type t = { svc : Svc.t; fail_shutdown : bool Instrumented.t }
  type session = Svc.session
  type op = Svc.op = Inc | Dec
  type error = Svc.error = Overloaded | Closed

  let session ?wire t = Svc.session ?wire t.svc
  let run = Svc.run
  let lifecycle t = Svc.lifecycle t.svc
  let drain ?policy t = Svc.drain ?policy t.svc

  let shutdown ?policy t =
    let report = Svc.shutdown ?policy t.svc in
    if Instrumented.compare_and_set t.fail_shutdown true false then
      raise (V.Invalid "injected shutdown failure");
    report

  let net t = Svc.net t.svc
end

module Fab = Cn_fabric.Fabric_core.Make (Instrumented) (MS)

type outcome =
  | Val of int
  | Rejected
  | Refused
  | Unset  (* reported served, but no value was ever written *)

let op_outcome = function
  | Ok v -> Val v
  | Error Fab.Overloaded -> Rejected
  | Error Fab.Closed -> Refused

type run = {
  rts : Model_net.t list ref; (* every model network spawned, any shard/gen *)
  fab : Fab.t;
  results : (Fab.op * outcome) list ref;
  resizes : (unit, Fab.resize_error) result list ref;
  reports : V.report list ref; (* one per shutdown that returned *)
  failstops : int ref; (* injected failures a fiber caught *)
  distinct_incs : bool; (* single-shard, elim off: values must be distinct *)
}

let worker run sess op () =
  let r =
    match op with
    | Fab.Inc -> Fab.increment sess
    | Fab.Dec -> Fab.decrement sess
  in
  run.results := (op, op_outcome r) :: !(run.results)

(* A fabric run: every operation is recorded with the outcome the run
   reported for it. *)
let runner run sess ops () =
  let n = Array.length ops in
  let vals = Array.make n min_int in
  let served, refusal =
    match Fab.run sess ops vals ~off:0 ~len:n with
    | Ok () -> (n, Refused)
    | Error (k, e) -> (k, op_outcome (Error e))
  in
  Array.iteri
    (fun i op ->
      run.results :=
        (op,
         if i >= served then refusal
         else if vals.(i) = min_int then Unset
         else Val vals.(i))
        :: !(run.results))
    ops

let resizer run ~shard topo () =
  run.resizes := Fab.resize run.fab ~shard topo :: !(run.resizes)

(* A resizer that retries [Busy] until it owns the shard: two of these
   on one shard force genuinely back-to-back resizes in every
   interleaving — the second may claim the slot the moment the first
   reopens it, while a worker is still waiting the first one out. *)
let stubborn_resizer run ~shard topo () =
  let rec go () =
    match Fab.resize run.fab ~shard topo with
    | Error Fab.Busy ->
        Instrumented.relax ();
        go ()
    | r -> run.resizes := r :: !(run.resizes)
  in
  go ()

let drainer run () = ignore (Fab.drain run.fab)

let stopper run () =
  let report = Fab.shutdown run.fab in
  run.reports := report :: !(run.reports)

(* Fibers for the fail-stop scenario: each records the injected
   failure instead of dying on it. *)
let failstop run f () = try f () with V.Invalid _ -> incr run.failstops

(* Certification is pure, deterministic and checked by its own test
   suite; running the eight-pass pipeline inside every interleaving
   would only slow exploration without adding schedule points. *)
let certify_ok _ = Ok ()

exception Spawn_failed

(* [~fail_spawn:true]: every spawn after [make]'s raises [Spawn_failed],
   as a resize whose new topology cannot be compiled would. *)
let make_run ?(distinct_incs = false) ?(fail_shutdown = false) ?(fail_spawn = false)
    ~shards () =
  let rts = ref [] in
  let topo = Counting.network ~w:2 ~t:2 in
  let fail_shutdown = Instrumented.make fail_shutdown in
  let made = ref false in
  let spawn t =
    if fail_spawn && !made then raise Spawn_failed;
    let rt = Model_net.compile t in
    rts := rt :: !rts;
    { MS.svc = Svc.make ~max_batch:4 ~queue:2 ~validate:V.Off rt; fail_shutdown }
  in
  let fab = Fab.make ~validate:V.Off ~spawn ~certify:certify_ok ~shards topo in
  made := true;
  {
    rts;
    fab;
    results = ref [];
    resizes = ref [];
    reports = ref [];
    failstops = ref 0;
    distinct_incs;
  }

let resize_error_string = function
  | Fab.Cert_rejected m -> "certificate rejected: " ^ m
  | Fab.Busy -> "busy"
  | Fab.Bad_shard -> "bad shard"
  | Fab.Fabric_closed -> "fabric closed"

(* The shared oracle, run on the final state with no fiber scheduled. *)
let check run () =
  let fail fmt = Printf.ksprintf Option.some fmt in
  let oks op =
    List.length
      (List.filter
         (fun (o, r) -> o = op && match r with Val _ -> true | _ -> false)
         !(run.results))
  in
  let bad_validation =
    List.exists
      (fun rt ->
        List.exists (fun (_, passed) -> not passed) (Model_net.validations rt))
      !(run.rts)
  in
  let bad_step =
    List.find_opt
      (fun rt -> not (Sequence.is_step (Model_net.exit_distribution rt)))
      !(run.rts)
  in
  let failed_resize =
    List.find_map
      (function Error e -> Some e | Ok () -> None)
      !(run.resizes)
  in
  if !(run.reports) <> [] && not (Fab.closed run.fab) then
    fail "shutdown returned but the fabric is not closed"
  else if bad_validation then
    fail "a resize/drain/shutdown validation observed a non-quiescent network"
  else
    match bad_step with
    | Some rt ->
        fail "a shard's final distribution is not a step: %s"
          (Sequence.to_string (Model_net.exit_distribution rt))
    | None -> (
        match failed_resize with
        | Some e -> fail "resize failed: %s" (resize_error_string e)
        | None ->
            if
              !(run.reports) = [] && !(run.failstops) = 0
              && List.exists (fun (_, r) -> r = Refused) !(run.results)
            then fail "an operation was refused but the fabric never closed"
            else begin
              let expected = oks Fab.Inc - oks Fab.Dec in
              let got = Fab.read run.fab in
              (* [read] sums the services' net words; the exits of every
                 network spawned, retired ones included, must agree too *)
              let exits =
                List.fold_left
                  (fun sum rt -> sum + Model_net.net_count rt)
                  0 !(run.rts)
              in
              if got <> expected then
                fail "fabric read %d but ok(inc) - ok(dec) = %d" got expected
              else if exits <> expected then
                fail "the networks' exits net %d but ok(inc) - ok(dec) = %d"
                  exits expected
              else if run.distinct_incs then begin
                let vals =
                  List.filter_map
                    (fun (o, r) ->
                      match (o, r) with Fab.Inc, Val v -> Some v | _ -> None)
                    !(run.results)
                in
                let sorted = List.sort_uniq compare vals in
                if List.length sorted <> List.length vals then
                  fail "duplicate values in a shard's stream across resize: %s"
                    (String.concat "," (List.map string_of_int vals))
                else None
              end
              else None
            end)

(* A key the router sends to [shard] — routing is deterministic,
   so this probe is schedule-independent. *)
let key_for run shard =
  let rec go k =
    if Fab.route run.fab k = shard then k
    else if k > 1_000 then invalid_arg "key_for: no key found"
    else go (k + 1)
  in
  go 0

let resize_vs_submit () =
  let run = make_run ~distinct_incs:true ~shards:1 () in
  let s0 = Fab.session ~key:0 run.fab in
  let s1 = Fab.session ~key:1 run.fab in
  {
    Engine.name = "fabric-resize-vs-submit";
    fibers =
      [|
        worker run s0 Fab.Inc;
        worker run s1 Fab.Inc;
        resizer run ~shard:0 (Counting.network ~w:2 ~t:2);
      |];
    finish = check run;
  }

let drain_vs_route () =
  let run = make_run ~shards:2 () in
  let sa = Fab.session ~key:(key_for run 0) run.fab in
  let sb = Fab.session ~key:(key_for run 1) run.fab in
  {
    Engine.name = "fabric-drain-vs-route";
    fibers = [| worker run sa Fab.Inc; worker run sb Fab.Inc; drainer run |];
    finish = check run;
  }

let shutdown_vs_submit () =
  let run = make_run ~shards:1 () in
  let s = Fab.session ~key:0 run.fab in
  {
    Engine.name = "fabric-shutdown-vs-submit";
    fibers = [| worker run s Fab.Inc; stopper run |];
    finish = check run;
  }

(* Every shard's model service is stopped. *)
let all_stopped run =
  List.for_all
    (fun sid -> MS.lifecycle (Fab.shard_service run.fab sid) = `Stopped)
    (List.init (Fab.shard_count run.fab) Fun.id)

let shutdown_vs_shutdown () =
  (* Two stoppers on a two-shard fabric under a worker: whichever
     claims a shard stops it, the other finds it stopped.  Both must
     return (a stopper that waits for a claim nobody releases
     deadlocks), with equal reports of the frozen shards. *)
  let run = make_run ~shards:2 () in
  let s = Fab.session ~key:(key_for run 1) run.fab in
  let finish () =
    match !(run.reports) with
    | [ a; b ] ->
        if a <> b then Some "the two shutdowns returned different reports"
        else if not (all_stopped run) then Some "a shard's service is still running"
        else check run ()
    | rs -> Some (Printf.sprintf "%d of 2 shutdowns returned" (List.length rs))
  in
  {
    Engine.name = "fabric-shutdown-vs-shutdown";
    fibers = [| worker run s Fab.Inc; stopper run; stopper run |];
    finish;
  }

let shutdown_after_failstop () =
  (* The first model-service shutdown raises (a Strict failure): under
     the resizer it fail-stops the resize with the shard claimed, and a
     stopper must then find that shard stopped rather than wait for it
     to reopen; a stopper that hits the failure itself must still stop
     the other shard.  A worker on the resized shard completes, or is
     refused if it met the claimed shard.  The failure surfaces exactly
     once. *)
  let run = make_run ~fail_shutdown:true ~shards:2 () in
  let s = Fab.session ~key:(key_for run 0) run.fab in
  let resized = ref None in
  let finish () =
    if !(run.failstops) <> 1 then
      Some (Printf.sprintf "the injected failure surfaced %d times" !(run.failstops))
    else if not (Fab.closed run.fab) then Some "a fail-stop left the fabric open"
    else if not (all_stopped run) then Some "a shard's service is still running"
    else if !resized = Some (Ok ()) then Some "a resize succeeded past a failed shutdown"
    else check run ()
  in
  {
    Engine.name = "fabric-shutdown-after-failstop";
    fibers =
      [|
        failstop run (fun () ->
            resized := Some (Fab.resize run.fab ~shard:0 (Counting.network ~w:2 ~t:2)));
        failstop run (stopper run);
        worker run s Fab.Inc;
      |];
    finish;
  }

let resize_vs_resize () =
  (* Two stubborn resizers guarantee two back-to-back swaps of the same
     shard in every interleaving: the second can claim the slot right
     after the first reopens it, before a worker waiting out the first
     has looked again, so the worker must keep waiting and land on the
     second swap's service (a worker that never resolves deadlocks,
     which the engine reports). *)
  let run = make_run ~distinct_incs:true ~shards:1 () in
  let s = Fab.session ~key:0 run.fab in
  let topo = Counting.network ~w:2 ~t:2 in
  {
    Engine.name = "fabric-resize-vs-resize";
    fibers =
      [|
        worker run s Fab.Inc;
        stubborn_resizer run ~shard:0 topo;
        stubborn_resizer run ~shard:0 topo;
      |];
    finish = check run;
  }

let run_vs_resize () =
  (* A 3-op mixed run on the shard being hot-resized: routed once, it
     either runs whole on the old service before its validation point,
     or loses the race or meets the shard [Resizing], waits the resize
     out and retries its remainder as one run on the new service.  Every
     operation must resolve to a value (the fabric never closes here),
     exactly once, with the read conserved. *)
  let run = make_run ~shards:1 () in
  let s = Fab.session ~key:0 run.fab in
  let ops = [| Fab.Inc; Fab.Dec; Fab.Inc |] in
  let finish () =
    match check run () with
    | Some _ as failure -> failure
    | None ->
        if
          List.length !(run.results) <> Array.length ops
          || List.exists
               (fun (_, r) -> match r with Val _ -> false | _ -> true)
               !(run.results)
        then Some "an operation of the run did not resolve to a value"
        else None
  in
  {
    Engine.name = "fabric-run-vs-resize";
    fibers = [| runner run s ops; resizer run ~shard:0 (Counting.network ~w:2 ~t:2) |];
    finish;
  }

let resize_vs_shutdown ~fail_spawn name () =
  (* A resize racing the terminal shutdown of its only shard, under a
     worker: the shutdown must return whether it claims the shard
     before, after or while the resize holds it, and leave the shard's
     current service stopped (a swapped-out one was stopped by the
     resize itself); the resize either swaps ([Ok]), loses the claim
     ([Busy]) or finds the fabric closed ([Fabric_closed]).  Under
     [~fail_spawn] a resize that claims the shard raises from its spawn
     once the old service is shut down, and must fail-stop the fabric
     with the shard [Stopped] (a claim left [Resizing] deadlocks the
     worker and the stopper). *)
  let run = make_run ~fail_spawn ~shards:1 () in
  let s = Fab.session ~key:0 run.fab in
  let resized = ref None in
  let finish () =
    match (!(run.reports), !resized) with
    | [], _ -> Some "the shutdown did not return"
    | _, Some (Error ()) when not (Fab.closed run.fab) ->
        Some "a failed spawn left the fabric open"
    | _, Some (Error () | Ok (Ok () | Error (Fab.Busy | Fab.Fabric_closed))) ->
        if not (all_stopped run) then Some "a shard's service is still running"
        else check run ()
    | _ -> Some "the resize did not return Ok, Busy or Fabric_closed"
  in
  {
    Engine.name = name;
    fibers =
      [|
        worker run s Fab.Inc;
        (fun () ->
          resized :=
            Some
              (match Fab.resize run.fab ~shard:0 (Counting.network ~w:2 ~t:2) with
              | r -> Ok r
              | exception Spawn_failed -> Error ()));
        stopper run;
      |];
    finish;
  }

let shutdown_vs_resize = resize_vs_shutdown ~fail_spawn:false "fabric-shutdown-vs-resize"
let resize_spawn_fails = resize_vs_shutdown ~fail_spawn:true "fabric-resize-spawn-fails"

let read_vs_resize () =
  (* A read that starts after the increment returned must see it,
     whether the resize has not begun, holds the shard, or has folded
     the count into [base].  One reader: a second multiplies the
     explored schedules about tenfold. *)
  let run = make_run ~shards:2 () in
  let s = Fab.session ~key:(key_for run 0) run.fab in
  let read = ref None in
  let reader () =
    let after_inc =
      List.exists (fun (_, r) -> match r with Val _ -> true | _ -> false) !(run.results)
    in
    read := Some (after_inc, Fab.read run.fab)
  in
  let finish () =
    match !read with
    | None -> Some "the read did not return"
    | Some (after_inc, v) when not (v = 1 || (v = 0 && not after_inc)) ->
        Some
          (Printf.sprintf "a read %s the increment returned %d"
             (if after_inc then "after" else "racing")
             v)
    | Some _ -> check run ()
  in
  {
    Engine.name = "fabric-read-vs-resize";
    fibers =
      [| worker run s Fab.Inc; resizer run ~shard:0 (Counting.network ~w:2 ~t:2); reader |];
    finish;
  }

let all =
  [
    ("fabric-resize-vs-submit", resize_vs_submit);
    ("fabric-resize-vs-resize", resize_vs_resize);
    ("fabric-drain-vs-route", drain_vs_route);
    ("fabric-shutdown-vs-submit", shutdown_vs_submit);
    ("fabric-shutdown-vs-shutdown", shutdown_vs_shutdown);
    ("fabric-shutdown-after-failstop", shutdown_after_failstop);
    ("fabric-run-vs-resize", run_vs_resize);
    ("fabric-shutdown-vs-resize", shutdown_vs_resize);
    ("fabric-resize-spawn-fails", resize_spawn_fails);
    ("fabric-read-vs-resize", read_vs_resize);
  ]
