module V = Cn_runtime.Validator
module Sequence = Cn_sequence.Sequence
module Counting = Cn_core.Counting

(* The production protocol body over instrumented atomics and the model
   network: what the explorer actually exercises. *)
module Svc = Cn_service.Service_core.Make (Instrumented) (Model_net)

(* Per-run recording.  One OS thread, so plain refs are safe; results
   are (operation, outcome) pairs in completion order. *)
type outcome =
  | Val of int
  | Rejected
  | Refused
  | Unset  (* reported served, but no value was ever written *)

let op_outcome = function
  | Ok v -> Val v
  | Error Svc.Overloaded -> Rejected
  | Error Svc.Closed -> Refused

type run = {
  rt : Model_net.t;
  svc : Svc.t;
  results : (Svc.op * outcome) list ref;
  shutdowns : int ref; (* completed shutdown calls *)
  distinct_incs : bool; (* elim off, inc-only: values must be distinct *)
}

let worker run sess op () =
  let r =
    match op with Svc.Inc -> Svc.increment sess | Svc.Dec -> Svc.decrement sess
  in
  run.results := (op, op_outcome r) :: !(run.results)

(* A run entry: every operation is recorded with the outcome the run
   reported for it — a value for the served prefix, the run's error for
   the rest. *)
let runner run sess ops () =
  let n = Array.length ops in
  let vals = Array.make n min_int in
  let served, refusal =
    match Svc.run sess ops vals ~off:0 ~len:n with
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

let drainer run () = ignore (Svc.drain run.svc)

let stopper run () =
  ignore (Svc.shutdown run.svc);
  incr run.shutdowns

(* The shared oracle, run on the final state with no fiber scheduled. *)
let check run () =
  let dist = Model_net.exit_distribution run.rt in
  let oks op =
    List.length
      (List.filter
         (fun (o, r) -> o = op && match r with Val _ -> true | _ -> false)
         !(run.results))
  in
  let fail fmt = Printf.ksprintf Option.some fmt in
  if !(run.shutdowns) > 0 && Svc.lifecycle run.svc <> `Stopped then
    fail "shutdown returned but the service is not stopped (resurrected)"
  else if
    List.exists (fun (_, passed) -> not passed) (Model_net.validations run.rt)
  then fail "a drain/shutdown validation observed a non-quiescent network"
  else
    match (Svc.lifecycle run.svc, Model_net.last_validation run.rt) with
    | `Stopped, Some (seen, _) when seen <> dist ->
        fail "network traversed after the validated quiescence point (%s -> %s)"
          (Sequence.to_string seen) (Sequence.to_string dist)
    | `Stopped, None -> fail "service stopped without a quiescent validation"
    | _ ->
        let expected = oks Svc.Inc - oks Svc.Dec in
        if Sequence.sum dist <> expected then
          fail "token conservation: %d exits vs %d ok(inc) - ok(dec)"
            (Sequence.sum dist) expected
        else if Svc.net run.svc <> expected then
          fail "net count %d vs %d ok(inc) - ok(dec)" (Svc.net run.svc) expected
        else if not (Sequence.is_step dist) then
          fail "final distribution is not a step: %s" (Sequence.to_string dist)
        else if run.distinct_incs then begin
          let vals =
            List.filter_map
              (fun (o, r) ->
                match (o, r) with Svc.Inc, Val v -> Some v | _ -> None)
              !(run.results)
          in
          let sorted = List.sort_uniq compare vals in
          if List.length sorted <> List.length vals then
            fail "duplicate increment values without elimination: %s"
              (String.concat "," (List.map string_of_int vals))
          else None
        end
        else None

let make_run ?(elim = false) ?(queue = 2) ~w ~t ~distinct_incs () =
  let rt = Model_net.compile (Counting.network ~w ~t) in
  let svc = Svc.make ~max_batch:4 ~queue ~elim ~validate:V.Off rt in
  { rt; svc; results = ref []; shutdowns = ref 0; distinct_incs }

let drain_vs_shutdown () =
  let run = make_run ~w:2 ~t:2 ~distinct_incs:true () in
  let s0 = Svc.session ~wire:0 run.svc in
  {
    Engine.name = "drain-vs-shutdown";
    fibers = [| worker run s0 Svc.Inc; drainer run; stopper run |];
    finish = check run;
  }

let late_admission () =
  let run = make_run ~w:2 ~t:2 ~distinct_incs:true () in
  let s0 = Svc.session ~wire:0 run.svc in
  let s1 = Svc.session ~wire:0 run.svc in
  {
    Engine.name = "late-admission";
    fibers = [| worker run s0 Svc.Inc; worker run s1 Svc.Inc; stopper run |];
    finish = check run;
  }

let mixed_ops_drain () =
  let run = make_run ~elim:true ~w:2 ~t:2 ~distinct_incs:false () in
  let s0 = Svc.session ~wire:0 run.svc in
  let s1 = Svc.session ~wire:0 run.svc in
  {
    Engine.name = "mixed-ops-drain";
    fibers = [| worker run s0 Svc.Inc; worker run s1 Svc.Dec; drainer run |];
    finish = check run;
  }

let submit_await_shutdown () =
  let run = make_run ~w:2 ~t:2 ~distinct_incs:true () in
  let s0 = Svc.session ~wire:0 run.svc in
  let s1 = Svc.session ~wire:1 run.svc in
  let async_worker () =
    match Svc.submit s0 Svc.Inc with
    | Error e -> run.results := (Svc.Inc, op_outcome (Error e)) :: !(run.results)
    | Ok () ->
        let v = Svc.await s0 in
        run.results := (Svc.Inc, Val v) :: !(run.results)
  in
  {
    Engine.name = "submit-await-shutdown";
    fibers = [| async_worker; worker run s1 Svc.Inc; stopper run |];
    finish = check run;
  }

let c44_shutdown () =
  let run = make_run ~w:4 ~t:4 ~distinct_incs:true () in
  let s0 = Svc.session ~wire:0 run.svc in
  let s1 = Svc.session ~wire:1 run.svc in
  let s2 = Svc.session ~wire:2 run.svc in
  {
    Engine.name = "c44-shutdown";
    fibers =
      [|
        worker run s0 Svc.Inc;
        worker run s1 Svc.Inc;
        worker run s2 Svc.Inc;
        stopper run;
      |];
    finish = check run;
  }

(* A 3-op mixed run on a lane another session contends for, so the run
   either holds the flag and combines or is published as one entry.
   On top of the shared oracle: every operation of the run resolved to
   a value or [Closed] (queue 2 holds both entries, so [Overloaded] is a
   bug), exactly once. *)
let run_vs name ~lifecycle () =
  let run = make_run ~elim:true ~w:2 ~t:2 ~distinct_incs:false () in
  let s0 = Svc.session ~wire:0 run.svc in
  let s1 = Svc.session ~wire:0 run.svc in
  let ops = [| Svc.Inc; Svc.Dec; Svc.Inc |] in
  let finish () =
    match check run () with
    | Some _ as failure -> failure
    | None ->
        if List.exists (fun (_, r) -> r = Rejected || r = Unset) !(run.results)
        then Some "an operation of the run resolved to neither a value nor Closed"
        else if List.length !(run.results) <> Array.length ops + 1 then
          Some
            (Printf.sprintf "%d outcomes recorded for %d operations"
               (List.length !(run.results)) (Array.length ops + 1))
        else None
  in
  {
    Engine.name;
    fibers = [| runner run s0 ops; worker run s1 Svc.Dec; lifecycle run |];
    finish;
  }

let run_vs_drain () = run_vs "run-vs-drain" ~lifecycle:drainer ()
let run_vs_shutdown () = run_vs "run-vs-shutdown" ~lifecycle:stopper ()

(* Two runs on one lane whose lengths (3 + 2) overflow [max_batch] 4
   together: whichever holds the flag must leave the other's entry
   parked rather than serve both in one batch.  Elimination off, so the
   shared oracle also sees five distinct increment values. *)
let run_cap () =
  let run = make_run ~w:2 ~t:2 ~distinct_incs:true () in
  let s0 = Svc.session ~wire:0 run.svc in
  let s1 = Svc.session ~wire:0 run.svc in
  let finish () =
    match check run () with
    | Some _ as failure -> failure
    | None ->
        let largest = (Svc.stats run.svc).Svc.max_batch_observed.(0) in
        if largest > Svc.max_batch run.svc then
          Some (Printf.sprintf "a batch served %d ops past max_batch %d" largest
                  (Svc.max_batch run.svc))
        else None
  in
  {
    Engine.name = "run-cap";
    fibers =
      [| runner run s0 (Array.make 3 Svc.Inc); runner run s1 (Array.make 2 Svc.Inc) |];
    finish;
  }

(* Two sessions on one lane, so one's increment can be published and
   drained by the other's combiner; each fiber reads the net count once
   its own increment has returned.  Every read must count the reader's
   own operation: a combiner that released its waiters before adding
   the batch to its lane's word would let the drained fiber read 0. *)
let read_own_op () =
  let run = make_run ~w:2 ~t:2 ~distinct_incs:true () in
  let reads = ref [] in
  let reader sess () =
    let r = Svc.increment sess in
    run.results := (Svc.Inc, op_outcome r) :: !(run.results);
    if Result.is_ok r then begin
      (* the load yields: read it before touching the shared list *)
      let v = Svc.net run.svc in
      reads := v :: !reads
    end
  in
  let s0 = Svc.session ~wire:0 run.svc in
  let s1 = Svc.session ~wire:0 run.svc in
  let finish () =
    match check run () with
    | Some _ as failure -> failure
    | None ->
        if List.length !reads <> 2 then
          Some (Printf.sprintf "%d of 2 increments returned a value" (List.length !reads))
        else if List.exists (fun v -> v < 1) !reads then
          Some
            (Printf.sprintf "a read after its own increment returned saw net %s"
               (String.concat "," (List.map string_of_int !reads)))
        else None
  in
  { Engine.name = "read-own-op"; fibers = [| reader s0; reader s1 |]; finish }

let all =
  [
    ("drain-vs-shutdown", drain_vs_shutdown);
    ("late-admission", late_admission);
    ("mixed-ops-drain", mixed_ops_drain);
    ("submit-await-shutdown", submit_await_shutdown);
    ("c44-shutdown", c44_shutdown);
    ("run-vs-drain", run_vs_drain);
    ("run-vs-shutdown", run_vs_shutdown);
    ("run-cap", run_cap);
    ("read-own-op", read_own_op);
  ]
