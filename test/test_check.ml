(* Tests for Cn_check: the deterministic race checker — engine
   plumbing, the selftest against the deliberately buggy pre-fix
   models, the pinned reproducer schedules, and the real service
   protocol passing under exploration. *)

module E = Cn_check.Engine
module Self = Cn_check.Selftest
module Sc = Cn_check.Scenarios
module Fsc = Cn_check.Fabric_scenarios

let tc name f = Alcotest.test_case name `Quick f

let engine =
  [
    tc "schedule strings round-trip" (fun () ->
        let s = [ 0; 2; 1; 1; 0; 3 ] in
        Alcotest.(check (list int))
          "round trip" s
          (E.schedule_of_string (E.schedule_to_string s));
        Alcotest.(check (list int)) "empty" [] (E.schedule_of_string ""));
    tc "explore is deterministic" (fun () ->
        let run () = E.explore ~preemptions:1 Self.lifecycle_race in
        let a = run () and b = run () in
        Alcotest.(check bool) "same failure" true (a.E.failure = b.E.failure);
        Alcotest.(check int) "same interleavings" a.E.stats.E.interleavings
          b.E.stats.E.interleavings);
  ]

let selftest =
  let contains = Util.contains in
  [
    tc "explorer finds the lifecycle race (stopped resurrected)" (fun () ->
        let out = E.explore ~preemptions:2 Self.lifecycle_race in
        match out.E.failure with
        | None -> Alcotest.fail "planted lifecycle bug not found"
        | Some f ->
            Alcotest.(check bool) "reason" true (contains f.E.reason "resurrected"));
    tc "explorer finds the admission race (late traversal)" (fun () ->
        let out = E.explore ~preemptions:2 Self.admission_race in
        match out.E.failure with
        | None -> Alcotest.fail "planted admission bug not found"
        | Some f ->
            Alcotest.(check bool) "reason" true (contains f.E.reason "quiescence"));
    tc "pinned lifecycle schedule replays to the failure" (fun () ->
        match E.replay Self.lifecycle_race Self.lifecycle_schedule with
        | None -> Alcotest.fail "pinned lifecycle schedule no longer fails"
        | Some f ->
            Alcotest.(check bool) "reason" true (contains f.E.reason "resurrected"));
    tc "pinned admission schedule replays to the failure" (fun () ->
        match E.replay Self.admission_race Self.admission_schedule with
        | None -> Alcotest.fail "pinned admission schedule no longer fails"
        | Some f ->
            Alcotest.(check bool) "reason" true (contains f.E.reason "quiescence"));
    tc "explorer finds the run-entry race (no re-check under the flag)" (fun () ->
        let out = E.explore ~preemptions:2 Self.run_race in
        match out.E.failure with
        | None -> Alcotest.fail "planted run-entry bug not found"
        | Some f ->
            Alcotest.(check bool) "reason" true (contains f.E.reason "quiescence"));
    tc "pinned run-entry schedule replays to the failure" (fun () ->
        match E.replay Self.run_race Self.run_schedule with
        | None -> Alcotest.fail "pinned run-entry schedule no longer fails"
        | Some f ->
            Alcotest.(check bool) "reason" true (contains f.E.reason "quiescence"));
    tc "a found failure's schedule replays to the same failure" (fun () ->
        let out = E.explore ~preemptions:2 Self.admission_race in
        match out.E.failure with
        | None -> Alcotest.fail "no failure to replay"
        | Some f -> (
            match E.replay Self.admission_race f.E.schedule with
            | None -> Alcotest.fail "explorer schedule did not replay"
            | Some f' ->
                Alcotest.(check string) "same reason" f.E.reason f'.E.reason));
  ]

let service_protocol =
  (* The real Service_core.Make body over the model network: every
     scenario must survive every interleaving within the preemption
     bound, and the exploration must be exhaustive (complete = true,
     no step-bound cutoffs). *)
  List.map
    (fun (name, mk) ->
      tc (Printf.sprintf "%s passes exhaustively at 2 preemptions" name)
        (fun () ->
          let out = E.explore ~preemptions:2 mk in
          (match out.E.failure with
          | None -> ()
          | Some f ->
              Alcotest.failf "%s: %s (schedule %s)" name f.E.reason
                (E.schedule_to_string f.E.schedule));
          Alcotest.(check bool) "complete" true out.E.stats.E.complete;
          Alcotest.(check int) "no cutoffs" 0 out.E.stats.E.cutoffs;
          Alcotest.(check bool) "explored something" true
            (out.E.stats.E.interleavings > 0)))
    Sc.all

let fabric_protocol =
  (* The real Fabric_core.Make body over instrumented model services:
     hot-resize, drain, shutdown and the global read must survive
     every interleaving within the preemption bound. *)
  List.map
    (fun (name, mk) ->
      tc (Printf.sprintf "%s passes exhaustively at 2 preemptions" name)
        (fun () ->
          let out = E.explore ~preemptions:2 mk in
          (match out.E.failure with
          | None -> ()
          | Some f ->
              Alcotest.failf "%s: %s (schedule %s)" name f.E.reason
                (E.schedule_to_string f.E.schedule));
          Alcotest.(check bool) "complete" true out.E.stats.E.complete;
          Alcotest.(check int) "no cutoffs" 0 out.E.stats.E.cutoffs;
          Alcotest.(check bool) "explored something" true
            (out.E.stats.E.interleavings > 0)))
    Fsc.all

let cooperative =
  [
    tc "empty schedule runs every scenario cooperatively clean" (fun () ->
        List.iter
          (fun (name, mk) ->
            match E.replay mk [] with
            | None -> ()
            | Some f -> Alcotest.failf "%s: %s" name f.E.reason)
          (Sc.all @ Fsc.all));
  ]

let suite =
  [
    ("check.engine", engine);
    ("check.selftest", selftest);
    ("check.service", service_protocol);
    ("check.fabric", fabric_protocol);
    ("check.cooperative", cooperative);
  ]
