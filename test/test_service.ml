(* Tests for the Cn_service combining front-end: sessions, flat
   combining, inc/dec elimination (paper, Section 1.4.2), backpressure
   and lifecycle. *)

module Svc = Cn_service.Service
module W = Cn_service.Workload
module RT = Cn_runtime.Network_runtime
module V = Cn_runtime.Validator
module S = Cn_sequence.Sequence

let tc name f = Alcotest.test_case name `Quick f
let net48 () = Cn_core.Counting.network ~w:4 ~t:8
let net816 () = Cn_core.Counting.network ~w:8 ~t:16

let check_ok label = function
  | Ok v -> v
  | Error Svc.Overloaded -> Alcotest.failf "%s: unexpected Overloaded" label
  | Error Svc.Closed -> Alcotest.failf "%s: unexpected Closed" label

let sessions =
  [
    tc "sessions are pinned round-robin over input wires" (fun () ->
        let svc = Svc.create (net48 ()) in
        let wires =
          List.init 6 (fun _ -> Svc.session_wire (Svc.session svc))
        in
        Alcotest.(check (list int)) "round robin" [ 0; 1; 2; 3; 0; 1 ] wires);
    tc "explicit wire pinning" (fun () ->
        let svc = Svc.create (net48 ()) in
        Alcotest.(check int) "pinned" 2 (Svc.session_wire (Svc.session ~wire:2 svc)));
    Util.raises_invalid "session wire out of range" (fun () ->
        ignore (Svc.session ~wire:4 (Svc.create (net48 ()))));
    Util.raises_invalid "create rejects max_batch 0" (fun () ->
        ignore (Svc.create ~max_batch:0 (net48 ())));
    Util.raises_invalid "create rejects queue 0" (fun () ->
        ignore (Svc.create ~queue:0 (net48 ())));
  ]

let sequential =
  [
    tc "sequential increments hand out 0.." (fun () ->
        let svc = Svc.create (net48 ()) in
        let s = Svc.session svc in
        for expect = 0 to 19 do
          Alcotest.(check int)
            (Printf.sprintf "value %d" expect)
            expect
            (check_ok "inc" (Svc.increment s))
        done;
        let st = Svc.stats svc in
        Alcotest.(check int) "all ops served" 20 st.Svc.total_ops);
    tc "increment/decrement round trip matches the raw runtime" (fun () ->
        let svc = Svc.create (net48 ()) in
        let s0 = Svc.session ~wire:0 svc and s1 = Svc.session ~wire:1 svc in
        Alcotest.(check int) "a" 0 (check_ok "a" (Svc.increment s0));
        Alcotest.(check int) "b" 1 (check_ok "b" (Svc.increment s1));
        Alcotest.(check int) "reclaim" 1 (check_ok "r" (Svc.decrement s1));
        Alcotest.(check int) "reissue" 1 (check_ok "b'" (Svc.increment s1)));
    tc "drain validates and the service stays usable" (fun () ->
        let svc = Svc.create ~metrics:true (net48 ()) in
        let s = Svc.session svc in
        ignore (check_ok "inc" (Svc.increment s));
        let report = Svc.drain svc in
        Alcotest.(check bool) "drain passed" true (V.passed report);
        Alcotest.(check int) "usable after drain" 1
          (check_ok "inc" (Svc.increment s)));
    tc "shutdown closes the service, idempotently" (fun () ->
        let svc = Svc.create (net48 ()) in
        let s = Svc.session svc in
        ignore (check_ok "inc" (Svc.increment s));
        ignore (Svc.shutdown svc);
        ignore (Svc.shutdown svc);
        (match Svc.increment s with
        | Error Svc.Closed -> ()
        | Ok _ | Error Svc.Overloaded -> Alcotest.fail "expected Closed");
        (match Svc.submit s Svc.Inc with
        | Error Svc.Closed -> ()
        | Ok _ | Error Svc.Overloaded -> Alcotest.fail "expected Closed");
        (* Drain on a stopped service validates but does not re-open. *)
        ignore (Svc.drain svc);
        match Svc.increment s with
        | Error Svc.Closed -> ()
        | Ok _ | Error Svc.Overloaded -> Alcotest.fail "still closed");
  ]

let elimination =
  [
    tc "matched batch eliminates all but an anchor pair" (fun () ->
        (* Park 2 decrements and 2 increments on one wire, then combine:
           one inc/dec pair is the anchor (its read-only walk finds the
           value 0), the other pair eliminates locally.  Every operation
           returns the anchor value 0. *)
        let svc = Svc.create ~metrics:true (net48 ()) in
        let ss = Array.init 4 (fun _ -> Svc.session ~wire:0 svc) in
        let ops = [| Svc.Dec; Svc.Dec; Svc.Inc; Svc.Inc |] in
        Array.iteri
          (fun i op ->
            match Svc.submit ss.(i) op with
            | Ok () -> ()
            | Error _ -> Alcotest.fail "submit failed")
          ops;
        let values = Array.map Svc.await ss in
        Alcotest.check Util.seq "all borrow the anchor value" [| 0; 0; 0; 0 |]
          values;
        let st = Svc.stats svc in
        Alcotest.(check int) "one pair eliminated" 1 st.Svc.total_eliminated_pairs;
        Alcotest.(check int) "one batch" 1 st.Svc.total_batches;
        Alcotest.(check int) "four ops served" 4 st.Svc.total_ops;
        Alcotest.(check int) "net zero" 0 (S.sum (RT.exit_distribution (Svc.runtime svc)));
        V.enforce V.Strict (V.quiescent_runtime (Svc.runtime svc)));
    tc "unbalanced batch eliminates min(incs, decs)" (fun () ->
        let svc = Svc.create ~metrics:true (net48 ()) in
        let ss = Array.init 4 (fun _ -> Svc.session ~wire:1 svc) in
        let ops = [| Svc.Inc; Svc.Inc; Svc.Inc; Svc.Dec |] in
        Array.iteri (fun i op -> ignore (Svc.submit ss.(i) op)) ops;
        let _values = Array.map Svc.await ss in
        let st = Svc.stats svc in
        Alcotest.(check int) "one pair eliminated" 1 st.Svc.total_eliminated_pairs;
        Alcotest.(check int) "net two" 2 (S.sum (RT.exit_distribution (Svc.runtime svc)));
        V.enforce V.Strict (V.quiescent_runtime (Svc.runtime svc)));
    tc "elim:false sends everything through the network" (fun () ->
        let svc = Svc.create ~metrics:true ~elim:false (net48 ()) in
        let ss = Array.init 4 (fun _ -> Svc.session ~wire:0 svc) in
        let ops = [| Svc.Dec; Svc.Dec; Svc.Inc; Svc.Inc |] in
        Array.iteri (fun i op -> ignore (Svc.submit ss.(i) op)) ops;
        ignore (Array.map Svc.await ss);
        let st = Svc.stats svc in
        Alcotest.(check int) "nothing eliminated" 0 st.Svc.total_eliminated_pairs;
        (* All four ops really traversed: 2 tokens + 2 antitokens. *)
        let m = Option.get (RT.metrics (Svc.runtime svc)) in
        let snap = Cn_runtime.Metrics.snapshot m in
        Alcotest.(check int) "tokens" 2 snap.Cn_runtime.Metrics.tokens;
        Alcotest.(check int) "antitokens" 2 snap.Cn_runtime.Metrics.antitokens;
        V.enforce V.Strict (V.quiescent_runtime (Svc.runtime svc)));
    tc "eliminated ops never reach the network" (fun () ->
        let svc = Svc.create ~metrics:true (net48 ()) in
        let ss = Array.init 4 (fun _ -> Svc.session ~wire:0 svc) in
        let ops = [| Svc.Dec; Svc.Dec; Svc.Inc; Svc.Inc |] in
        Array.iteri (fun i op -> ignore (Svc.submit ss.(i) op)) ops;
        ignore (Array.map Svc.await ss);
        let m = Option.get (RT.metrics (Svc.runtime svc)) in
        let snap = Cn_runtime.Metrics.snapshot m in
        (* A perfectly matched batch takes its anchor from a read-only walk. *)
        Alcotest.(check int) "tokens" 0 snap.Cn_runtime.Metrics.tokens;
        Alcotest.(check int) "antitokens" 0 snap.Cn_runtime.Metrics.antitokens);
    tc "a pure-decrement batch reclaims issued values (batched antitokens)" (fun () ->
        (* Fill the counter, then park 3 decrements on one lane and
           combine them in a single batch: the drain runs the batched
           antitoken walk, and the reclaimed values are 3 of the issued
           ones with the distribution still a step afterwards. *)
        let svc = Svc.create ~elim:false (net48 ()) in
        let s = Svc.session ~wire:0 svc in
        for _ = 1 to 8 do
          ignore (check_ok "fill" (Svc.increment s))
        done;
        let ds = Array.init 3 (fun _ -> Svc.session ~wire:0 svc) in
        Array.iter (fun d -> ignore (Svc.submit d Svc.Dec)) ds;
        let reclaimed = Array.map Svc.await ds in
        Array.iter
          (fun v -> Alcotest.(check bool) "reclaimed an issued value" true (v >= 0 && v < 8))
          reclaimed;
        Alcotest.(check int) "net five" 5 (S.sum (RT.exit_distribution (Svc.runtime svc)));
        V.enforce V.Strict (V.quiescent_runtime (Svc.runtime svc)));
    Util.raises_invalid "double submit on one session" (fun () ->
        let svc = Svc.create (net48 ()) in
        let s = Svc.session svc in
        ignore (Svc.submit s Svc.Inc);
        ignore (Svc.submit s Svc.Inc));
    Util.raises_invalid "await without submit" (fun () ->
        ignore (Svc.await (Svc.session (Svc.create (net48 ())))));
  ]

let backpressure =
  [
    tc "full lane rejects with Overloaded and recovers" (fun () ->
        let svc = Svc.create ~max_batch:8 ~queue:2 (net48 ()) in
        let s1 = Svc.session ~wire:0 svc
        and s2 = Svc.session ~wire:0 svc
        and s3 = Svc.session ~wire:0 svc in
        Alcotest.(check bool) "s1 parked" true (Svc.submit s1 Svc.Inc = Ok ());
        Alcotest.(check bool) "s2 parked" true (Svc.submit s2 Svc.Inc = Ok ());
        (match Svc.submit s3 Svc.Inc with
        | Error Svc.Overloaded -> ()
        | Ok () | Error Svc.Closed -> Alcotest.fail "expected Overloaded");
        let st = Svc.stats svc in
        Alcotest.(check int) "rejection counted" 1 st.Svc.total_rejected;
        (* Completing the parked ops frees the lane. *)
        let v1 = Svc.await s1 and v2 = Svc.await s2 in
        Alcotest.(check bool) "distinct values" true (v1 <> v2);
        Alcotest.(check bool) "s3 retries fine" true (Svc.submit s3 Svc.Inc = Ok ());
        Alcotest.(check int) "third value" 2 (Svc.await s3);
        ignore (Svc.drain svc));
    tc "rejections appear in the JSON report" (fun () ->
        let svc = Svc.create ~queue:1 (net48 ()) in
        let s1 = Svc.session ~wire:0 svc and s2 = Svc.session ~wire:0 svc in
        ignore (Svc.submit s1 Svc.Inc);
        ignore (Svc.submit s2 Svc.Inc);
        ignore (Svc.await s1);
        let json = Svc.stats_json svc in
        let contains hay needle =
          let lh = String.length hay and ln = String.length needle in
          let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "rejected field" true (contains json "\"rejected\": 1");
        Alcotest.(check bool) "elimination_rate field" true
          (contains json "\"elimination_rate\""));
  ]

let concurrent =
  [
    tc "range contract through the service (4 domains)" (fun () ->
        let svc = Svc.create ~metrics:true (net816 ()) in
        (* Sessions are single-owner: one per domain, indexed by pid. *)
        let ss = Array.init 4 (fun _ -> Svc.session svc) in
        let values = Array.init 4 (fun _ -> Array.make 200 (-1)) in
        ignore
          (Cn_runtime.Domain_pool.round ~domains:4 (fun pid ->
               for i = 0 to 199 do
                 values.(pid).(i) <- check_ok "inc" (Svc.increment ss.(pid))
               done));
        Alcotest.(check bool) "range" true (V.values_form_a_range values);
        let report = Svc.drain svc in
        Alcotest.(check bool) "quiescent after drain" true (V.passed report));
    tc "concurrent mixed inc/dec drains clean under Strict" (fun () ->
        let svc = Svc.create ~metrics:true (net48 ()) in
        (* Two domains per wire so inc/dec traffic can pair off. *)
        let ss = Array.init 4 (fun pid -> Svc.session ~wire:(pid mod 2) svc) in
        let ops = 200 in
        let body pid () =
          let s = ss.(pid) in
          for k = 0 to ops - 1 do
            let r = if k land 1 = 0 then Svc.increment s else Svc.decrement s in
            ignore (check_ok "op" r)
          done
        in
        let handles = Array.init 4 (fun pid -> Domain.spawn (body pid)) in
        Array.iter Domain.join handles;
        let report = Svc.drain svc in
        Alcotest.(check bool) "strict drain" true (V.passed report);
        let st = Svc.stats svc in
        Alcotest.(check int) "every op served exactly once" (4 * ops)
          st.Svc.total_ops;
        Alcotest.(check int) "net zero" 0
          (S.sum (RT.exit_distribution (Svc.runtime svc))));
    tc "workload: closed loop, mixed, zipf-skewed" (fun () ->
        let svc = Svc.create ~metrics:true (net48 ()) in
        let spec =
          {
            W.default with
            W.domains = 4;
            ops_per_domain = 300;
            sessions_per_domain = 2;
            dec_ratio = 0.5;
            skew = W.Zipf 1.2;
          }
        in
        let st = W.run svc spec in
        Alcotest.(check int) "nothing lost" (4 * 300)
          (st.W.completed + st.W.rejected);
        let report = Svc.drain svc in
        Alcotest.(check bool) "strict drain" true (V.passed report);
        Alcotest.(check int) "net flow matches workload accounting"
          (st.W.increments - st.W.decrements)
          (S.sum (RT.exit_distribution (Svc.runtime svc))));
    tc "workload: bursty arrivals complete" (fun () ->
        let svc = Svc.create (net48 ()) in
        let spec =
          {
            W.default with
            W.domains = 2;
            ops_per_domain = 64;
            arrival = W.Bursty { burst = 16; pause = 0.0005 };
          }
        in
        let st = W.run svc spec in
        Alcotest.(check int) "all completed or shed" 128
          (st.W.completed + st.W.rejected);
        ignore (Svc.drain svc));
  ]

let races =
  (* Multi-domain stress over the two protocol paths the deterministic
     checker (Cn_check, `make check-races`) verifies exhaustively at
     model scale: drain/shutdown lifecycle racing live traffic, and
     admission racing the quiescence validation point. *)
  [
    tc "drain races live increments across 4 domains (strict)" (fun () ->
        let svc = Svc.create (net48 ()) in
        let ok = Array.make 4 0 in
        let stopping = Atomic.make false in
        let body pid () =
          let s = Svc.session svc in
          try
            for _ = 1 to 400 do
              match Svc.increment s with
              | Ok _ -> ok.(pid) <- ok.(pid) + 1
              | Error Svc.Overloaded -> Domain.cpu_relax ()
              | Error Svc.Closed ->
                  (* Mid-drain rejection: retry unless shutting down. *)
                  if Atomic.get stopping then raise Exit else Domain.cpu_relax ()
            done
          with Exit -> ()
        in
        let hs = Array.init 4 (fun pid -> Domain.spawn (body pid)) in
        for _ = 1 to 3 do
          Alcotest.(check bool) "interleaved drain strict" true
            (V.passed (Svc.drain svc))
        done;
        Atomic.set stopping true;
        Alcotest.(check bool) "shutdown strict" true (V.passed (Svc.shutdown svc));
        Array.iter Domain.join hs;
        Alcotest.(check bool) "stopped terminal" true
          (Svc.lifecycle svc = `Stopped);
        (* No admitted op traversed past the shutdown's validation:
           tokens out of the network = successful increments. *)
        Alcotest.(check int) "conservation"
          (Array.fold_left ( + ) 0 ok)
          (S.sum (RT.exit_distribution (Svc.runtime svc))));
    tc "concurrent drains and shutdowns: stopped is terminal" (fun () ->
        let svc = Svc.create (net48 ()) in
        let s = Svc.session svc in
        ignore (check_ok "seed" (Svc.increment s));
        let reports = Array.make 6 None in
        let body i () =
          let r = if i land 1 = 0 then Svc.drain svc else Svc.shutdown svc in
          reports.(i) <- Some r
        in
        let hs = Array.init 6 (fun i -> Domain.spawn (body i)) in
        Array.iter Domain.join hs;
        Alcotest.(check bool) "stopped" true (Svc.lifecycle svc = `Stopped);
        Array.iteri
          (fun i -> function
            | Some r ->
                Alcotest.(check bool)
                  (Printf.sprintf "caller %d got a quiescent report" i)
                  true (V.passed r)
            | None -> Alcotest.failf "caller %d has no report" i)
          reports;
        match Svc.increment s with
        | Error Svc.Closed -> ()
        | Ok _ | Error Svc.Overloaded -> Alcotest.fail "expected Closed");
  ]

let workload_spec =
  [
    Util.raises_invalid "workload rejects dec_ratio > 1" (fun () ->
        ignore
          (W.run (Svc.create (net48 ())) { W.default with W.dec_ratio = 1.5 }));
    Util.raises_invalid "workload rejects zipf alpha 0" (fun () ->
        ignore
          (W.run (Svc.create (net48 ())) { W.default with W.skew = W.Zipf 0. }));
    Util.raises_invalid "workload rejects burst 0" (fun () ->
        ignore
          (W.run
             (Svc.create (net48 ()))
             { W.default with W.arrival = W.Bursty { burst = 0; pause = 0. } }));
    Util.raises_invalid "workload rejects domains 0" (fun () ->
        ignore (W.run (Svc.create (net48 ())) { W.default with W.domains = 0 }));
    Util.raises_invalid "workload rejects negative think time" (fun () ->
        ignore
          (W.run
             (Svc.create (net48 ()))
             { W.default with W.arrival = W.Closed (-1.) }));
    tc "achieved dec ratio converges on the spec ratio" (fun () ->
        (* Regression for the dec-ratio drift: a drawn decrement that
           landed on a zero balance used to be silently replaced by an
           increment, biasing the emitted mix well below the spec on
           bursty-balance runs.  Banked-decrement accounting pays every
           draw, so long runs converge. *)
        let svc = Svc.create (net48 ()) in
        let spec =
          { W.default with W.domains = 2; ops_per_domain = 10_000; dec_ratio = 0.3 }
        in
        let st = W.run svc spec in
        Alcotest.(check bool)
          (Printf.sprintf "achieved %.4f within 0.02 of 0.3"
             st.W.achieved_dec_ratio)
          true
          (Float.abs (st.W.achieved_dec_ratio -. 0.3) <= 0.02);
        ignore (Svc.drain svc));
    tc "dec ratios above one half cap near one half" (fun () ->
        (* Prefix non-negativity makes every decrement consume a prior
           increment, so 0.5 is the inherent ceiling, not drift. *)
        let svc = Svc.create (net48 ()) in
        let spec =
          { W.default with W.domains = 2; ops_per_domain = 10_000; dec_ratio = 0.9 }
        in
        let st = W.run svc spec in
        Alcotest.(check bool)
          (Printf.sprintf "achieved %.4f in [0.45, 0.5]" st.W.achieved_dec_ratio)
          true
          (st.W.achieved_dec_ratio >= 0.45 && st.W.achieved_dec_ratio <= 0.5);
        ignore (Svc.drain svc));
    Util.qtest ~count:20 "achieved dec ratio tracks any spec ratio below 0.45"
      QCheck2.Gen.(float_range 0. 0.45)
      (fun ratio ->
        let svc = Svc.create (net48 ()) in
        let spec =
          {
            W.default with
            W.domains = 1;
            ops_per_domain = 4_000;
            dec_ratio = ratio;
          }
        in
        let st = W.run svc spec in
        ignore (Svc.drain svc);
        (* Binomial noise at n = 4000 is sigma ~0.008; 0.05 is ~6
           sigma plus the bounded end-of-run banked remainder. *)
        Float.abs (st.W.achieved_dec_ratio -. ratio) <= 0.05);
  ]

let grammars =
  let parses name parse text expected =
    tc (Printf.sprintf "%s %S" name text) (fun () ->
        match parse text with
        | Ok v -> Alcotest.(check bool) "parsed value" true (v = expected)
        | Error msg -> Alcotest.failf "rejected: %s" msg)
  in
  let rejects name parse text expected =
    tc (Printf.sprintf "%s rejects %S" name text) (fun () ->
        match parse text with
        | Ok _ -> Alcotest.fail "accepted"
        | Error msg -> Alcotest.(check string) "usage text" expected msg)
  in
  [
    parses "skew" W.skew_of_string "uniform" W.Uniform;
    parses "skew" W.skew_of_string "zipf:1.2" (W.Zipf 1.2);
    rejects "skew" W.skew_of_string "zipf:0" {|--skew zipf exponent must be positive (got "0")|};
    rejects "skew" W.skew_of_string "frob" {|unknown skew "frob" (expected uniform or zipf:ALPHA)|};
    parses "arrival" W.arrival_of_string "closed" (W.Closed 0.);
    parses "arrival" W.arrival_of_string "closed:0.5" (W.Closed 0.5);
    parses "arrival" W.arrival_of_string "burst:4:0" (W.Bursty { burst = 4; pause = 0. });
    rejects "arrival" W.arrival_of_string "closed:-1"
      {|--arrival closed think time must be >= 0 (got "-1")|};
    rejects "arrival" W.arrival_of_string "burst:0:0.1"
      {|--arrival burst needs N >= 1 and PAUSE >= 0 (got "burst:0:0.1")|};
    rejects "arrival" W.arrival_of_string "sometimes"
      {|unknown arrival "sometimes" (expected closed[:THINK] or burst:N:PAUSE)|};
  ]

let runs =
  let run_ok s ops vals ~off ~len =
    match Svc.run s ops vals ~off ~len with
    | Ok () -> ()
    | Error (k, _) -> Alcotest.failf "run refused from index %d" k
  in
  [
    tc "an Inc run is one batch with the sequential values" (fun () ->
        let svc = Svc.create (net48 ()) in
        let s = Svc.session ~wire:1 svc in
        let vals = Array.make 10 (-1) in
        run_ok s (Array.make 10 Svc.Inc) vals ~off:0 ~len:10;
        Alcotest.(check (list int)) "0..9" (List.init 10 Fun.id) (Array.to_list vals);
        let st = Svc.stats svc in
        Alcotest.(check int) "one batch" 1 st.Svc.total_batches;
        Alcotest.(check int) "ten ops" 10 st.Svc.total_ops);
    tc "a mixed run eliminates across the run" (fun () ->
        let svc = Svc.create (net48 ()) in
        let s = Svc.session ~wire:0 svc in
        let seed = Array.make 4 0 in
        run_ok s (Array.make 4 Svc.Inc) seed ~off:0 ~len:4;
        let ops = [| Svc.Inc; Svc.Dec; Svc.Dec; Svc.Inc; Svc.Dec |] in
        run_ok s ops (Array.make 5 0) ~off:0 ~len:5;
        let st = Svc.stats svc in
        Alcotest.(check int) "two pairs eliminated" 2 st.Svc.total_eliminated_pairs;
        Alcotest.(check int) "net 4 + 2 - 3" 3 (RT.net_count (Svc.runtime svc));
        V.enforce V.Strict (Svc.drain svc));
    tc "a run longer than max_batch is chunked, offsets honoured" (fun () ->
        let svc = Svc.create ~max_batch:4 (net48 ()) in
        let s = Svc.session svc in
        let vals = Array.make 14 (-1) in
        run_ok s (Array.make 14 Svc.Inc) vals ~off:2 ~len:11;
        Alcotest.(check (list int))
          "untouched outside the range, 0..10 inside"
          ([ -1; -1 ] @ List.init 11 Fun.id @ [ -1 ])
          (Array.to_list vals);
        let st = Svc.stats svc in
        Alcotest.(check int) "chunks of 4, 4, 3" 3 st.Svc.total_batches;
        Alcotest.(check int) "largest chunk" 4 (Array.fold_left max 0 st.Svc.max_batch_observed));
    tc "a run on a stopped service reports where it stopped" (fun () ->
        let svc = Svc.create (net48 ()) in
        let s = Svc.session svc in
        ignore (Svc.shutdown svc);
        match Svc.run s (Array.make 5 Svc.Inc) (Array.make 5 0) ~off:2 ~len:3 with
        | Error (2, Svc.Closed) -> ()
        | Ok () | Error _ -> Alcotest.fail "expected Error (2, Closed)");
    tc "a run published behind a busy flag is drained whole" (fun () ->
        (* s1's submit parks a cell; s2's run takes the flag and folds
           the parked Dec into its own batch. *)
        let svc = Svc.create (net48 ()) in
        let s1 = Svc.session ~wire:2 svc and s2 = Svc.session ~wire:2 svc in
        run_ok s2 (Array.make 3 Svc.Inc) (Array.make 3 0) ~off:0 ~len:3;
        Alcotest.(check bool) "parked" true (Svc.submit s1 Svc.Dec = Ok ());
        run_ok s2 [| Svc.Inc; Svc.Inc |] (Array.make 2 0) ~off:0 ~len:2;
        ignore (Svc.await s1);
        let st = Svc.stats svc in
        Alcotest.(check int) "second batch held 3 ops" 3 st.Svc.max_batch_observed.(2);
        Alcotest.(check int) "the parked Dec paired off" 1 st.Svc.total_eliminated_pairs;
        Alcotest.(check int) "net 3 + 2 - 1" 4 (RT.net_count (Svc.runtime svc)));
    Util.raises_invalid "run range out of bounds" (fun () ->
        let s = Svc.session (Svc.create (net48 ())) in
        ignore (Svc.run s (Array.make 3 Svc.Inc) (Array.make 2 0) ~off:0 ~len:3));
    Util.raises_invalid "run with an outstanding submit" (fun () ->
        let s = Svc.session (Svc.create (net48 ())) in
        ignore (Svc.submit s Svc.Inc);
        ignore (Svc.run s [| Svc.Inc |] [| 0 |] ~off:0 ~len:1));
  ]

(* The net count (one word per lane): counted before a caller sees its
   value, cross-checked against the runtime's exits at every validated
   quiescence point. *)
let net_word =
  let agreement (report : V.report) =
    match List.find_opt (fun (c : V.check) -> c.V.name = "net-agreement") report.V.checks with
    | Some c -> c.V.ok
    | None -> Alcotest.fail "no net-agreement check in the report"
  in
  [
    tc "net counts every served op, eliminated pairs included" (fun () ->
        let svc = Svc.create (net48 ()) in
        let s = Svc.session ~wire:1 svc in
        let same label =
          Alcotest.(check int) label (RT.net_count (Svc.runtime svc)) (Svc.net svc)
        in
        same "fresh";
        ignore (check_ok "inc" (Svc.increment s));
        ignore (check_ok "inc" (Svc.increment s));
        ignore (check_ok "dec" (Svc.decrement s));
        same "solo fast path";
        let ops = [| Svc.Inc; Svc.Dec; Svc.Inc; Svc.Inc; Svc.Dec |] in
        (match Svc.run s ops (Array.make 5 0) ~off:0 ~len:5 with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "run refused");
        Alcotest.(check bool) "pairs eliminated" true
          ((Svc.stats svc).Svc.total_eliminated_pairs > 0);
        same "combined run";
        Alcotest.(check int) "2 - 1 + 3 - 2" 2 (Svc.net svc));
    tc "drain and shutdown agree with the runtime after mixed runs" (fun () ->
        List.iter
          (fun elim ->
            let svc = Svc.create ~elim ~max_batch:8 (net816 ()) in
            let ss = Array.init 2 (fun pid -> Svc.session ~wire:(pid mod 2) svc) in
            let ops = Array.init 13 (fun i -> if i mod 3 = 1 then Svc.Dec else Svc.Inc) in
            ignore
              (Cn_runtime.Domain_pool.round ~domains:2 (fun pid ->
                   let vals = Array.make 13 0 in
                   for _ = 1 to 50 do
                     match Svc.run ss.(pid) ops vals ~off:0 ~len:13 with
                     | Ok () -> ()
                     | Error _ -> Alcotest.fail "run refused"
                   done));
            let label what = Printf.sprintf "%s, elim %b" what elim in
            Alcotest.(check bool) (label "drain net-agreement") true
              (agreement (Svc.drain svc));
            Alcotest.(check int) (label "net") (2 * 50 * (9 - 4)) (Svc.net svc);
            Alcotest.(check bool) (label "shutdown net-agreement") true
              (agreement (Svc.shutdown svc)))
          [ true; false ]);
    tc "a net count that drifted from the runtime fails a Strict drain" (fun () ->
        let svc = Svc.create (net48 ()) in
        let s = Svc.session svc in
        for _ = 1 to 3 do
          ignore (check_ok "inc" (Svc.increment s))
        done;
        RT.reset (Svc.runtime svc);
        Alcotest.(check bool) "Off still reports the drift" false
          (agreement (Svc.drain ~policy:V.Off svc));
        match Svc.drain ~policy:V.Strict svc with
        | _ -> Alcotest.fail "a Strict drain passed with net 3 over an empty network"
        | exception V.Invalid msg ->
            Alcotest.(check bool) ("names the check: " ^ msg) true
              (Util.contains msg "net-agreement"));
  ]

let suite =
  [
    ("service.sessions", sessions);
    ("service.runs", runs);
    ("service.sequential", sequential);
    ("service.elimination", elimination);
    ("service.backpressure", backpressure);
    ("service.concurrent", concurrent);
    ("service.races", races);
    ("service.workload", workload_spec);
    ("service.grammars", grammars);
    ("service.net", net_word);
  ]
