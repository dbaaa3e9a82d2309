(* Tests for the sharded counter fabric: the hash routing's determinism
   and balance, the certification gate, hot-resize under concurrent
   load, the global read, and the fabric's drain and shutdown
   lifecycle. *)

module Fab = Cn_fabric.Fabric
module Counting = Cn_core.Counting
module T = Cn_network.Topology
module V = Cn_runtime.Validator
module L = Cn_lint

let tc name f = Alcotest.test_case name `Quick f
let keys = 8192
let ids n = List.init n (fun i -> i)

(* C(4,4) with two output wires swapped: conserves tokens but breaks
   the step property — the certifier refutes it with a counterexample. *)
let broken_counting () =
  let net = Counting.network ~w:4 ~t:4 in
  let swap = Array.init 4 (fun i -> if i = 0 then 3 else if i = 3 then 0 else i) in
  T.permute_outputs (Cn_network.Permutation.of_array swap) net

let shard_counts = [ 1; 2; 4; 8; 16 ]
let fabric n = Fab.create ~shards:n (Counting.network ~w:4 ~t:4)

let router =
  [
    tc "routing is deterministic and total" (fun () ->
        List.iter
          (fun n ->
            let fab = fabric n in
            for k = 0 to 255 do
              let s = Fab.route fab k in
              Alcotest.(check bool) "in range" true (s >= 0 && s < n);
              Alcotest.(check int) "stable" s (Fab.route fab k)
            done)
          shard_counts);
    tc "hash balances keys across shards to within 10%" (fun () ->
        List.iter
          (fun n ->
            let fab = fabric n in
            let counts = Array.make n 0 in
            for k = 0 to keys - 1 do
              let s = Fab.route fab k in
              counts.(s) <- counts.(s) + 1
            done;
            let ideal = keys / n in
            Array.iteri
              (fun s c ->
                Alcotest.(check bool)
                  (Printf.sprintf "%d shards: shard %d holds %d (ideal %d)" n s c ideal)
                  true
                  (abs (c - ideal) * 10 <= ideal))
              counts)
          shard_counts);
    tc "hot-key sessions share one shard's value stream" (fun () ->
        (* Two sessions with the same routing key hit the same shard, so
           with elimination off their interleaved increments read one
           duplicate-free counter stream: 0, 1, 2, ... *)
        let fab = Fab.create ~shards:4 ~elim:false (Counting.network ~w:4 ~t:4) in
        let hot = 17 in
        let s1 = Fab.session ~key:hot fab in
        let s2 = Fab.session ~key:hot fab in
        for i = 0 to 9 do
          let s = if i mod 2 = 0 then s1 else s2 in
          match Fab.increment s with
          | Ok v -> Alcotest.(check int) "one stream" i v
          | Error _ -> Alcotest.fail "unexpected error"
        done);
  ]

let certification =
  [
    tc "a broken initial topology is refused at create" (fun () ->
        match Fab.create ~shards:1 (broken_counting ()) with
        | _ -> Alcotest.fail "expected Rejected"
        | exception Fab.Rejected msg ->
            Alcotest.(check bool) "names the subject" true
              (String.length msg > 0));
    tc "a broken resize candidate aborts with no state change" (fun () ->
        let fab = Fab.create ~shards:1 ~elim:false (Counting.network ~w:4 ~t:4) in
        let s = Fab.session ~key:0 fab in
        (match Fab.increment s with
        | Ok 0 -> ()
        | _ -> Alcotest.fail "seed increment");
        (match Fab.resize fab ~shard:0 (broken_counting ()) with
        | Error (Fab.Cert_rejected _) -> ()
        | _ -> Alcotest.fail "expected Cert_rejected");
        Alcotest.(check int) "generation unchanged" 0 (Fab.shard_gen fab 0);
        Alcotest.(check int) "width unchanged" 4
          (T.input_width (Fab.shard_topology fab 0));
        Alcotest.(check int) "value unchanged" 1 (Fab.read fab);
        match Fab.increment s with
        | Ok v -> Alcotest.(check int) "stream continues" 1 v
        | Error _ -> Alcotest.fail "shard must still serve");
    tc "make certifies an initial topology once, whatever the shard count" (fun () ->
        let certified = ref 0 in
        let certify _ = incr certified; Ok () in
        let fab =
          Fab.make ~spawn:Cn_service.Service.create ~certify ~shards:4
            (Counting.network ~w:4 ~t:4)
        in
        Alcotest.(check int) "certify calls" 1 !certified;
        Alcotest.(check int) "shards" 4 (Fab.shard_count fab);
        ignore (Fab.shutdown fab));
    tc "a rejected initial topology spawns nothing" (fun () ->
        let spawned = ref 0 in
        let spawn topo = incr spawned; Cn_service.Service.create topo in
        (match
           Fab.make ~spawn ~certify:(fun _ -> Error "refused") ~shards:4
             (Counting.network ~w:4 ~t:4)
         with
        | _ -> Alcotest.fail "expected Rejected"
        | exception Fab.Rejected msg -> Alcotest.(check string) "message" "refused" msg);
        Alcotest.(check int) "spawn calls" 0 !spawned);
    tc "a shard count past the cap is refused before certifying" (fun () ->
        let certified = ref 0 in
        let certify _ = incr certified; Ok () in
        Alcotest.check_raises "17 shards"
          (Invalid_argument "Fabric_core.make: more shards than max_shards") (fun () ->
            ignore
              (Fab.make ~spawn:Cn_service.Service.create ~certify ~shards:17
                 (Counting.network ~w:4 ~t:4)));
        Alcotest.(check int) "certify calls" 0 !certified);
    tc "certify_topology accepts C(16,16) with non-refuted evidence" (fun () ->
        match Fab.certify_topology (Counting.network ~w:16 ~t:16) with
        | Error msg -> Alcotest.failf "unexpected rejection: %s" msg
        | Ok cert -> (
            Alcotest.(check bool) "ok" true (L.Cert.ok cert);
            match cert.L.Cert.evidence with
            | L.Cert.Refuted _ -> Alcotest.fail "refuted evidence"
            | _ -> ()));
  ]

let ops =
  [
    tc "a run is routed once and continues the shard stream across a resize"
      (fun () ->
        let fab = Fab.create ~shards:2 ~elim:false (Counting.network ~w:4 ~t:4) in
        let s = Fab.session ~key:5 fab in
        let sid = Fab.route fab 5 in
        let run n =
          let vals = Array.make n 0 in
          (match Fab.run s (Array.make n Fab.Inc) vals ~off:0 ~len:n with
          | Ok () -> ()
          | Error (k, _) -> Alcotest.failf "run refused from index %d" k);
          Array.to_list vals
        in
        Alcotest.(check (list int)) "first run" (List.init 6 Fun.id) (run 6);
        (match Fab.resize fab ~shard:sid (Counting.network ~w:2 ~t:2) with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "resize failed");
        Alcotest.(check (list int)) "continues from the folded base"
          (List.init 5 (fun i -> 6 + i)) (run 5);
        Alcotest.(check int) "read" 11 (Fab.read fab);
        ignore (Fab.shutdown fab);
        match Fab.run s [| Fab.Inc; Fab.Dec |] (Array.make 2 0) ~off:0 ~len:2 with
        | Error (0, Fab.Closed) -> ()
        | Ok () | Error _ -> Alcotest.fail "expected Error (0, Closed) after shutdown");
    tc "combining read merges shards and sums new traffic" (fun () ->
        let fab = Fab.create ~shards:4 ~elim:false (Counting.network ~w:4 ~t:4) in
        let total = ref 0 in
        List.iter
          (fun k ->
            let s = Fab.session ~key:k fab in
            for _ = 0 to k mod 5 do
              match Fab.increment s with
              | Ok _ -> incr total
              | Error _ -> Alcotest.fail "unexpected error"
            done)
          (ids 16);
        Alcotest.(check int) "read" !total (Fab.read fab);
        (* new traffic from fresh sessions still sums *)
        List.iter
          (fun k ->
            let s = Fab.session ~key:k fab in
            match Fab.increment s with
            | Ok _ -> incr total
            | Error _ -> Alcotest.fail "unexpected error")
          (ids 8);
        Alcotest.(check int) "read after new traffic" !total (Fab.read fab));
    tc "decrements flow through the routed shard" (fun () ->
        let fab = Fab.create ~shards:2 ~elim:false (Counting.network ~w:4 ~t:4) in
        let s = Fab.session ~key:3 fab in
        (match Fab.increment s with Ok _ -> () | Error _ -> Alcotest.fail "inc");
        (match Fab.increment s with Ok _ -> () | Error _ -> Alcotest.fail "inc");
        (match Fab.decrement s with Ok _ -> () | Error _ -> Alcotest.fail "dec");
        Alcotest.(check int) "net value" 1 (Fab.read fab));
    tc "shutdown is terminal and freezes the read" (fun () ->
        let fab = Fab.create ~shards:2 ~elim:false (Counting.network ~w:4 ~t:4) in
        let s = Fab.session ~key:0 fab in
        (match Fab.increment s with Ok _ -> () | Error _ -> Alcotest.fail "inc");
        let report = Fab.shutdown fab in
        Alcotest.(check bool) "quiescence validated" true (V.passed report);
        Alcotest.(check bool) "closed" true (Fab.closed fab);
        (match Fab.increment s with
        | Error Fab.Closed -> ()
        | _ -> Alcotest.fail "expected Closed");
        Alcotest.(check int) "frozen read" 1 (Fab.read fab));
    tc "drain merges shard-prefixed reports and re-admits" (fun () ->
        let fab = Fab.create ~shards:2 ~elim:false (Counting.network ~w:4 ~t:4) in
        let s = Fab.session ~key:0 fab in
        (match Fab.increment s with Ok _ -> () | Error _ -> Alcotest.fail "inc");
        let report = Fab.drain fab in
        Alcotest.(check bool) "passed" true (V.passed report);
        List.iter
          (fun prefix ->
            Alcotest.(check bool) (prefix ^ " present") true
              (List.exists
                 (fun (c : V.check) ->
                   String.length c.V.name > String.length prefix
                   && String.sub c.V.name 0 (String.length prefix) = prefix)
                 report.V.checks))
          [ "shard0."; "shard1." ];
        match Fab.increment s with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "drain must re-admit");
    tc "a shard id the fabric never spawned is out of range" (fun () ->
        let net = Counting.network ~w:4 ~t:4 in
        let fab = Fab.create ~shards:2 net in
        List.iter
          (fun (shard, topo) ->
            match Fab.resize fab ~shard topo with
            | Error Fab.Bad_shard -> ()
            | Ok () | Error _ ->
                Alcotest.failf "resize of shard %d: expected Bad_shard" shard)
          (* a broken candidate too: the id is refused before anything
             is certified *)
          [ (5, net); (2, net); (-1, net); (5, broken_counting ()) ];
        (match Fab.shard_info fab 5 with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument msg ->
            Alcotest.(check string) "message" "Fabric_core: shard out of range" msg);
        Alcotest.(check int) "live shards untouched" 0 (Fab.shard_gen fab 1));
    tc "shard_infos reflect dimensions, generation and value" (fun () ->
        let fab = Fab.create ~shards:2 ~elim:false (Counting.network ~w:4 ~t:8) in
        let infos = Fab.shard_infos fab in
        Alcotest.(check int) "two shards" 2 (List.length infos);
        List.iter
          (fun (i : Fab.shard_info) ->
            Alcotest.(check int) "w" 4 i.Fab.width;
            Alcotest.(check int) "t" 8 i.Fab.out_width;
            Alcotest.(check int) "gen" 0 i.Fab.gen;
            Alcotest.(check int) "value" 0 i.Fab.value)
          infos);
  ]

(* The acceptance scenario: a Strict-validated hot-resize from C(8,8)
   to C(16,16) while worker domains hammer the shard.  Every operation
   completes (before the quiescent validation point, or after waiting
   the resize out, on the new service); no token is lost, no value
   duplicated across the base fold. *)
let resize_under_load =
  [
    tc "strict hot-resize C(8,8) -> C(16,16) under concurrent load" (fun () ->
        let fab =
          Fab.create ~shards:1 ~elim:false ~validate:V.Strict
            (Counting.network ~w:8 ~t:8)
        in
        let workers = 4 and per = 2_000 in
        let vals = Array.init workers (fun _ -> Array.make per (-1)) in
        let resize_result = ref (Error Fab.Busy) in
        let doms =
          Array.init (workers + 1) (fun i ->
              Domain.spawn (fun () ->
                  if i = workers then begin
                    (* wait for live traffic, then swap mid-flight *)
                    while Fab.read fab < workers do
                      Domain.cpu_relax ()
                    done;
                    resize_result :=
                      Fab.resize fab ~shard:0 (Counting.network ~w:16 ~t:16)
                  end
                  else begin
                    let s = Fab.session ~key:i fab in
                    for j = 0 to per - 1 do
                      let rec go () =
                        match Fab.increment s with
                        | Ok v -> vals.(i).(j) <- v
                        | Error Fab.Overloaded ->
                            Domain.cpu_relax ();
                            go ()
                        | Error Fab.Closed ->
                            Alcotest.fail "refused while the fabric is open"
                      in
                      go ()
                    done
                  end))
        in
        Array.iter Domain.join doms;
        (match !resize_result with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "resize failed");
        Alcotest.(check int) "generation bumped" 1 (Fab.shard_gen fab 0);
        Alcotest.(check int) "serving C(16,16)" 16
          (T.input_width (Fab.shard_topology fab 0));
        let total = workers * per in
        Alcotest.(check int) "no token lost across the swap" total
          (Fab.read fab);
        let all = Array.to_list (Array.concat (Array.to_list vals)) in
        Alcotest.(check bool) "every operation returned" true
          (List.for_all (fun v -> v >= 0) all);
        Alcotest.(check int) "no value duplicated across the base fold" total
          (List.length (List.sort_uniq compare all));
        (* Strict drain after the dust settles: the swapped-in service
           passes the same quiescence checks the old one validated. *)
        let report = Fab.drain fab in
        Alcotest.(check bool) "post-resize quiescence" true (V.passed report));
  ]

(* The global read sums each shard's net count: it must equal what the
   shards' networks handed out, the services a resize retired included,
   and every drain must find each shard's count in agreement. *)
let read_sums_words =
  [
    tc "read on C(16,64) x 4 equals the summed exits after mixed runs and a resize"
      (fun () ->
        let net = Counting.network ~w:16 ~t:64 in
        let fab = Fab.create ~shards:4 ~validate:V.Strict net in
        let exits svc =
          Cn_sequence.Sequence.sum
            (Cn_runtime.Network_runtime.exit_distribution (Cn_service.Service.runtime svc))
        in
        let ops = Array.init 11 (fun i -> if i mod 4 = 3 then Fab.Dec else Fab.Inc) in
        let traffic () =
          ignore
            (Cn_runtime.Domain_pool.round ~domains:2 (fun pid ->
                 let vals = Array.make 11 0 in
                 for k = 0 to 39 do
                   let s = Fab.session ~key:((k * 2) + pid) fab in
                   match Fab.run s ops vals ~off:0 ~len:11 with
                   | Ok () -> ()
                   | Error _ -> Alcotest.fail "run refused"
                 done))
        in
        traffic ();
        let retired = Fab.shard_service fab 1 in
        (match Fab.resize fab ~shard:1 net with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "resize failed");
        traffic ();
        let live = List.init 4 (fun sid -> exits (Fab.shard_service fab sid)) in
        Alcotest.(check int) "read = summed exit distributions"
          (exits retired + List.fold_left ( + ) 0 live)
          (Fab.read fab);
        Alcotest.(check int) "read = ok(inc) - ok(dec)" (2 * 2 * 40 * (9 - 2)) (Fab.read fab);
        Alcotest.(check int) "resized shard continues from its base"
          (exits retired + List.nth live 1)
          (Fab.shard_value fab 1);
        let report = Fab.drain fab in
        List.iter
          (fun sid ->
            let name = Printf.sprintf "shard%d.net-agreement" sid in
            match List.find_opt (fun (c : V.check) -> c.V.name = name) report.V.checks with
            | Some c -> Alcotest.(check bool) name true c.V.ok
            | None -> Alcotest.failf "%s missing from the drain report" name)
          (ids 4));
  ]

let suite =
  [
    ("fabric.router", router);
    ("fabric.certification", certification);
    ("fabric.ops", ops);
    ("fabric.resize", resize_under_load);
    ("fabric.read", read_sums_words);
  ]
