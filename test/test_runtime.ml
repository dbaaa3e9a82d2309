(* Tests for Cn_runtime: concurrent traversals with OCaml 5 domains. *)

module RT = Cn_runtime.Network_runtime
module SC = Cn_runtime.Shared_counter
module H = Cn_runtime.Harness
module DP = Cn_runtime.Domain_pool
module PA = Cn_runtime.Padded_atomic
module S = Cn_sequence.Sequence

let tc name f = Alcotest.test_case name `Quick f

let net48 () = Cn_core.Counting.network ~w:4 ~t:8

let single_threaded =
  [
    tc "net_count is the summed exit distribution, negative nets and reset included"
      (fun () ->
        let check rt what =
          Alcotest.(check int) what (S.sum (RT.exit_distribution rt)) (RT.net_count rt)
        in
        let rng = Random.State.make [| 11 |] in
        List.iter
          (fun (w, t) ->
            let rt = RT.compile (Cn_core.Counting.network ~w ~t) in
            check rt "fresh";
            for _ = 1 to 500 do
              let wire = Random.State.int rng w in
              (* biased toward antitokens, so the net goes negative *)
              if Random.State.int rng 10 < 4 then ignore (RT.traverse rt ~wire)
              else ignore (RT.traverse_decrement rt ~wire);
              check rt "after random traffic"
            done;
            Alcotest.(check bool) "the net went negative" true (RT.net_count rt < 0);
            RT.reset rt;
            check rt "after reset";
            Alcotest.(check int) "reset to zero" 0 (RT.net_count rt))
          [ (4, 8); (4, 12); (16, 16) ]);
    tc "traverse returns counter values in order" (fun () ->
        let rt = RT.compile (net48 ()) in
        let values = List.init 12 (fun i -> RT.traverse rt ~wire:(i mod 4)) in
        Alcotest.(check (list int)) "sequential" (List.init 12 (fun i -> i)) values);
    tc "exit distribution is step after quiescence" (fun () ->
        let rt = RT.compile (net48 ()) in
        for i = 0 to 20 do
          ignore (RT.traverse rt ~wire:(i mod 4))
        done;
        Util.check_step (RT.exit_distribution rt));
    tc "matches the combinatorial evaluator" (fun () ->
        let net = Cn_core.Counting.network ~w:8 ~t:16 in
        let rt = RT.compile net in
        let x = [| 4; 1; 0; 7; 3; 3; 2; 5 |] in
        Array.iteri
          (fun wire count ->
            for _ = 1 to count do
              ignore (RT.traverse rt ~wire)
            done)
          x;
        Alcotest.check Util.seq "distribution" (Cn_network.Eval.quiescent net x)
          (RT.exit_distribution rt));
    tc "reset restores initial state" (fun () ->
        let rt = RT.compile (net48 ()) in
        ignore (RT.traverse rt ~wire:0);
        ignore (RT.traverse rt ~wire:1);
        RT.reset rt;
        Alcotest.(check int) "value restarts" 0 (RT.traverse rt ~wire:0);
        Alcotest.(check int) "failures cleared" 0 (RT.cas_failures rt));
    tc "faa mode reports no failures" (fun () ->
        let rt = RT.compile ~mode:RT.Faa (net48 ()) in
        for i = 0 to 9 do
          ignore (RT.traverse rt ~wire:(i mod 4))
        done;
        Alcotest.(check int) "zero" 0 (RT.cas_failures rt));
    tc "cas mode sequential also clean" (fun () ->
        let rt = RT.compile ~mode:RT.Cas (net48 ()) in
        for i = 0 to 9 do
          ignore (RT.traverse rt ~wire:(i mod 4))
        done;
        Alcotest.(check int) "zero" 0 (RT.cas_failures rt));
    Util.raises_invalid "wire out of range" (fun () ->
        ignore (RT.traverse (RT.compile (net48 ())) ~wire:9));
    tc "modes and widths exposed" (fun () ->
        let rt = RT.compile ~mode:RT.Cas (net48 ()) in
        Alcotest.(check bool) "mode" true (RT.mode rt = RT.Cas);
        Alcotest.(check int) "w" 4 (RT.input_width rt);
        Alcotest.(check int) "t" 8 (RT.output_width rt));
  ]

(* ------------------------------------------------------------------ *)
(* Memory layout: the padded-bank, flat-CSR runtime agrees with the
   combinatorial evaluator token for token, including on randomly
   generated wiring. *)

let layouts =
  [
    tc "csr runtime = Eval token run on C(4,8)" (fun () ->
        let net = net48 () in
        let rt = RT.compile net in
        let entries = List.init 23 (fun i -> i mod 4) in
        let expected = List.map snd (Cn_network.Eval.token_run net entries) in
        let got = List.map (fun wire -> RT.traverse rt ~wire) entries in
        Alcotest.(check (list int)) "values" expected got);
    tc "csr runtime = Eval.quiescent on random layered nets" (fun () ->
        List.iter
          (fun seed ->
            let net = Cn_network.Random_net.layered ~seed ~layers:5 8 in
            let x = Array.init 8 (fun i -> (i * 7 * (seed + 1)) mod 11) in
            let rt = RT.compile net in
            Array.iteri
              (fun wire count ->
                for _ = 1 to count do
                  ignore (RT.traverse rt ~wire)
                done)
              x;
            Alcotest.check Util.seq
              (Printf.sprintf "seed %d" seed)
              (Cn_network.Eval.quiescent net x)
              (RT.exit_distribution rt))
          [ 0; 1; 2; 3; 4 ]);
    tc "csr runtime = Eval.quiescent on random sparse nets" (fun () ->
        List.iter
          (fun seed ->
            let net = Cn_network.Random_net.sparse ~seed ~layers:6 10 in
            let x = Array.init 10 (fun i -> (i + (3 * seed)) mod 7) in
            let rt = RT.compile net in
            Array.iteri
              (fun wire count ->
                for _ = 1 to count do
                  ignore (RT.traverse rt ~wire)
                done)
              x;
            Alcotest.check Util.seq
              (Printf.sprintf "seed %d" seed)
              (Cn_network.Eval.quiescent net x)
              (RT.exit_distribution rt))
          [ 5; 6; 7 ]);
    tc "traverse_batch equals repeated traverse" (fun () ->
        let net = Cn_core.Counting.network ~w:8 ~t:8 in
        let one = RT.compile net in
        let batch = RT.compile net in
        let singles = List.init 30 (fun _ -> RT.traverse one ~wire:3) in
        let collected = Array.make 30 (-1) in
        RT.traverse_batch batch ~wire:3 ~n:30 ~f:(fun i v -> collected.(i) <- v);
        Alcotest.(check (list int)) "same values" singles (Array.to_list collected));
    tc "traverse_batch validates arguments" (fun () ->
        let rt = RT.compile (net48 ()) in
        Alcotest.check_raises "wire" (Invalid_argument "Network_runtime.traverse_batch: wire out of range")
          (fun () -> RT.traverse_batch rt ~wire:4 ~n:1 ~f:(fun _ _ -> ()));
        Alcotest.check_raises "n" (Invalid_argument "Network_runtime.traverse_batch: negative batch size")
          (fun () -> RT.traverse_batch rt ~wire:0 ~n:(-1) ~f:(fun _ _ -> ())));
    tc "padded atomic bank semantics" (fun () ->
        List.iter
          (fun padded ->
            let bank = PA.make ~padded 4 ~init:(fun i -> 10 * i) in
            Alcotest.(check int) "length" 4 (PA.length bank);
            Alcotest.(check bool) "padded" padded (PA.is_padded bank);
            Alcotest.(check int) "init" 20 (PA.get bank 2);
            Alcotest.(check int) "faa returns previous" 20 (PA.fetch_and_add bank 2 5);
            Alcotest.(check int) "faa applied" 25 (PA.get bank 2);
            Alcotest.(check bool) "cas hit" true (PA.compare_and_set bank 2 25 7);
            Alcotest.(check bool) "cas miss" false (PA.compare_and_set bank 2 25 9);
            PA.incr bank 0;
            Alcotest.(check int) "incr" 1 (PA.get bank 0);
            PA.set bank 3 (-4);
            Alcotest.(check int) "set" (-4) (PA.get bank 3))
          [ true; false ]);
  ]

let counters =
  [
    tc "central faa hands out 0.." (fun () ->
        let c = SC.central_faa () in
        let a = SC.next c ~pid:0 in
        let b = SC.next c ~pid:1 in
        let d = SC.next c ~pid:0 in
        Alcotest.(check (list int)) "seq" [ 0; 1; 2 ] [ a; b; d ]);
    tc "lock counter hands out 0.." (fun () ->
        let c = SC.with_lock () in
        let a = SC.next c ~pid:0 in
        let b = SC.next c ~pid:5 in
        let d = SC.next c ~pid:2 in
        Alcotest.(check (list int)) "seq" [ 0; 1; 2 ] [ a; b; d ]);
    tc "network counter values congruent to exit wire" (fun () ->
        let c = SC.of_topology (net48 ()) in
        for i = 0 to 15 do
          let v = SC.next c ~pid:(i mod 3) in
          Alcotest.(check bool) "in range" true (v >= 0 && v < 16 + 8)
        done);
    Util.raises_invalid "negative pid" (fun () ->
        ignore (SC.next (SC.central_faa ()) ~pid:(-1)));
    tc "names" (fun () ->
        Alcotest.(check string) "net" "network" (SC.name (SC.of_topology (net48 ())));
        Alcotest.(check string) "faa" "central-faa" (SC.name (SC.central_faa ()));
        Alcotest.(check string) "lock" "lock" (SC.name (SC.with_lock ())));
  ]

let concurrent_case name make =
  tc name (fun () ->
      let vss = H.run_collect ~make ~domains:4 ~ops_per_domain:400 () in
      Alcotest.(check bool) "values form 0..m-1" true (H.values_are_a_range vss))

let concurrent =
  [
    concurrent_case "network counter C(4,8), 4 domains" (fun () ->
        SC.of_topology (net48 ()));
    concurrent_case "network counter C(8,8) faa" (fun () ->
        SC.of_topology (Cn_core.Counting.network ~w:8 ~t:8));
    concurrent_case "network counter C(8,24) cas" (fun () ->
        SC.of_topology ~mode:RT.Cas (Cn_core.Counting.network ~w:8 ~t:24));
    concurrent_case "bitonic-backed counter" (fun () ->
        SC.of_topology (Cn_baselines.Bitonic.network 8));
    concurrent_case "periodic-backed counter" (fun () ->
        SC.of_topology (Cn_baselines.Periodic.network 8));
    concurrent_case "diffracting-backed counter" (fun () ->
        SC.of_topology (Cn_baselines.Diffracting.network 8));
    concurrent_case "central faa counter" (fun () -> SC.central_faa ());
    concurrent_case "lock counter" (fun () -> SC.with_lock ());
    tc "concurrent quiescent distribution is step" (fun () ->
        let net = Cn_core.Counting.network ~w:8 ~t:16 in
        let rt = RT.compile net in
        let body pid () =
          for i = 0 to 199 do
            ignore (RT.traverse rt ~wire:((pid + (i * 0)) mod 8))
          done
        in
        let handles = Array.init 4 (fun pid -> Domain.spawn (body pid)) in
        Array.iter Domain.join handles;
        Util.check_step (RT.exit_distribution rt);
        Alcotest.(check int) "token total" 800 (S.sum (RT.exit_distribution rt)));
    tc "throughput harness returns sane numbers" (fun () ->
        let r =
          H.throughput
            ~make:(fun () -> SC.central_faa ())
            ~domains:2 ~ops_per_domain:1000 ()
        in
        Alcotest.(check int) "ops" 2000 r.H.total_ops;
        Alcotest.(check bool) "positive time" true (r.H.seconds > 0.);
        Alcotest.(check bool) "positive rate" true (r.H.ops_per_sec > 0.));
    Util.raises_invalid "throughput rejects zero domains" (fun () ->
        ignore
          (H.throughput ~make:(fun () -> SC.central_faa ()) ~domains:0 ~ops_per_domain:1 ()));
    Util.raises_invalid "throughput rejects overflowing totals" (fun () ->
        ignore
          (H.throughput
             ~make:(fun () -> SC.central_faa ())
             ~domains:4
             ~ops_per_domain:(max_int / 2)
             ()));
    tc "throughput calibrates instead of reporting zero rate" (fun () ->
        (* ops_per_domain:0 used to yield seconds = 0 and a reported
           throughput of 0 ops/s; the harness must escalate until the
           clock resolves. *)
        let r =
          H.throughput ~make:(fun () -> SC.central_faa ()) ~domains:1 ~ops_per_domain:0 ()
        in
        Alcotest.(check bool) "ops ran" true (r.H.total_ops > 0);
        Alcotest.(check bool) "time measured" true (r.H.seconds > 0.);
        Alcotest.(check bool) "positive rate" true (r.H.ops_per_sec > 0.));
    tc "values_are_a_range rejects duplicates" (fun () ->
        Alcotest.(check bool) "dup" false (H.values_are_a_range [| [| 0; 1 |]; [| 1 |] |]));
    tc "values_are_a_range rejects gaps" (fun () ->
        Alcotest.(check bool) "gap" false (H.values_are_a_range [| [| 0; 3 |]; [| 1 |] |]));
    tc "values_are_a_range accepts a shuffled range" (fun () ->
        Alcotest.(check bool) "ok" true (H.values_are_a_range [| [| 2; 0 |]; [| 1; 3 |] |]));
    tc "values_are_a_range edge cases" (fun () ->
        (* Zero domains, domains that collected nothing, single values,
           and duplicates split across domains. *)
        Alcotest.(check bool) "no domains" true (H.values_are_a_range [||]);
        Alcotest.(check bool) "empty domains" true
          (H.values_are_a_range [| [||]; [||] |]);
        Alcotest.(check bool) "single zero" true (H.values_are_a_range [| [| 0 |] |]);
        Alcotest.(check bool) "single nonzero" false
          (H.values_are_a_range [| [| 1 |] |]);
        Alcotest.(check bool) "single negative" false
          (H.values_are_a_range [| [| -1 |] |]);
        Alcotest.(check bool) "duplicate across domains" false
          (H.values_are_a_range [| [| 0 |]; [| 0 |] |]);
        Alcotest.(check bool) "range split across empty and full domains" true
          (H.values_are_a_range [| [||]; [| 1; 0 |]; [||] |]));
  ]

(* ------------------------------------------------------------------ *)
(* Multi-domain sweeps: the Fetch&Increment contract must hold at 2, 4
   and 8 domains in both balancer modes, on the paper's network and on
   the bitonic baseline.  One warmed pool serves the whole sweep. *)

let multi_domain =
  [
    tc "range contract at 2/4/8 domains, Faa and Cas, C(8,16) and bitonic" (fun () ->
        DP.with_pool 8 (fun pool ->
            List.iter
              (fun (net_name, net) ->
                List.iter
                  (fun (mode_name, mode) ->
                    List.iter
                      (fun domains ->
                        let vss =
                          H.run_collect ~pool ~validate:Cn_runtime.Validator.Strict
                            ~make:(fun () -> SC.of_topology ~mode ~metrics:true net)
                            ~domains ~ops_per_domain:(400 / domains) ()
                        in
                        Alcotest.(check bool)
                          (Printf.sprintf "%s %s %dd" net_name mode_name domains)
                          true (H.values_are_a_range vss))
                      [ 2; 4; 8 ])
                  [ ("faa", RT.Faa); ("cas", RT.Cas) ])
              [
                ("C(8,16)", Cn_core.Counting.network ~w:8 ~t:16);
                ("bitonic-8", Cn_baselines.Bitonic.network 8);
              ]));
    tc "pool runs are reusable across counters and domain counts" (fun () ->
        DP.with_pool 4 (fun pool ->
            Alcotest.(check int) "size" 4 (DP.size pool);
            let r1 =
              H.throughput ~pool ~make:(fun () -> SC.central_faa ()) ~domains:4
                ~ops_per_domain:200 ()
            in
            let r2 =
              H.throughput ~pool
                ~make:(fun () -> SC.of_topology (net48 ()))
                ~domains:2 ~ops_per_domain:200 ()
            in
            Alcotest.(check int) "ops 1" 800 r1.H.total_ops;
            Alcotest.(check int) "ops 2" 400 r2.H.total_ops;
            Alcotest.(check bool) "rate 1" true (r1.H.ops_per_sec > 0.);
            Alcotest.(check bool) "rate 2" true (r2.H.ops_per_sec > 0.)));
    tc "pool rejects out-of-range rounds" (fun () ->
        DP.with_pool 2 (fun pool ->
            Alcotest.check_raises "too many"
              (Invalid_argument "Domain_pool.run: domains out of range for this pool") (fun () ->
                ignore (DP.run pool ~domains:3 ignore));
            Alcotest.check_raises "zero"
              (Invalid_argument "Domain_pool.run: domains out of range for this pool") (fun () ->
                ignore (DP.run pool ~domains:0 ignore))));
    tc "a raising job poisons the round, not the pool" (fun () ->
        DP.with_pool 2 (fun pool ->
            Alcotest.check_raises "exception propagates" (Failure "boom") (fun () ->
                ignore (DP.run pool ~domains:2 (fun pid -> if pid = 1 then failwith "boom")));
            (* The failed round checked out cleanly; later rounds must
               run on all workers, including the one that raised. *)
            let count = Atomic.make 0 in
            ignore (DP.run pool ~domains:2 (fun _ -> Atomic.incr count));
            Alcotest.(check int) "pool reusable" 2 (Atomic.get count);
            Alcotest.check_raises "fails again when jobs fail again" (Failure "boom2")
              (fun () -> ignore (DP.run pool ~domains:1 (fun _ -> failwith "boom2")));
            let r =
              H.throughput ~pool ~make:(fun () -> SC.central_faa ()) ~domains:2
                ~ops_per_domain:100 ()
            in
            Alcotest.(check bool) "harness still works" true (r.H.ops_per_sec > 0.)));
    tc "a failed spawn releases the workers it started" (fun () ->
        (* The runtime caps live domains well below 1024: the spawn that
           hits the cap fails, and the workers spawned before it must be
           joined, or they would hold their slots for good. *)
        (match DP.create 1024 with
        | pool ->
            DP.shutdown pool;
            Alcotest.fail "1024 domains fit under the runtime's cap"
        | exception Failure _ -> ());
        let count = Atomic.make 0 in
        DP.with_pool 100 (fun pool ->
            ignore (DP.run pool ~domains:100 (fun _ -> Atomic.incr count)));
        Alcotest.(check int) "every worker ran" 100 (Atomic.get count));
    tc "pool shutdown is idempotent and detected" (fun () ->
        let pool = DP.create 2 in
        ignore (DP.run pool ~domains:2 ignore);
        DP.shutdown pool;
        DP.shutdown pool;
        Alcotest.check_raises "run after shutdown"
          (Invalid_argument "Domain_pool.run: pool is shut down") (fun () ->
            ignore (DP.run pool ~domains:1 ignore)));
    tc "concurrent batch traversals keep the range contract" (fun () ->
        let net = Cn_core.Counting.network ~w:8 ~t:16 in
        let rt = RT.compile net in
        let domains = 4 and n = 150 in
        let values = Array.init domains (fun _ -> Array.make n (-1)) in
        DP.with_pool domains (fun pool ->
            ignore
              (DP.run pool ~domains (fun pid ->
                   RT.traverse_batch rt ~wire:pid ~n ~f:(fun i v -> values.(pid).(i) <- v))));
        Alcotest.(check bool) "range" true (H.values_are_a_range values);
        Util.check_step (RT.exit_distribution rt));
  ]

(* ------------------------------------------------------------------ *)
(* The count walk: batches from the crossover on visit each balancer
   once.  Checked against per-token walks on twin runtimes. *)

module V = Cn_runtime.Validator
module M = Cn_runtime.Metrics

let count_walk_nets () =
  [
    ("C(4,8)", net48 ());
    ("C(4,12)", Cn_core.Counting.network ~w:4 ~t:12);
    ("C(8,32)", Cn_core.Counting.network ~w:8 ~t:32);
    ("C(16,16)", Cn_core.Counting.network ~w:16 ~t:16);
    ("C(16,64)", Cn_core.Counting.network ~w:16 ~t:64);
    ("bitonic-8", Cn_baselines.Bitonic.network 8);
    ("periodic-8", Cn_baselines.Periodic.network 8);
    ("difftree-8", Cn_baselines.Diffracting.network 8);
  ]

let collect n walk =
  let got = Array.make n min_int in
  walk (fun i v -> got.(i) <- v);
  Array.to_list got

let crossings rt = (M.snapshot (Option.get (RT.metrics rt))).M.crossings

let count_walk =
  [
    tc "crossover is n * depth >= 2 * size" (fun () ->
        List.iter
          (fun (name, net) ->
            let size = Cn_network.Topology.size net and depth = Cn_network.Topology.depth net in
            let c = RT.batch_crossover net in
            Alcotest.(check bool) (name ^ " reaches") true (c * depth >= 2 * size);
            Alcotest.(check bool) (name ^ " least") true (c = 1 || (c - 1) * depth < 2 * size))
          (count_walk_nets ());
        Alcotest.(check int) "C(16,16)" 16
          (RT.batch_crossover (Cn_core.Counting.network ~w:16 ~t:16)));
    tc "batches equal per-token walks: values per index and balancer states" (fun () ->
        List.iter
          (fun (name, net) ->
            let w = Cn_network.Topology.input_width net in
            let c = RT.batch_crossover net in
            for n = 0 to 3 * c do
              let batch = RT.compile ~metrics:true net and one = RT.compile ~metrics:true net in
              (* a reachable quiescent state that is not the initial one *)
              List.iter
                (fun rt ->
                  for i = 0 to 6 do
                    ignore (RT.traverse rt ~wire:(i * 3 mod w))
                  done)
                [ batch; one ];
              let wire = n mod w in
              let what s = Printf.sprintf "%s n=%d %s" name n s in
              Alcotest.(check (list int)) (what "token values")
                (List.init n (fun _ -> RT.traverse one ~wire))
                (collect n (fun f -> RT.traverse_batch batch ~wire ~n ~f));
              Alcotest.(check (array int)) (what "token states") (crossings one) (crossings batch);
              let wire = (wire + 1) mod w in
              Alcotest.(check (list int)) (what "antitoken values")
                (List.init n (fun _ -> RT.traverse_decrement one ~wire))
                (collect n (fun f -> RT.traverse_batch_decrement batch ~wire ~n ~f));
              Alcotest.(check (array int)) (what "antitoken states") (crossings one) (crossings batch);
              Alcotest.check Util.seq (what "exits") (RT.exit_distribution one)
                (RT.exit_distribution batch)
            done)
          (count_walk_nets ()));
    tc "batched decrement agrees with per-op traverse_decrement" (fun () ->
        let net = net48 () in
        let a = RT.compile net and b = RT.compile net in
        let n = 29 in
        RT.traverse_batch a ~wire:2 ~n ~f:(fun _ _ -> ());
        RT.traverse_batch b ~wire:2 ~n ~f:(fun _ _ -> ());
        let batched = List.sort compare (collect n (fun f -> RT.traverse_batch_decrement a ~wire:2 ~n ~f)) in
        let one_by_one = List.sort compare (List.init n (fun _ -> RT.traverse_decrement b ~wire:2)) in
        Alcotest.(check (list int)) "same values" one_by_one batched;
        Alcotest.check Util.seq "same distribution" (RT.exit_distribution b) (RT.exit_distribution a));
    tc "4 domains, faa and cas, metered, batch sizes straddling the crossover" (fun () ->
        let net = Cn_core.Counting.network ~w:16 ~t:16 in
        let domains = 4 and batches = 150 in
        DP.with_pool domains (fun pool ->
            List.iter
              (fun (mode_name, mode) ->
                List.iter
                  (fun anti ->
                    let rt = RT.compile ~mode ~metrics:true net in
                    let c = RT.batch_crossover net in
                    let vals = Array.make domains [] in
                    ignore
                      (DP.run pool ~domains (fun pid ->
                           let rng = Random.State.make [| pid; 41 |] in
                           let wire = pid * 5 mod 16 in
                           for _ = 1 to batches do
                             let n = 1 + Random.State.int rng (2 * c) in
                             RT.traverse_batch rt ~wire ~n ~f:(fun _ v -> vals.(pid) <- v :: vals.(pid));
                             if anti then begin
                               let n = Random.State.int rng (n + 1) in
                               RT.traverse_batch_decrement rt ~wire:((wire + 1) mod 16) ~n
                                 ~f:(fun _ _ -> ())
                             end
                           done));
                    let what = Printf.sprintf "%s%s" mode_name (if anti then " +antitokens" else "") in
                    V.enforce V.Strict (V.quiescent_runtime rt);
                    V.enforce V.Strict (V.snapshot_invariants (M.snapshot (Option.get (RT.metrics rt))));
                    if not anti then
                      Alcotest.(check bool) (what ^ ": values form 0..m-1") true
                        (V.values_form_a_range (Array.map Array.of_list vals)))
                  [ false; true ])
              [ ("faa", RT.Faa); ("cas", RT.Cas) ]));
    tc "peek is the value of a token-then-antitoken pair on a twin" (fun () ->
        let rng = Random.State.make [| 7 |] in
        List.iter
          (fun (name, net) ->
            let w = Cn_network.Topology.input_width net in
            let a = RT.compile net and b = RT.compile net in
            for step = 1 to 200 do
              (* the same random op on both twins: a reachable state *)
              let wire = Random.State.int rng w and n = Random.State.int rng 40 in
              let walk =
                if Random.State.bool rng then RT.traverse_batch else RT.traverse_batch_decrement
              in
              walk a ~wire ~n ~f:(fun _ _ -> ());
              walk b ~wire ~n ~f:(fun _ _ -> ());
              let wire = Random.State.int rng w in
              let seen = RT.peek a ~wire in
              let what = Printf.sprintf "%s step %d" name step in
              Alcotest.(check int) (what ^ " token") seen (RT.traverse b ~wire);
              Alcotest.(check int) (what ^ " antitoken") seen (RT.traverse_decrement b ~wire);
              Alcotest.check Util.seq (what ^ " peek wrote nothing") (RT.exit_distribution b)
                (RT.exit_distribution a)
            done;
            Alcotest.(check int) (name ^ " twins agree") (RT.traverse b ~wire:0) (RT.traverse a ~wire:0))
          (count_walk_nets ());
        Alcotest.check_raises "wire" (Invalid_argument "Network_runtime.peek: wire out of range")
          (fun () -> ignore (RT.peek (RT.compile (net48 ())) ~wire:4)));
    tc "an f that walks again, or raises, leaves the count walk sound" (fun () ->
        let net = Cn_core.Counting.network ~w:8 ~t:8 in
        let rt = RT.compile net in
        let n = 2 * RT.batch_crossover net in
        let seen = ref [] in
        let keep _ v = seen := v :: !seen in
        RT.traverse_batch rt ~wire:0 ~n ~f:(fun _ v ->
            keep 0 v;
            if v mod 5 = 0 then RT.traverse_batch rt ~wire:1 ~n ~f:keep);
        Alcotest.(check bool) "nested walks still count" true
          (V.values_form_a_range [| Array.of_list !seen |]);
        (match RT.traverse_batch rt ~wire:2 ~n ~f:(fun i _ -> if i = 3 then raise Exit) with
        | () -> Alcotest.fail "f raised"
        | exception Exit -> ());
        let m = RT.net_count rt in
        Alcotest.(check (list int)) "the next batch counts on" (List.init n (fun i -> m + i))
          (collect n (fun f -> RT.traverse_batch rt ~wire:3 ~n ~f));
        V.enforce V.Strict (V.quiescent_runtime rt));
    tc "threads of one domain never share a walk's scratch" (fun () ->
        (* Thread a stops in its first f, mid-hand-out, until thread b
           has run a whole batch on the same domain. *)
        let net = Cn_core.Counting.network ~w:8 ~t:8 in
        let rt = RT.compile net in
        let n = 2 * RT.batch_crossover net in
        let m = Mutex.create () and c = Condition.create () and stage = ref 0 in
        let advance k =
          Mutex.lock m;
          stage := k;
          Condition.broadcast c;
          Mutex.unlock m
        in
        let wait_for k =
          Mutex.lock m;
          while !stage < k do
            Condition.wait c m
          done;
          Mutex.unlock m
        in
        let seen = Array.make 2 [] in
        let keep id v = seen.(id) <- v :: seen.(id) in
        let a () =
          RT.traverse_batch rt ~wire:0 ~n ~f:(fun i v ->
              keep 0 v;
              if i = 0 then begin
                advance 1;
                wait_for 2
              end)
        in
        let b () =
          wait_for 1;
          RT.traverse_batch rt ~wire:1 ~n ~f:(fun _ v -> keep 1 v);
          advance 2
        in
        List.iter Thread.join [ Thread.create a (); Thread.create b () ];
        Alcotest.(check bool) "values form 0..2n-1" true
          (V.values_form_a_range (Array.map Array.of_list seen));
        V.enforce V.Strict (V.quiescent_runtime rt));
    tc "a thread switched in mid-walk with a larger runtime leaves the walk sound" (fun () ->
        (* Thread a walks batches on one runtime until the domain's tick
           switches to thread b at some poll point of a's walk, and b
           runs one batch on a larger runtime.  A fresh domain each
           round, so b's batch would need a larger scratch than a's. *)
        let small_net = Cn_core.Counting.network ~w:16 ~t:16
        and large_net = Cn_core.Counting.network ~w:16 ~t:64 in
        let n = RT.batch_crossover small_net and n_large = RT.batch_crossover large_net in
        for round = 1 to 5 do
          Domain.join
            (Domain.spawn (fun () ->
                 let small = RT.compile small_net and large = RT.compile large_net in
                 let twin = RT.compile large_net in
                 let started = Atomic.make false and stop = Atomic.make false in
                 let next = ref 0 and ok = ref true in
                 let check _ v =
                   if v <> !next then ok := false;
                   incr next
                 in
                 let a () =
                   while not (Atomic.get stop) do
                     RT.traverse_batch small ~wire:0 ~n ~f:check;
                     Atomic.set started true
                   done
                 in
                 let got = ref [] in
                 let b () =
                   while not (Atomic.get started) do
                     Thread.yield ()
                   done;
                   got := collect n_large (fun f -> RT.traverse_batch large ~wire:0 ~n:n_large ~f);
                   Atomic.set stop true
                 in
                 List.iter Thread.join [ Thread.create a (); Thread.create b () ];
                 let what s = Printf.sprintf "round %d: %s" round s in
                 Alcotest.(check bool) (what "a's values count up") true !ok;
                 Alcotest.(check (list int)) (what "b's values")
                   (List.init n_large (fun _ -> RT.traverse twin ~wire:0))
                   !got;
                 V.enforce V.Strict (V.quiescent_runtime small)))
        done);
    tc "the model network's walks agree with the runtime's" (fun () ->
        let module Mn = Cn_check.Model_net in
        let rng = Random.State.make [| 3 |] in
        List.iter
          (fun (name, net) ->
            let w = Cn_network.Topology.input_width net in
            let rt = RT.compile net and mn = Mn.compile net in
            for step = 1 to 100 do
              let wire = Random.State.int rng w and n = Random.State.int rng 40 in
              let what s = Printf.sprintf "%s step %d %s" name step s in
              Alcotest.(check int) (what "peek") (RT.peek rt ~wire) (Mn.peek mn ~wire);
              if Random.State.bool rng then
                Alcotest.(check (list int)) (what "tokens")
                  (collect n (fun f -> RT.traverse_batch rt ~wire ~n ~f))
                  (collect n (fun f -> Mn.traverse_batch mn ~wire ~n ~f))
              else
                Alcotest.(check (list int)) (what "antitokens")
                  (collect n (fun f -> RT.traverse_batch_decrement rt ~wire ~n ~f))
                  (collect n (fun f -> Mn.traverse_batch_decrement mn ~wire ~n ~f))
            done)
          (count_walk_nets ()));
  ]

let suite =
  [
    ("runtime.single", single_threaded);
    ("runtime.layouts", layouts);
    ("runtime.counters", counters);
    ("runtime.concurrent", concurrent);
    ("runtime.multi_domain", multi_domain);
    ("runtime.count_walk", count_walk);
  ]
