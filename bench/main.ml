(* Benchmark harness regenerating the paper's quantitative claims.
   Run with no argument for the full E1-E8 table set, with an experiment
   id ("e1" .. "e8") for one table, with "micro" for the Bechamel
   micro-benchmarks (one Test.make per experiment family), or with
   "runtime" [--smoke] for the runtime sweep (counting network vs the
   central-FAA and lock baselines, plus the batched and pipelined walks).
   Every measuring suite records its section in BENCH_runtime.json.
   See EXPERIMENTS.md for the experiment index. *)

module T = Cn_network.Topology
module E = Cn_network.Eval
module S = Cn_sequence.Sequence
module C = Cn_core.Counting
module Bounds = Cn_analysis.Bounds

let header title = Printf.printf "\n=== %s ===\n" title
let line fmt = Printf.printf (fmt ^^ "\n")

(* ------------------------------------------------------------------ *)
(* BENCH_runtime.json: one JSON object whose top-level keys are owned
   by the suites.  [record_keys] sets a suite's keys — replacing any that
   already exist, in place — and keeps every other key's value text
   byte for byte, so suites can run in any order and re-run without
   duplicating a key.  Only the top level is scanned: a value ends at
   the first ',' or '}' outside strings and brackets. *)

let bench_file = "BENCH_runtime.json"

let top_level_entries text =
  let n = String.length text in
  let i = ref 0 in
  let fail what = failwith (Printf.sprintf "%s: %s at byte %d" bench_file what !i) in
  let skip_ws () =
    while !i < n && String.contains " \t\r\n" text.[!i] do
      incr i
    done
  in
  let skip_string () =
    incr i;
    while !i < n && text.[!i] <> '"' do
      if text.[!i] = '\\' then incr i;
      incr i
    done;
    if !i >= n then fail "unterminated string";
    incr i
  in
  let value () =
    let start = !i and depth = ref 0 in
    while !i < n && not (!depth = 0 && (text.[!i] = ',' || text.[!i] = '}')) do
      match text.[!i] with
      | '"' -> skip_string ()
      | '{' | '[' ->
          incr depth;
          incr i
      | '}' | ']' ->
          decr depth;
          incr i
      | _ -> incr i
    done;
    String.trim (String.sub text start (!i - start))
  in
  skip_ws ();
  if !i >= n || text.[!i] <> '{' then fail "expected '{'";
  incr i;
  let rec entries acc =
    skip_ws ();
    if !i >= n then fail "unterminated object";
    match text.[!i] with
    | '}' -> List.rev acc
    | ',' ->
        incr i;
        entries acc
    | '"' ->
        let k0 = !i + 1 in
        skip_string ();
        let key = String.sub text k0 (!i - k0 - 1) in
        skip_ws ();
        if !i >= n || text.[!i] <> ':' then fail "expected ':'";
        incr i;
        skip_ws ();
        let v = value () in
        entries ((key, v) :: acc)
    | _ -> fail "expected a key"
  in
  entries []

let record_keys keys =
  let existing =
    if Sys.file_exists bench_file then
      top_level_entries (In_channel.with_open_bin bench_file In_channel.input_all)
    else []
  in
  (* Later bindings win, at the position of the first: this replaces a
     suite's keys and also heals duplicates an older writer left. *)
  let merged =
    List.fold_left
      (fun acc (k, v) ->
        if List.mem_assoc k acc then List.map (fun (k', v') -> (k', if k' = k then v else v')) acc
        else acc @ [ (k, v) ])
      [] (existing @ keys)
  in
  Out_channel.with_open_bin bench_file (fun oc ->
      Printf.fprintf oc "{\n%s\n}\n"
        (String.concat ",\n" (List.map (fun (k, v) -> Printf.sprintf "  \"%s\": %s" k v) merged)))

(* ------------------------------------------------------------------ *)
(* E1: Theorem 4.1 — depth of C(w, t) is (lg2 w + lg w)/2, independent
   of t; same depth as bitonic; periodic is lg2 w.                      *)

let e1 () =
  header "E1  depth(C(w,t)) = (lg^2 w + lg w)/2, independent of t (Thm 4.1; Figs 2,3,11-13)";
  line "%6s %6s | %9s %9s | %8s %8s" "w" "t" "measured" "formula" "bitonic" "periodic";
  List.iter
    (fun w ->
      List.iter
        (fun p ->
          let t = p * w in
          let net = C.network ~w ~t in
          line "%6d %6d | %9d %9d | %8d %8d" w t (T.depth net) (C.depth_formula ~w)
            (Cn_baselines.Bitonic.depth_formula ~w)
            (Cn_baselines.Periodic.depth_formula ~w))
        (if w <= 4 then [ 1; 2; 4 ] else [ 1; 2; 4; Cn_core.Params.ilog2 w ]))
    [ 2; 4; 8; 16; 32; 64; 128; 256 ];
  line "note: measured depth never varies with t at fixed w."

(* ------------------------------------------------------------------ *)
(* E2: Lemma 3.1 — depth of the difference merging network is lg delta. *)

let e2 () =
  header "E2  depth(M(t,delta)) = lg delta (Lemma 3.1; Figs 5,6)";
  line "%6s %6s | %9s %9s | %6s" "t" "delta" "measured" "lg delta" "size";
  List.iter
    (fun (t, delta) ->
      let net = Cn_core.Merging.network ~t ~delta in
      line "%6d %6d | %9d %9d | %6d" t delta (T.depth net)
        (Cn_core.Merging.depth_formula ~delta)
        (T.size net))
    [
      (8, 2); (8, 4); (16, 2); (16, 4); (16, 8); (32, 8); (32, 16); (64, 16);
      (64, 32); (48, 8); (96, 16); (128, 64);
    ];
  line "note: a bitonic merger of width t has depth lg t instead (Section 3.3).";
  List.iter
    (fun t ->
      line "  bitonic merger width %3d: depth %d" t (T.depth (Cn_baselines.Bitonic.merger t)))
    [ 8; 16; 32; 64 ]

(* ------------------------------------------------------------------ *)
(* E3: Lemmas 5.2 / 6.6 — butterfly smoothness and N_ab smoothness.     *)

let measured_spread ?(trials = 400) ?(seed = 9) net =
  let rng = Random.State.make [| seed |] in
  let w = T.input_width net in
  let worst = ref 0 in
  for _ = 1 to trials do
    let x = Array.init w (fun _ -> Random.State.int rng 128) in
    worst := max !worst (S.spread (E.quiescent net x))
  done;
  !worst

let e3 () =
  header
    "E3  smoothing: D(w) is lg w-smooth (Lemma 5.2); N_ab is (floor(w lg w/t)+2)-smooth (Lemma 6.6)";
  line "%-14s %6s | %9s %7s" "network" "w" "measured" "bound";
  List.iter
    (fun w ->
      line "%-14s %6d | %9d %7d" "butterfly D" w
        (measured_spread (Cn_core.Butterfly.forward w))
        (Cn_core.Butterfly.smoothness_bound ~w))
    [ 4; 8; 16; 32; 64; 128; 256 ];
  line "%-14s %6s | %9s %7s" "N_ab = C'(w,t)" "w,t" "measured" "bound";
  List.iter
    (fun (w, t) ->
      line "%-8s %4d,%-6d | %9d %7d" "C'" w t
        (measured_spread (Cn_core.Blocks.c_prime ~w ~t))
        (Cn_core.Blocks.smoothing_parameter ~w ~t))
    [ (8, 8); (8, 24); (8, 64); (16, 16); (16, 64); (32, 32); (32, 160); (64, 64) ]

(* ------------------------------------------------------------------ *)
(* E4: Theorem 6.7 / Section 1.3.1 — simulated amortized contention.    *)

let e4_networks w =
  [
    ("bitonic", Cn_baselines.Bitonic.network w);
    ("periodic", Cn_baselines.Periodic.network w);
    (Printf.sprintf "C(%d,%d)" w w, C.network ~w ~t:w);
    (Printf.sprintf "C(%d,%d)" w (w * Cn_core.Params.ilog2 w), C.wide w);
    (Printf.sprintf "C(%d,%d)" w (w * w), C.network ~w ~t:(w * w));
    ("difftree", Cn_baselines.Diffracting.network w);
  ]

let e4 () =
  header "E4  simulated amortized contention: stalls/token vs concurrency (Thm 6.7; Sect 1.3.1)";
  List.iter
    (fun w ->
      line "-- w = %d (crossover n = w lg w = %d); m = 30n tokens, worst over schedule portfolio"
        w
        (Bounds.crossover_concurrency ~w);
      let ns = [ 2; 4; 8; 16; 32; 64; 128; 256 ] in
      line "%-12s %s" "network" (String.concat " " (List.map (Printf.sprintf "%8d") ns));
      List.iter
        (fun (name, net) ->
          let row =
            List.map
              (fun n ->
                let r = Cn_sim.Contention.worst net ~n ~m:(30 * n) in
                Printf.sprintf "%8.2f" r.Cn_sim.Contention.per_token)
              ns
          in
          line "%-12s %s" name (String.concat " " row))
        (e4_networks w);
      line "%-12s %s" "[bnd bitonic]"
        (String.concat " "
           (List.map (fun n -> Printf.sprintf "%8.1f" (Bounds.contention_bitonic ~w ~n)) ns));
      line "%-12s %s" "[bnd C wide]"
        (String.concat " "
           (List.map
              (fun n ->
                Printf.sprintf "%8.1f"
                  (Bounds.contention_c_asymptotic ~w ~t:(w * Cn_core.Params.ilog2 w) ~n))
              ns)))
    [ 8; 16; 32 ];
  line "shape checks: C(w, w lg w) < C(w,w) ~ bitonic at n >> w lg w; difftree ~ n."

(* ------------------------------------------------------------------ *)
(* E5: real-system throughput with OCaml domains (Sect 1.3.1, [19,20]). *)

let e5 () =
  header "E5  multicore throughput: counter ops/s vs domains (experiments of [19,20])";
  line "(host note: single-core container -> domains timeshare; relative shapes only)";
  let w = 8 in
  let ops = 20_000 in
  let counters =
    [
      ("central-faa", fun () -> Cn_runtime.Shared_counter.central_faa ());
      ("lock", fun () -> Cn_runtime.Shared_counter.with_lock ());
      ( "bitonic-8",
        fun () -> Cn_runtime.Shared_counter.of_topology (Cn_baselines.Bitonic.network w) );
      ( "periodic-8",
        fun () -> Cn_runtime.Shared_counter.of_topology (Cn_baselines.Periodic.network w) );
      ("C(8,8)", fun () -> Cn_runtime.Shared_counter.of_topology (C.network ~w ~t:w));
      ("C(8,24)", fun () -> Cn_runtime.Shared_counter.of_topology (C.wide w));
      ("C(8,64)", fun () -> Cn_runtime.Shared_counter.of_topology (C.network ~w ~t:64));
    ]
  in
  let domain_counts = [ 1; 2; 4; 8 ] in
  line "%-12s %s" "counter"
    (String.concat " "
       (List.map (fun d -> Printf.sprintf "%11s" (Printf.sprintf "%dd ops/s" d)) domain_counts));
  Cn_runtime.Domain_pool.with_pool 8 (fun pool ->
      List.iter
        (fun (name, make) ->
          let row =
            List.map
              (fun domains ->
                let r =
                  Cn_runtime.Harness.throughput ~pool ~make ~domains
                    ~ops_per_domain:(ops / domains) ()
                in
                Printf.sprintf "%11.0f" r.Cn_runtime.Harness.ops_per_sec)
              domain_counts
          in
          line "%-12s %s" name (String.concat " " row))
        counters);
  line "CAS-retry failures per op at 8 domains (contention witness):";
  List.iter
    (fun (name, net) ->
      let rt = Cn_runtime.Network_runtime.compile ~mode:Cn_runtime.Network_runtime.Cas net in
      let body pid () =
        for _ = 1 to 2000 do
          ignore (Cn_runtime.Network_runtime.traverse rt ~wire:(pid mod T.input_width net))
        done
      in
      let handles = Array.init 8 (fun pid -> Domain.spawn (body pid)) in
      Array.iter Domain.join handles;
      line "  %-12s %.4f" name
        (float_of_int (Cn_runtime.Network_runtime.cas_failures rt) /. 16000.))
    [
      ("bitonic-8", Cn_baselines.Bitonic.network w);
      ("C(8,8)", C.network ~w ~t:8);
      ("C(8,24)", C.wide w);
    ]

(* ------------------------------------------------------------------ *)
(* E6: Section 1.3.2 — resource cost of increasing t.                   *)

let e6 () =
  header "E6  resource tradeoff: balancers vs output width t (Sect 1.3.2)";
  line "%6s %6s | %9s %9s | %22s" "w" "t" "balancers" "depth" "sim stalls/tok (n=128)";
  List.iter
    (fun w ->
      List.iter
        (fun t ->
          let net = C.network ~w ~t in
          let r =
            Cn_sim.Contention.worst ~strategies:[ Cn_sim.Scheduler.Random 3 ] net ~n:128 ~m:2560
          in
          line "%6d %6d | %9d %9d | %22.2f" w t (T.size net) (T.depth net)
            r.Cn_sim.Contention.per_token)
        [ w; 2 * w; w * Cn_core.Params.ilog2 w; w * w ])
    [ 8; 16; 32 ];
  line "note: t = w lg w is the compromise the paper recommends.";
  (* The structural interpretation of Section 1.3.2: tokens spend most of
     their time in block N_c (the mergers); increasing t drains exactly
     that block's contention while N_ab stays put. *)
  line "";
  line "block-level stall split at w = 16, n = 128 (N_ab = first lg w layers, N_c = mergers):";
  line "%6s %6s | %12s %12s" "w" "t" "N_ab stalls" "N_c stalls";
  List.iter
    (fun t ->
      let net = C.network ~w:16 ~t in
      let r = Cn_sim.Contention.measure net ~n:128 ~m:2560 (Cn_sim.Scheduler.Random 3) in
      let k = Cn_core.Params.ilog2 16 in
      let ab = Array.fold_left ( + ) 0 (Array.sub r.Cn_sim.Contention.per_layer 0 k) in
      let c =
        Array.fold_left ( + ) 0
          (Array.sub r.Cn_sim.Contention.per_layer k
             (Array.length r.Cn_sim.Contention.per_layer - k))
      in
      line "%6d %6d | %12d %12d" 16 t ab c)
    [ 16; 32; 64; 256 ];
  line "N_ab stalls are t-invariant; N_c stalls collapse as t grows — Fig. 3's intuition."

(* ------------------------------------------------------------------ *)
(* E7: Section 7 — the sorting-network byproduct.                       *)

let e7 () =
  header "E7  sorting byproduct: comparators from C(w,w) sort; depth O(lg^2 w) (Sect 7)";
  line "%6s | %8s %8s | %12s %12s | %10s" "w" "depth" "batcher" "comparators" "batcher" "sorts";
  List.iter
    (fun w ->
      let ours = Cn_core.Sorting.of_topology (C.network ~w ~t:w) in
      let batcher = Cn_baselines.Batcher.network w in
      let sorts =
        if w <= 16 then Cn_core.Sorting.sorts_zero_one ours
        else Cn_core.Sorting.sorts_random ~trials:3000 ours
      in
      line "%6d | %8d %8d | %12d %12d | %10b" w (Cn_core.Sorting.depth ours)
        (Cn_core.Sorting.depth batcher)
        (Cn_core.Sorting.comparator_count ours)
        (Cn_core.Sorting.comparator_count batcher)
        sorts)
    [ 4; 8; 16; 32; 64 ]

(* ------------------------------------------------------------------ *)
(* E8: Fig. 1 — the worked example reproduced exactly.                  *)

let e8 () =
  header "E8  Fig. 1 reproduction: (4,6)-balancer and C(4,8) token values";
  let b = Cn_network.Balancer.make ~fan_in:4 ~fan_out:6 () in
  line "(4,6)-balancer, 11 tokens in -> per-wire exits %s"
    (S.to_string (Cn_network.Balancer.output_counts b ~tokens:11));
  let net = C.network ~w:4 ~t:8 in
  line "C(4,8): w=%d t=%d depth=%d size=%d" (T.input_width net) (T.output_width net)
    (T.depth net) (T.size net);
  let entries = List.init 17 (fun i -> i mod 4) in
  let runs = E.token_run net entries in
  line "17 sequential tokens (entry wire -> exit wire = counter value):";
  List.iteri
    (fun i (wire, v) -> line "  token %2d: in %d -> out %d, value %2d" i (i mod 4) wire v)
    runs;
  let per_wire = Array.make 8 0 in
  List.iter (fun (wire, _) -> per_wire.(wire) <- per_wire.(wire) + 1) runs;
  line "exit distribution %s (step: %b)" (S.to_string per_wire) (S.is_step per_wire)

(* ------------------------------------------------------------------ *)
(* E9: ablation — replace M(t, w/2) by the bitonic merger (Sect 3.3).   *)

let e9 () =
  header "E9  ablation: C(w,t) with bitonic mergers instead of M(t,delta) (Sect 3.3)";
  line "%6s %6s | %10s %12s | %s" "w" "t" "C(w,t)" "ablated" "t-dependence";
  List.iter
    (fun w ->
      List.iter
        (fun t ->
          let ours = T.depth (C.network ~w ~t) in
          let ablated = T.depth (Cn_core.Ablation.network ~w ~t) in
          line "%6d %6d | %10d %12d | %s" w t ours ablated
            (if t = w then "" else Printf.sprintf "+%d layers for 8x width" (ablated - T.depth (Cn_core.Ablation.network ~w ~t:w))))
        [ w; 8 * w ])
    [ 4; 8; 16; 32; 64 ];
  line "our merger keeps depth a function of w alone; the bitonic merger pays lg t per level.";
  line "second ablation: wiring the recursion cross-parity (M0 on x_even,y_odd) breaks merging:";
  List.iter
    (fun (t, delta) ->
      match
        Cn_core.Verify.merging ~delta ~max_half_sum:40 (Cn_core.Ablation.cross_parity_merger ~t ~delta)
      with
      | Cn_core.Verify.Counterexample x ->
          line "  M'(%d,%d): fails, e.g. on step halves summing %d and %d" t delta
            (S.sum (S.first_half x)) (S.sum (S.second_half x))
      | Cn_core.Verify.Verified n -> line "  M'(%d,%d): (unexpectedly merged %d cases)" t delta n)
    [ (8, 4); (16, 8); (32, 16) ]

(* ------------------------------------------------------------------ *)
(* E10: randomized initial states (Sect 7 open problem; [17,24]).       *)

let e10 () =
  header "E10  randomized initial balancer states: smoothness of D(w) (Sect 7; [17,24])";
  line "%6s | %14s %14s | %7s" "w" "deterministic" "randomized" "bound";
  List.iter
    (fun w ->
      let det = measured_spread (Cn_core.Butterfly.forward w) in
      (* Average worst spread over several random initializations. *)
      let seeds = [ 1; 2; 3; 4; 5 ] in
      let rnd =
        List.fold_left
          (fun acc seed ->
            acc
            + measured_spread ~seed (T.randomize_states ~seed (Cn_core.Butterfly.forward w)))
          0 seeds
      in
      line "%6d | %14d %14.1f | %7d" w det
        (float_of_int rnd /. float_of_int (List.length seeds))
        (Cn_core.Butterfly.smoothness_bound ~w))
    [ 8; 16; 32; 64; 128 ];
  line "randomization does not break the lg w bound and keeps typical spreads similar;";
  line "counting networks, by contrast, lose the step property under random states";
  let net = T.randomize_states ~seed:11 (C.network ~w:8 ~t:8) in
  let rng = Random.State.make [| 4 |] in
  let broke = ref 0 in
  for _ = 1 to 300 do
    let x = Array.init 8 (fun _ -> Random.State.int rng 50) in
    if not (S.is_step (E.quiescent net x)) then incr broke
  done;
  line "(randomized C(8,8): %d/300 random loads fail step, all stay 2-smooth)" !broke

(* ------------------------------------------------------------------ *)
(* E11: discrete-event latency model (Sect 1.1: latency = depth;        *)
(* throughput capped by the narrowest layer).                           *)

let e11 () =
  header "E11  timed simulation: latency = depth at low load; throughput = first-layer capacity (Sect 1.1)";
  let configs =
    [
      ("C(8,8)", Cn_core.Counting.network ~w:8 ~t:8);
      ("C(8,24)", C.wide 8);
      ("bitonic-8", Cn_baselines.Bitonic.network 8);
      ("periodic-8", Cn_baselines.Periodic.network 8);
      ("difftree-8", Cn_baselines.Diffracting.network 8);
    ]
  in
  line "%-12s %6s | %9s %9s %9s | %10s %8s" "network" "depth" "lat(n=1)" "lat(n=16)" "lat(n=64)"
    "saturation" "cap w/2";
  List.iter
    (fun (name, net) ->
      let lat n =
        (Cn_sim.Timed.closed_loop ~jitter:0.3 net ~n ~rounds:50).Cn_sim.Timed.avg_latency
      in
      let sat = (Cn_sim.Timed.closed_loop ~jitter:0.3 net ~n:128 ~rounds:50).Cn_sim.Timed.throughput in
      line "%-12s %6d | %9.2f %9.2f %9.2f | %10.2f %8d" name (T.depth net) (lat 1) (lat 16)
        (lat 64) sat
        (T.input_width net / 2))
    configs;
  line "the diffracting tree pays for its single input wire: saturation throughput 1."

(* ------------------------------------------------------------------ *)
(* E12: (non-)linearizability (Sect 1.4.2; Herlihy-Shavit-Waarts).      *)

let e12 () =
  header "E12  linearizability: counting networks invert values across real time (Sect 1.4.2)";
  line "%-14s %6s | %-14s %s" "network" "depth" "linearizable?" "witness (value after, value before)";
  List.iter
    (fun (name, net) ->
      match Cn_sim.Linearizability.find_violation net ~n:8 ~m:80 with
      | None -> line "%-14s %6d | %-14s" name (T.depth net) "yes (none found)"
      | Some (a, b) ->
          line "%-14s %6d | %-14s op@t%d got %d, later op@t%d got %d" name (T.depth net) "NO"
            a.Cn_sim.Stall_model.response a.Cn_sim.Stall_model.value
            b.Cn_sim.Stall_model.invoke b.Cn_sim.Stall_model.value)
    [
      ("C(2,2)", C.network ~w:2 ~t:2);
      ("C(4,4)", C.network ~w:4 ~t:4);
      ("C(8,8)", C.network ~w:8 ~t:8);
      ("C(8,24)", C.wide 8);
      ("bitonic-8", Cn_baselines.Bitonic.network 8);
      ("periodic-8", Cn_baselines.Periodic.network 8);
      ("difftree-8", Cn_baselines.Diffracting.network 8);
    ];
  line "every history remains quiescently consistent (dense values); the HSW lower bound";
  line "says linearizable + low contention forces Omega(n) depth, so none of these try."

(* ------------------------------------------------------------------ *)
(* E13: Fetch&Decrement via antitokens (Sect 1.4.2; Aiello et al.).     *)

let e13 () =
  header "E13  antitokens: mixed increment/decrement workloads (Sect 1.4.2; Aiello et al. [2])";
  line "token-level mixed runs agree with the closed-form net evaluation, and net";
  line "distributions of non-negative nets keep the step property:";
  let rng = Random.State.make [| 77 |] in
  List.iter
    (fun (w, t) ->
      let net = C.network ~w ~t in
      let agree = ref 0 and steps = ref 0 and runs = 40 in
      for seed = 0 to runs - 1 do
        let tokens = Array.init w (fun _ -> 8 + Random.State.int rng 8) in
        let antitokens = Array.init w (fun _ -> Random.State.int rng 8) in
        let nets = Array.init w (fun i -> tokens.(i) - antitokens.(i)) in
        let traced = E.trace_signed ~seed net ~tokens ~antitokens in
        if traced = E.quiescent_net net nets then incr agree;
        if S.is_step traced then incr steps
      done;
      line "  C(%d,%d): trace=closed-form %d/%d, step %d/%d" w t !agree runs !steps runs)
    [ (4, 8); (8, 8); (8, 24); (16, 16) ];
  (* Runtime round trip at the counter level. *)
  let rt = Cn_runtime.Network_runtime.compile (C.network ~w:4 ~t:8) in
  let a = Cn_runtime.Network_runtime.traverse rt ~wire:0 in
  let b = Cn_runtime.Network_runtime.traverse rt ~wire:1 in
  let r = Cn_runtime.Network_runtime.traverse_decrement rt ~wire:1 in
  let b' = Cn_runtime.Network_runtime.traverse rt ~wire:1 in
  line "runtime Fetch&Decrement round trip: inc=%d, inc=%d, dec reclaims %d, inc re-issues %d" a b r b'

(* ------------------------------------------------------------------ *)
(* E14: exact worst-case contention on small instances (Sect 1.2).      *)

let e14 () =
  header "E14  exact cont(B,n,m) by exhaustive schedule search vs heuristic adversaries (Sect 1.2)";
  line "%-12s %3s %3s | %9s %9s | %9s %9s" "network" "n" "m" "exact max" "exact min" "heuristic" "max/token";
  List.iter
    (fun (name, net, n, m) ->
      let exact = Cn_sim.Exhaustive.max_contention net ~n ~m in
      let least = Cn_sim.Exhaustive.min_contention net ~n ~m in
      let heur = Cn_sim.Contention.worst net ~n ~m in
      line "%-12s %3d %3d | %9d %9d | %9.0f %9d" name n m exact least
        (heur.Cn_sim.Contention.per_token *. float_of_int m)
        heur.Cn_sim.Contention.max_token_stalls)
    [
      ("C(2,2)", C.network ~w:2 ~t:2, 3, 6);
      ("C(2,2)", C.network ~w:2 ~t:2, 4, 8);
      ("C(4,4)", C.network ~w:4 ~t:4, 3, 6);
      ("C(4,8)", C.network ~w:4 ~t:8, 3, 6);
      ("L(4)", Cn_core.Ladder.network 4, 4, 8);
      ("difftree-4", Cn_baselines.Diffracting.network 4, 3, 6);
    ];
  line "the widened C(4,8) already beats C(4,4) in the EXACT worst case (7 vs 8);";
  line "heuristics lower-bound the exact adversary (and match it on single balancers)."

(* ------------------------------------------------------------------ *)
(* Contention-model projection shared by the runtime and service
   suites.  The single-core host cannot measure real cross-core
   contention, so the projected rows combine the one number it CAN
   measure — the single-domain cost of a balancer crossing — with the
   stall-counting contention simulator (Dwork-Herlihy-Waarts, the
   paper's Section 1.2 model): token time = depth·crossing_ns +
   stalls/token(n)·stall_ns, stalls/token = n - 1 for the central FAA
   hot spot.  Before calibrating, the compiled network's precompiled
   routing image is certified by the CSR lint pass — a projection from
   a miscompiled network would be garbage with confidence. *)

let projected_json ?(smoke = false) ~w net =
  let module RT = Cn_runtime.Network_runtime in
  let module P = Cn_analysis.Projection in
  let subject = Printf.sprintf "C(%d,%d)" w w in
  let rt = RT.compile net in
  (match Cn_lint.Csr_lint.check ~subject net (RT.view rt) with
  | [] -> line "csr-lint: %s precompiled routing image certified (0 diagnostics)" subject
  | diags ->
      List.iter
        (fun d -> Printf.eprintf "csr-lint: %s\n" (Format.asprintf "%a" Cn_lint.Diagnostic.pp d))
        diags;
      prerr_endline "projected bench: refusing to calibrate a miscompiled network";
      exit 1);
  let crossing_ns =
    Cn_runtime.Domain_pool.with_pool 1 (fun pool ->
        Cn_runtime.Harness.calibrate_crossing_ns ~pool
          ~ops_per_domain:(if smoke then 10_000 else 200_000)
          ~make:(fun () -> Cn_runtime.Shared_counter.of_topology net)
          ~depth:(T.depth net) ())
  in
  let c = P.calibrate ~crossing_ns () in
  let domains_list = [ 2; 4; 8; 16; 32; 64 ] in
  let central = P.sweep_central c ~domains_list in
  let network = P.sweep_network c net ~domains_list in
  let row name (p : P.point) =
    Printf.sprintf
      "      { \"counter\": %S, \"domains\": %d, \"stalls_per_token\": %.3f, \"token_ns\": \
       %.1f, \"projected_ops_per_sec\": %.1f }"
      name p.P.domains p.P.stalls_per_token p.P.token_ns p.P.ops_per_sec
  in
  line "projected (model): crossing %.1f ns, stall factor %.1f, depth %d" crossing_ns
    c.P.stall_factor (T.depth net);
  line "%-12s %s" "counter"
    (String.concat " " (List.map (Printf.sprintf "%11dd") domains_list));
  let print_curve name pts =
    line "%-12s %s" name
      (String.concat " " (List.map (fun (p : P.point) -> Printf.sprintf "%11.0f" p.P.ops_per_sec) pts))
  in
  print_curve "central-faa" central;
  print_curve subject network;
  let crossover = P.crossover c net in
  (match crossover with
  | Some n -> line "projected crossover: network overtakes central FAA at %d domains" n
  | None -> line "projected crossover: not reached within the scanned range");
  Printf.sprintf
    "{\n    \"model\": \"token_ns = depth*crossing_ns + stalls_per_token*stall_factor*crossing_ns\",\n\
    \    \"crossing_ns\": %.3f,\n    \"stall_factor\": %.1f,\n    \"stall_ns\": %.3f,\n\
    \    \"depth\": %d,\n    \"csr_lint\": \"certified\",\n    \"rows\": [\n%s\n    ],\n\
    \    \"projected_crossover_domains\": %s\n  }"
    crossing_ns c.P.stall_factor (P.stall_ns c) (T.depth net)
    (String.concat ",\n" (List.map (row "central-faa") central @ List.map (row subject) network))
    (match crossover with Some n -> string_of_int n | None -> "null")

(* ------------------------------------------------------------------ *)
(* runtime: the compiled counting networks against the central-FAA and
   lock baselines across 1-8 domains, plus the batched and pipelined
   walks, reusing one warmed domain pool for every cell; records the
   "results" and "metrics" keys of BENCH_runtime.json.                  *)

let runtime ?(smoke = false) ?(projected = false) () =
  header "runtime  network vs central baselines, batched and pipelined walks (BENCH_runtime.json)";
  line "(host note: single-core container -> domains timeshare; relative shapes only)";
  let w = 16 in
  let ops_total = if smoke then 4_000 else 64_000 in
  let repeats = if smoke then 1 else 3 in
  let c16 = C.network ~w ~t:w in
  let bitonic16 = Cn_baselines.Bitonic.network w in
  let module RT = Cn_runtime.Network_runtime in
  let configs =
    [
      (Printf.sprintf "C(%d,%d)" w w, fun () -> Cn_runtime.Shared_counter.of_topology c16);
      (Printf.sprintf "bitonic-%d" w, fun () -> Cn_runtime.Shared_counter.of_topology bitonic16);
      ("central-faa", Cn_runtime.Shared_counter.central_faa);
      ("lock", Cn_runtime.Shared_counter.with_lock);
    ]
  in
  let domain_counts = [ 1; 2; 4; 8 ] in
  let results = ref [] in
  Cn_runtime.Domain_pool.with_pool 8 (fun pool ->
      line "%-14s %s" "counter"
        (String.concat " "
           (List.map (fun d -> Printf.sprintf "%11s" (Printf.sprintf "%dd ops/s" d)) domain_counts));
      List.iter
        (fun (name, make) ->
          let row =
            List.map
              (fun domains ->
                (* Best of [repeats]: spawn-free pool runs are cheap, and
                   the max is the least noisy location estimate for
                   short timed regions on a shared host. *)
                let best = ref 0. and seconds = ref 0. in
                for _ = 1 to repeats do
                  let r =
                    Cn_runtime.Harness.throughput ~pool ~make ~domains
                      ~ops_per_domain:(ops_total / domains) ()
                  in
                  if r.Cn_runtime.Harness.ops_per_sec > !best then begin
                    best := r.Cn_runtime.Harness.ops_per_sec;
                    seconds := r.Cn_runtime.Harness.seconds
                  end
                done;
                results := (name, domains, ops_total, !seconds, !best) :: !results;
                Printf.sprintf "%11.0f" !best)
              domain_counts
          in
          line "%-14s %s" name (String.concat " " row))
        configs;
      (* The batched traversal API: bounds check and dispatch amortized
         across each domain's whole quota. *)
      let rt = RT.compile c16 in
      let batch_row =
        List.map
          (fun domains ->
            let n = ops_total / domains in
            let best = ref 0. and seconds = ref 0. in
            for _ = 1 to repeats do
              RT.reset rt;
              let s =
                Cn_runtime.Domain_pool.run pool ~domains (fun pid ->
                    RT.traverse_batch rt ~wire:(pid mod w) ~n ~f:(fun _ _ -> ()))
              in
              let rate = if s <= 0. then 0. else float_of_int (domains * n) /. s in
              if rate > !best then begin
                best := rate;
                seconds := s
              end
            done;
            results :=
              (Printf.sprintf "C(%d,%d)+batch" w w, domains, ops_total, !seconds, !best)
              :: !results;
            Printf.sprintf "%11.0f" !best)
          domain_counts
      in
      line "%-14s %s" (Printf.sprintf "C(%d,%d)+batch" w w) (String.concat " " batch_row);
      (* The layer-pipelined batch walk: a wavefront of tokens advances
         one crossing per round, overlapping independent crossings.
         Buffers are per-domain — they are single-owner scratch. *)
      let bufs = Array.init 8 (fun _ -> RT.buffer ~capacity:128 ()) in
      let pipe_row =
        List.map
          (fun domains ->
            let n = ops_total / domains in
            let best = ref 0. and seconds = ref 0. in
            for _ = 1 to repeats do
              RT.reset rt;
              let s =
                Cn_runtime.Domain_pool.run pool ~domains (fun pid ->
                    RT.traverse_batch_pipelined rt bufs.(pid) ~wire:(pid mod w) ~n
                      ~f:(fun _ _ -> ()))
              in
              let rate = if s <= 0. then 0. else float_of_int (domains * n) /. s in
              if rate > !best then begin
                best := rate;
                seconds := s
              end
            done;
            results :=
              (Printf.sprintf "C(%d,%d)+pipe" w w, domains, ops_total, !seconds, !best)
              :: !results;
            Printf.sprintf "%11.0f" !best)
          domain_counts
      in
      line "%-14s %s" (Printf.sprintf "C(%d,%d)+pipe" w w) (String.concat " " pipe_row));
  (* Observability pass: one metrics-instrumented CAS run on C(16,16)
     at 4 domains.  The validator runs Strict — any lost update or
     broken step property fails the whole sweep — and the per-layer
     stall profile (the empirical shape Theorem 6.7 bounds) is printed
     and recorded in BENCH_runtime.json. *)
  let metrics_json =
    let rt = RT.compile ~mode:RT.Cas ~metrics:true c16 in
    let domains = 4 in
    let n = ops_total / domains in
    Cn_runtime.Domain_pool.with_pool domains (fun pool ->
        ignore
          (Cn_runtime.Domain_pool.run pool ~domains (fun pid ->
               RT.traverse_batch rt ~wire:(pid mod w) ~n ~f:(fun _ _ -> ()))));
    Cn_runtime.Validator.enforce Cn_runtime.Validator.Strict
      (Cn_runtime.Validator.quiescent_runtime rt);
    let m = Option.get (RT.metrics rt) in
    let snap = Cn_runtime.Metrics.snapshot m in
    let layers = Array.init (T.size c16) (T.balancer_depth c16) in
    let per_layer = Cn_runtime.Metrics.per_layer ~layers snap.Cn_runtime.Metrics.stalls in
    line "metrics: C(16,16) cas, %d domains x %d ops — validator strict ok" domains n;
    line "  per-layer stalls: %s"
      (String.concat " " (Array.to_list (Array.map string_of_int per_layer)));
    (match snap.Cn_runtime.Metrics.latency with
    | Some l ->
        line "  token latency (%s): p50 %.0f  p95 %.0f  p99 %.0f  (%d sampled)"
          l.Cn_runtime.Metrics.time_unit l.Cn_runtime.Metrics.p50 l.Cn_runtime.Metrics.p95
          l.Cn_runtime.Metrics.p99 l.Cn_runtime.Metrics.observed
    | None -> line "  token latency: (none sampled)");
    Cn_runtime.Metrics.to_json ~layers snap
  in
  let entries =
    List.rev_map
      (fun (name, domains, total_ops, seconds, rate) ->
        Printf.sprintf
          "    { \"counter\": %S, \"domains\": %d, \"total_ops\": %d, \"seconds\": %.6f, \
           \"ops_per_sec\": %.1f }"
          name domains total_ops seconds rate)
      !results
  in
  record_keys
    ([
       ("suite", "\"runtime\"");
       ("w", string_of_int w);
       ("results", Printf.sprintf "[\n%s\n  ]" (String.concat ",\n" entries));
       ("metrics", String.trim metrics_json);
     ]
    @ if projected then [ ("projected", projected_json ~smoke ~w c16) ] else []);
  line "recorded runtime in BENCH_runtime.json (%d measurements%s + metrics profile)"
    (List.length !results)
    (if projected then " + projected curves" else "")

(* ------------------------------------------------------------------ *)
(* service: the Cn_service combining front-end against naive per-op
   traversals, pure-increment and 50/50 inc/dec, at 8 domains on
   C(16,16).  Each service domain pipelines K async submissions per
   round so the elected combiner serves them as one batch — the
   batching the per-op caller cannot express — and the mixed rows let
   elimination pair tokens with antitokens before they reach the
   network.  Records the "service" key of BENCH_runtime.json.           *)

let service ?(smoke = false) ?(projected = false) () =
  header "service  combining front-end vs naive per-op traverse (BENCH_runtime.json)";
  line "(host note: single-core container -> domains timeshare; relative shapes only)";
  let module RT = Cn_runtime.Network_runtime in
  let module DP = Cn_runtime.Domain_pool in
  let module V = Cn_runtime.Validator in
  let module Svc = Cn_service.Service in
  let module W = Cn_service.Workload in
  let w = 16 in
  let c16 = C.network ~w ~t:w in
  let domains = 8 in
  let k = 32 in
  (* per-domain ops; divisible by the pipeline width [k] *)
  let ops = if smoke then 512 else 16_000 in
  let repeats = if smoke then 2 else 5 in
  let rows = ref [] in
  let record name mix rate seconds (st : Svc.stats option) =
    let mean_batch, elim, elim_rate, rejected =
      match st with
      | Some st ->
          (st.Svc.mean_batch, st.Svc.total_eliminated_pairs, st.Svc.elimination_rate,
           st.Svc.total_rejected)
      | None -> (1., 0, 0., 0)
    in
    rows := (name, mix, domains * ops, seconds, rate, mean_batch, elim, elim_rate, rejected) :: !rows;
    line "%-22s %-6s %11.0f ops/s   mean batch %6.2f   eliminated %6d   rejected %d"
      name mix rate mean_batch elim rejected
  in
  let find_rate name mix =
    let rec go = function
      | [] -> 0.
      | (n, m, _, _, r, _, _, _, _) :: _ when n = name && m = mix -> r
      | _ :: tl -> go tl
    in
    go !rows
  in
  let mixed_elims = ref 0 in
  let report_json = ref "null" in
  DP.with_pool domains (fun pool ->
      (* Naive baselines: one traverse (or traverse/traverse_decrement
         alternation) per op, strict-validated at quiescence. *)
      let naive name ~mixed =
        let rt = RT.compile c16 in
        let best = ref 0. and secs = ref 0. in
        for _ = 1 to repeats do
          RT.reset rt;
          let s =
            DP.run pool ~domains (fun pid ->
                let wire = pid mod w in
                if mixed then
                  for i = 0 to ops - 1 do
                    if i land 1 = 0 then ignore (RT.traverse rt ~wire)
                    else ignore (RT.traverse_decrement rt ~wire)
                  done
                else
                  for _ = 1 to ops do
                    ignore (RT.traverse rt ~wire)
                  done)
          in
          let rate = if s <= 0. then 0. else float_of_int (domains * ops) /. s in
          if rate > !best then begin
            best := rate;
            secs := s
          end
        done;
        V.enforce V.Strict (V.quiescent_runtime rt);
        record name (if mixed then "50/50" else "inc") !best !secs None
      in
      (* Service driver: each domain owns [k] sessions pinned to its
         wire and pipelines one submit per session before awaiting, so
         every round is served as one combined batch. *)
      let serve name ~mixed ~elim =
        let best = ref 0. and secs = ref 0. and best_stats = ref None in
        for _ = 1 to repeats do
          let svc = Svc.create ~max_batch:k ~elim c16 in
          let sessions =
            Array.init domains (fun pid ->
                Array.init k (fun _ -> Svc.session ~wire:(pid mod w) svc))
          in
          let submit s op =
            let rec go () =
              match Svc.submit s op with
              | Ok () -> ()
              | Error Svc.Overloaded ->
                  Domain.cpu_relax ();
                  go ()
              | Error Svc.Closed -> failwith "service closed mid-bench"
            in
            go ()
          in
          let s =
            DP.run pool ~domains (fun pid ->
                let ss = sessions.(pid) in
                for _ = 1 to ops / k do
                  if mixed then begin
                    for j = 0 to (k / 2) - 1 do
                      submit ss.(j) Svc.Inc
                    done;
                    for j = k / 2 to k - 1 do
                      submit ss.(j) Svc.Dec
                    done
                  end
                  else
                    for j = 0 to k - 1 do
                      submit ss.(j) Svc.Inc
                    done;
                  for j = 0 to k - 1 do
                    ignore (Svc.await ss.(j))
                  done
                done)
          in
          ignore (Svc.drain ~policy:V.Strict svc);
          let rate = if s <= 0. then 0. else float_of_int (domains * ops) /. s in
          if rate > !best then begin
            best := rate;
            secs := s;
            best_stats := Some (Svc.stats svc)
          end
        done;
        (match !best_stats with
        | Some st when mixed && elim -> mixed_elims := st.Svc.total_eliminated_pairs
        | _ -> ());
        record name (if mixed then "50/50" else "inc") !best !secs !best_stats
      in
      line "%-22s %-6s %d domains x %d ops on C(%d,%d), pipeline width %d" "counter" "mix"
        domains ops w w k;
      naive "naive-traverse" ~mixed:false;
      naive "naive-traverse" ~mixed:true;
      serve "service-batched" ~mixed:false ~elim:true;
      serve "service-batched" ~mixed:true ~elim:true;
      serve "service-noelim" ~mixed:true ~elim:false;
      (* Closed-loop workload coverage on the same pool: blocking
         increments/decrements under Zipf skew, metrics-instrumented,
         strict-drained; its combined service+network snapshot is
         embedded in the JSON. *)
      let svc = Svc.create ~metrics:true ~max_batch:k c16 in
      let spec =
        {
          W.default with
          W.domains;
          ops_per_domain = ops / 4;
          sessions_per_domain = 4;
          dec_ratio = 0.5;
          skew = W.Zipf 1.1;
        }
      in
      let wst = W.run ~pool svc spec in
      ignore (Svc.drain ~policy:V.Strict svc);
      record "service-workload" "50/50"
        (float_of_int (domains * ops / 4)
        /. Float.max wst.W.seconds 1e-9)
        wst.W.seconds
        (Some (Svc.stats svc));
      report_json := Svc.report_json svc);
  (* Acceptance gates: the mixed service run must actually eliminate,
     and batched-service throughput must beat the matched naive
     baseline. *)
  if !mixed_elims <= 0 then begin
    prerr_endline "service bench: expected > 0 eliminated pairs in the mixed run";
    exit 1
  end;
  let speedup_inc =
    find_rate "service-batched" "inc"
    /. Float.max (find_rate "naive-traverse" "inc") 1e-9
  in
  let speedup_mixed =
    find_rate "service-batched" "50/50"
    /. Float.max (find_rate "naive-traverse" "50/50") 1e-9
  in
  line "speedup vs naive: mixed 50/50 %.2fx (elimination), pure-inc rows recorded" speedup_mixed;
  if speedup_mixed < 1. then
    if smoke then
      (* Smoke regions are ~1 ms on this host — too short to gate on. *)
      line "note: smoke timing too short to gate on; full run enforces the comparison"
    else begin
      prerr_endline "service bench: mixed service run did not beat the naive baseline";
      exit 1
    end;
  let entries =
    List.rev_map
      (fun (name, mix, total_ops, seconds, rate, mean_batch, elim, elim_rate, rejected) ->
        Printf.sprintf
          "      { \"counter\": %S, \"mix\": %S, \"domains\": %d, \"total_ops\": %d, \
           \"seconds\": %.6f, \"ops_per_sec\": %.1f, \"mean_batch\": %.3f, \
           \"eliminated_pairs\": %d, \"elimination_rate\": %.4f, \"rejected\": %d }"
          name mix domains total_ops seconds rate mean_batch elim elim_rate rejected)
      !rows
  in
  let projected_field =
    if projected then
      Printf.sprintf ",\n    \"projected\": %s" (projected_json ~smoke ~w c16)
    else ""
  in
  let section =
    Printf.sprintf
      "{\n    \"net\": \"C(%d,%d)\",\n    \"domains\": %d,\n    \"pipeline\": %d,\n    \
       \"results\": [\n%s\n    ],\n    \"speedup_mixed_vs_naive\": %.3f,\n    \
       \"speedup_inc_vs_naive\": %.3f,\n    \"report\": %s%s\n  }"
      w w domains k
      (String.concat ",\n" entries)
      speedup_mixed speedup_inc (String.trim !report_json) projected_field
  in
  record_keys [ ("service", section) ];
  line "recorded service in BENCH_runtime.json (%d rows)" (List.length !rows)

(* ------------------------------------------------------------------ *)
(* serve: the countnetd wire protocol on loopback — an in-process
   Cn_proto.Server over C(16,16) driven by the TCP load rig.  Each row
   is one client population (uniform/Zipf skew, closed/bursty
   arrivals, a mixed inc/dec run) and carries SLO-style round-trip
   latency percentiles (p50/p95/p99, ns).  A churn phase and a
   mid-load Strict stop exercise the lifecycle edges; the section is
   recorded in BENCH_runtime.json.                                      *)

let serve ?(smoke = false) () =
  header "serve  countnetd loopback: wire-protocol SLO latencies (BENCH_runtime.json)";
  line "(host note: loopback TCP on a single core; rtt includes both protocol stacks)";
  let module V = Cn_runtime.Validator in
  let module M = Cn_runtime.Metrics in
  let module Svc = Cn_service.Service in
  let module W = Cn_service.Workload in
  let module Server = Cn_proto.Server in
  let module Client = Cn_proto.Client in
  let module Load = Cn_proto.Load in
  let w = 16 in
  let net = C.network ~w ~t:w in
  let ops = if smoke then 200 else 4_000 in
  let svc = Svc.create ~metrics:true ~validate:V.Strict net in
  let server = Server.start svc in
  let port = Server.port server in
  let rows = ref [] in
  let scenario name spec =
    let st = Load.run ~port spec in
    if st.Load.completed = 0 then begin
      Printf.eprintf "serve bench: scenario %s completed nothing\n" name;
      exit 1
    end;
    let p50, p95, p99, maxl =
      match st.Load.latency with
      | Some l -> (l.M.p50, l.M.p95, l.M.p99, l.M.max)
      | None -> (0., 0., 0., 0.)
    in
    rows := (name, spec, st, (p50, p95, p99, maxl)) :: !rows;
    line "%-14s %2d clients x %d conns   %8.0f ops/s   p50 %7.1f us  p95 %7.1f us  p99 %7.1f us"
      name spec.Load.clients spec.Load.conns_per_client st.Load.ops_per_sec (p50 /. 1e3)
      (p95 /. 1e3) (p99 /. 1e3)
  in
  let base =
    { Load.default with Load.clients = 2; conns_per_client = 2; ops_per_client = ops }
  in
  scenario "closed-uniform" base;
  scenario "closed-zipf" { base with Load.conns_per_client = 4; skew = W.Zipf 1.2 };
  scenario "mixed-dec" { base with Load.dec_ratio = 0.4; seed = 7 };
  scenario "bursty"
    {
      base with
      Load.ops_per_client = ops / 2;
      arrival = W.Bursty { burst = 64; pause = 0.0005 };
    };
  (* Churn: short-lived connections stack sessions onto the lanes. *)
  let churn = if smoke then 10 else 100 in
  for _ = 1 to churn do
    let c = Client.connect ~port () in
    ignore (Client.increment c);
    Client.close c
  done;
  let accepted_after_churn = Server.accepted server in
  line "churn: %d short-lived connections (server accepted %d total)" churn accepted_after_churn;
  (* Mid-load stop: ≥2 clients in flight when the drain starts.  The
     Strict policy makes a step-property or conservation violation at
     the quiescence point fatal to the bench. *)
  let rig_stats = ref None in
  let rig =
    Thread.create
      (fun () ->
        rig_stats :=
          Some
            (Load.run ~port
               {
                 base with
                 Load.ops_per_client = 1_000_000;
                 arrival = W.Closed 0.0002;
                 seed = 11;
               }))
      ()
  in
  Thread.delay (if smoke then 0.05 else 0.2);
  let report = Server.stop ~policy:V.Strict server in
  Thread.join rig;
  let drain_ok = V.passed report in
  let rig_disc, rig_closed, rig_done =
    match !rig_stats with
    | Some st -> (st.Load.disconnects, st.Load.closed, st.Load.completed)
    | None -> (0, 0, 0)
  in
  line "mid-load stop: drain %s (%s); rig saw %d completed, %d disconnects, %d closed"
    (if drain_ok then "ok" else "FAILED")
    (V.summary report) rig_done rig_disc rig_closed;
  if not drain_ok then begin
    prerr_endline "serve bench: Strict drain failed at the mid-load stop";
    exit 1
  end;
  if rig_done = 0 then begin
    prerr_endline "serve bench: the mid-load rig made no progress before the stop";
    exit 1
  end;
  let entries =
    List.rev_map
      (fun (name, (spec : Load.spec), (st : Load.stats), (p50, p95, p99, maxl)) ->
        Printf.sprintf
          "      { \"scenario\": %S, \"clients\": %d, \"conns_per_client\": %d, \
           \"ops_per_client\": %d, \"completed\": %d, \"rejected\": %d, \"closed\": %d, \
           \"disconnects\": %d, \"seconds\": %.6f, \"ops_per_sec\": %.1f, \
           \"busy_seconds\": %.6f, \"busy_ops_per_sec\": %.1f, \"rtt_ns\": { \"p50\": %.1f, \
           \"p95\": %.1f, \"p99\": %.1f, \"max\": %.1f } }"
          name spec.Load.clients spec.Load.conns_per_client spec.Load.ops_per_client
          st.Load.completed st.Load.rejected st.Load.closed st.Load.disconnects
          st.Load.seconds st.Load.ops_per_sec st.Load.busy_seconds st.Load.busy_ops_per_sec
          p50 p95 p99 maxl)
      !rows
  in
  let section =
    Printf.sprintf
      "{\n    \"net\": \"C(%d,%d)\",\n    \"results\": [\n%s\n    ],\n    \"churn\": %d,\n    \
       \"accepted\": %d,\n    \"drain\": { \"ok\": %b, \"summary\": %S, \
       \"rig_completed\": %d, \"rig_disconnects\": %d, \"rig_closed\": %d }\n  }"
      w w
      (String.concat ",\n" entries)
      churn accepted_after_churn drain_ok (V.summary report) rig_done rig_disc rig_closed
  in
  record_keys [ ("serve", section) ];
  line "recorded serve in BENCH_runtime.json (%d SLO rows)" (List.length !rows)

(* ------------------------------------------------------------------ *)
(* fabric: the elastic sharded counter fabric — shard-scaling sweep at
   1/2/4 shards of C(8,8) under 8 domains, each shard count measured
   both with fixed dimensions and with the auto-tuner's calibrated
   (w,t) pick, plus a hot-resize-under-load row: shard 0 of the
   4-shard fabric swapped C(8,8) -> C(16,16) mid-run with token
   conservation asserted at the Strict drain.  The projected rows come
   from the Theorem 6.7 contention model and show the analytic shard
   scaling even when this host timeshares domains on one core.
   Records the "fabric" key of BENCH_runtime.json.                      *)

let fabric ?(smoke = false) () =
  header "fabric  sharded counter fabric: shard scaling + hot resize (BENCH_runtime.json)";
  line "(host note: single-core container -> domains timeshare; relative shapes only)";
  let module DP = Cn_runtime.Domain_pool in
  let module V = Cn_runtime.Validator in
  let module Fab = Cn_fabric.Fabric in
  let module P = Cn_analysis.Projection in
  let w = 8 in
  let net = C.network ~w ~t:w in
  let domains = 8 in
  let sessions_per = 4 in
  let ops = if smoke then 400 else 8_000 in
  let repeats = if smoke then 1 else 3 in
  let shard_counts = [ 1; 2; 4 ] in
  let cal =
    let crossing_ns =
      Cn_runtime.Harness.calibrate_crossing_ns
        ~ops_per_domain:(if smoke then 2_000 else 50_000)
        ~make:(fun () -> Cn_runtime.Shared_counter.of_topology net)
        ~depth:(T.depth net) ()
    in
    P.calibrate ~crossing_ns ()
  in
  line "calibration: %.1f ns/crossing on C(%d,%d)" cal.P.crossing_ns w w;
  let rows = ref [] in
  let record name ~shards ~dims ~completed ~rejected ~seconds ~resized =
    let rate = if seconds <= 0. then 0. else float_of_int completed /. seconds in
    rows := (name, shards, dims, completed, rejected, seconds, rate, resized) :: !rows;
    line "%-18s %d shard%s %-22s %11.0f ops/s   %7d completed   %d rejected%s" name shards
      (if shards = 1 then " " else "s")
      dims rate completed rejected
      (if resized then "   (hot-resized)" else "")
  in
  let find_rate name shards =
    let rec go = function
      | [] -> 0.
      | (n, s, _, _, _, _, r, _) :: _ when n = name && s = shards -> r
      | _ :: tl -> go tl
    in
    go !rows
  in
  (* One measured configuration: [domains] domains each driving
     [sessions_per] keyed sessions round-robin, pure increments with
     Overloaded retry.  [tune] retunes every shard to the model's pick
     before the timed region; [resize_mid] makes domain 0 hot-swap
     shard 0 to C(16,16) halfway through its op budget while the other
     domains keep submitting.  Conservation (global read = completed
     increments) and a Strict shutdown gate every run. *)
  let run_config pool name ~shards ~tune ~resize_mid =
    let best = ref 0.
    and secs = ref 0.
    and best_completed = ref 0
    and best_rejected = ref 0
    and dims = ref (Printf.sprintf "C(%d,%d)" w w)
    and resized = ref false in
    for _ = 1 to repeats do
      let fab = Fab.create ~metrics:tune ~validate:V.Strict ~elim:false ~shards net in
      if tune then
        for sid = 0 to shards - 1 do
          match Fab.retune fab cal ~shard:sid ~domains with
          | Ok _ | Error _ -> ()
        done;
      let completed = Array.make domains 0 in
      let rejected = Array.make domains 0 in
      let resize_failed = ref false in
      let s =
        DP.run pool ~domains (fun pid ->
            let sessions =
              Array.init sessions_per (fun k ->
                  Fab.session ~key:((pid * sessions_per) + k) fab)
            in
            for i = 0 to ops - 1 do
              if resize_mid && pid = 0 && i = ops / 2 then begin
                match Fab.resize fab ~shard:0 (C.network ~w:16 ~t:16) with
                | Ok () -> ()
                | Error _ -> resize_failed := true
              end;
              let rec go () =
                match Fab.increment sessions.(i mod sessions_per) with
                | Ok _ -> completed.(pid) <- completed.(pid) + 1
                | Error Fab.Overloaded ->
                    Domain.cpu_relax ();
                    go ()
                | Error Fab.Closed -> rejected.(pid) <- rejected.(pid) + 1
              in
              go ()
            done)
      in
      if !resize_failed then begin
        prerr_endline "fabric bench: hot resize under load failed";
        exit 1
      end;
      let done_ops = Array.fold_left ( + ) 0 completed in
      let value = Fab.read fab in
      if value <> done_ops then begin
        Printf.eprintf "fabric bench: %s lost tokens (read %d, completed %d)\n" name value
          done_ops;
        exit 1
      end;
      if resize_mid && (Fab.shard_gen fab 0 <> 1 || (Fab.shard_info fab 0).Fab.width <> 16)
      then begin
        prerr_endline "fabric bench: shard 0 did not land on C(16,16) gen 1";
        exit 1
      end;
      let report = Fab.shutdown ~policy:V.Strict fab in
      if not (V.passed report) then begin
        Printf.eprintf "fabric bench: Strict shutdown failed for %s: %s\n" name
          (V.summary report);
        exit 1
      end;
      let rate = if s <= 0. then 0. else float_of_int done_ops /. s in
      if rate >= !best then begin
        best := rate;
        secs := s;
        best_completed := done_ops;
        best_rejected := Array.fold_left ( + ) 0 rejected;
        resized := resize_mid;
        dims :=
          String.concat "+"
            (List.map
               (fun (i : Fab.shard_info) -> Printf.sprintf "C(%d,%d)" i.Fab.width i.Fab.out_width)
               (Fab.shard_infos fab))
      end
    done;
    record name ~shards ~dims:!dims ~completed:!best_completed ~rejected:!best_rejected
      ~seconds:!secs ~resized:!resized
  in
  line "%d domains x %d ops, %d sessions/domain, %d repeat%s" domains ops sessions_per repeats
    (if repeats = 1 then "" else "s");
  DP.with_pool domains (fun pool ->
      List.iter
        (fun shards ->
          run_config pool "fixed" ~shards ~tune:false ~resize_mid:false;
          run_config pool "autotuned" ~shards ~tune:true ~resize_mid:false)
        shard_counts;
      run_config pool "resize-under-load" ~shards:4 ~tune:false ~resize_mid:true);
  (* Analytic shard scaling from the calibrated Theorem 6.7 model:
     shards split the domain population, so an N-shard fabric is N
     independent networks at domains/N each. *)
  let projected =
    List.map
      (fun shards ->
        let per_shard = max 1 (domains / shards) in
        let p = P.project_network cal net ~domains:per_shard in
        (shards, float_of_int shards *. p.P.ops_per_sec))
      shard_counts
  in
  List.iter
    (fun (shards, rate) -> line "projected %d shard%s %11.0f ops/s" shards
        (if shards = 1 then " " else "s") rate)
    projected;
  let ratio num den = if den <= 0. then 0. else num /. den in
  let measured_4v1 = ratio (find_rate "fixed" 4) (find_rate "fixed" 1) in
  let projected_4v1 =
    ratio (List.assoc 4 projected) (List.assoc 1 projected)
  in
  line "shard scaling 4 vs 1: measured %.2fx, projected %.2fx" measured_4v1 projected_4v1;
  if measured_4v1 < 1. then
    if smoke then
      (* Smoke regions are ~1 ms on this host — too short to gate on. *)
      line "note: smoke timing too short to gate on; full run enforces the comparison"
    else begin
      prerr_endline "fabric bench: 4-shard fabric did not beat the single shard";
      exit 1
    end;
  let entries =
    List.rev_map
      (fun (name, shards, dims, completed, rejected, seconds, rate, resized) ->
        Printf.sprintf
          "      { \"config\": %S, \"shards\": %d, \"dims\": %S, \"domains\": %d, \
           \"completed\": %d, \"rejected\": %d, \"seconds\": %.6f, \"ops_per_sec\": %.1f, \
           \"hot_resized\": %b }"
          name shards dims domains completed rejected seconds rate resized)
      !rows
  in
  let projected_entries =
    List.map
      (fun (shards, rate) ->
        Printf.sprintf "      { \"shards\": %d, \"ops_per_sec\": %.1f }" shards rate)
      projected
  in
  let section =
    Printf.sprintf
      "{\n    \"net\": \"C(%d,%d)\",\n    \"domains\": %d,\n    \"sessions_per_domain\": %d,\n    \
       \"crossing_ns\": %.2f,\n    \"results\": [\n%s\n    ],\n    \"projected\": [\n%s\n    \
       ],\n    \"scaling_4v1_measured\": %.3f,\n    \"scaling_4v1_projected\": %.3f\n  }"
      w w domains sessions_per cal.P.crossing_ns
      (String.concat ",\n" entries)
      (String.concat ",\n" projected_entries)
      measured_4v1 projected_4v1
  in
  record_keys [ ("fabric", section) ];
  line "recorded fabric in BENCH_runtime.json (%d rows)" (List.length !rows)

(* ------------------------------------------------------------------ *)
(* Approximate counting tier: the accuracy / throughput / memory
   frontier of the Cn_sketch backends against the exact network-backed
   counter.  Three row families:

   - hll accuracy: relative error vs the 1.04/sqrt(m) theory across
     precisions, with resident sketch bytes (gated: every row within
     its 95% bound, 2 sigma — the streams are deterministic, so these
     are fixed draws, not flaky samples);
   - throughput: Harness.throughput over the exact C(8,8) counter and
     the hll/sparse Shared_counter.Custom adapters;
   - memory: resident bytes of exact per-key counting (a Hashtbl of
     100k keys) vs the sparse-graph bank, gated on the >= 10x win,
     plus the sparse decode regimes (exact below the peeling
     threshold, bounded-error above).

   Records the "sketch" key of BENCH_runtime.json.                      *)

let sketch ?(smoke = false) () =
  header "sketch  approximate tier: accuracy/throughput/memory frontier (BENCH_runtime.json)";
  line "(host note: single-core container -> domains timeshare; relative shapes only)";
  let module Hll = Cn_sketch.Hll in
  let module Sparse = Cn_sketch.Sparse in
  let module Backend = Cn_sketch.Backend in
  let module H = Cn_runtime.Harness in
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("sketch bench: " ^ m); exit 1) fmt in
  (* --- HLL accuracy rows --------------------------------------------- *)
  let n_distinct = if smoke then 100_000 else 1_000_000 in
  line "hll accuracy at %d distinct keys:" n_distinct;
  let hll_rows =
    List.map
      (fun precision ->
        let t = Hll.create ~precision () in
        for i = 0 to n_distinct - 1 do
          Hll.add t i
        done;
        let est = Hll.cardinality t in
        let err = Float.abs (est -. float_of_int n_distinct) /. float_of_int n_distinct in
        let sigma = Hll.std_error t in
        let bytes = Hll.memory_bytes t in
        line "  p=%2d (m=%5d): estimate %9.0f  rel error %.4f  (sigma %.4f)  %7d bytes"
          precision (Hll.registers t) est err sigma bytes;
        if err > 2. *. sigma then
          fail "hll p=%d error %.4f exceeds the 95%% bound %.4f" precision err (2. *. sigma);
        (precision, Hll.registers t, est, err, sigma, bytes))
      [ 10; 12; 14 ]
  in
  (* --- throughput rows ----------------------------------------------- *)
  let domains = if smoke then 2 else 4 in
  let ops = if smoke then 20_000 else 100_000 in
  let net = C.network ~w:8 ~t:8 in
  let throughput_of name make =
    let r = H.throughput ~make ~domains ~ops_per_domain:ops () in
    line "  %-8s %11.0f ops/s  (%d domains, %d total ops)" name r.H.ops_per_sec domains
      r.H.total_ops;
    (name, r.H.ops_per_sec)
  in
  line "throughput (%d domains x %d ops):" domains ops;
  let tp_exact = throughput_of "exact" (fun () -> Cn_runtime.Shared_counter.of_topology net) in
  let tp_hll = throughput_of "hll" (fun () -> (Backend.hll ~precision:14 ()).Backend.counter) in
  let tp_sparse =
    throughput_of "sparse" (fun () ->
        (Backend.sparse ~counters:4096 ~degree:3 ()).Backend.counter)
  in
  let tp_rows = [ tp_exact; tp_hll; tp_sparse ] in
  (* --- memory rows ---------------------------------------------------- *)
  let n_keys = 100_000 in
  let exact_tbl = Hashtbl.create 1024 in
  for k = 0 to n_keys - 1 do
    Hashtbl.replace exact_tbl k (1 + (k mod 7))
  done;
  let exact_bytes = Obj.reachable_words (Obj.repr exact_tbl) * (Sys.word_size / 8) in
  let sp = Sparse.create ~degree:3 ~counters:8192 () in
  for k = 0 to n_keys - 1 do
    Sparse.add sp k (1 + (k mod 7))
  done;
  let sparse_bytes = Sparse.memory_bytes sp in
  let ratio = float_of_int exact_bytes /. float_of_int sparse_bytes in
  line "memory at %d keys: exact hashtbl %d bytes, sparse bank %d bytes (%.1fx smaller)"
    n_keys exact_bytes sparse_bytes ratio;
  if ratio < 10. then
    fail "sparse bank is only %.1fx smaller than exact per-key storage (gate: 10x)" ratio;
  (* Sparse decode regimes: exact recovery below the peeling threshold,
     bounded overestimates above it. *)
  let below = Sparse.create ~degree:3 ~counters:2048 () in
  for k = 0 to 999 do
    Sparse.add below k (1 + (k mod 100))
  done;
  let decoded = Sparse.decode below (List.init 1000 (fun k -> k)) in
  let all_exact =
    List.for_all
      (fun (k, { Sparse.value; exact }) -> exact && value = 1 + (k mod 100))
      decoded
  in
  if not all_exact then fail "sparse decode failed below the peeling threshold";
  line "sparse decode: 1000 keys / 2048 counters -> all exact (peeling threshold holds)";
  let over_err =
    (* Mean relative error of min-estimates in the overloaded regime the
       memory row runs at (100k keys / 8192 counters). *)
    let sample = 1000 in
    let total = ref 0. in
    for k = 0 to sample - 1 do
      let truth = 1 + (k mod 7) in
      let e = Sparse.estimate sp k in
      total := !total +. (float_of_int (e - truth) /. float_of_int truth)
    done;
    !total /. float_of_int sample
  in
  line "sparse overload (%d keys / %d counters): mean estimate overshoot %.1fx" n_keys 8192
    over_err;
  (* --- JSON ----------------------------------------------------------- *)
  let hll_entries =
    List.map
      (fun (p, m, est, err, sigma, bytes) ->
        Printf.sprintf
          "      { \"precision\": %d, \"registers\": %d, \"distinct\": %d, \"estimate\": \
           %.1f, \"rel_error\": %.6f, \"std_error\": %.6f, \"bytes\": %d }"
          p m n_distinct est err sigma bytes)
      hll_rows
  in
  let tp_entries =
    List.map
      (fun (name, rate) ->
        Printf.sprintf "      { \"backend\": %S, \"domains\": %d, \"ops_per_sec\": %.1f }"
          name domains rate)
      tp_rows
  in
  let section =
    Printf.sprintf
      "{\n    \"hll_accuracy\": [\n%s\n    ],\n    \"throughput\": [\n%s\n    ],\n    \
       \"memory\": { \"keys\": %d, \"exact_bytes\": %d, \"sparse_bytes\": %d, \"ratio\": \
       %.2f, \"sparse_mean_overshoot\": %.3f }\n  }"
      (String.concat ",\n" hll_entries)
      (String.concat ",\n" tp_entries)
      n_keys exact_bytes sparse_bytes ratio over_err
  in
  record_keys [ ("sketch", section) ];
  line "recorded sketch in BENCH_runtime.json (%d hll rows, %d throughput rows)"
    (List.length hll_rows) (List.length tp_rows)

(* ------------------------------------------------------------------ *)
(* hybrid: merger-strategy comparison at C(16,16).  Depth/size of each
   substituted topology plus shared-counter throughput, with the lint's
   two-token step battery replayed inline so every row carries its own
   correctness verdict (periodic3 passes it at this width; the pk
   strategies are refuted — the row records that honestly rather than
   benchmarking a broken network as if it counted).                     *)

let hybrid ?(smoke = false) () =
  header "hybrid  merger strategies at C(16,16): depth/size/throughput (BENCH_runtime.json)";
  line "(host note: single-core container -> domains timeshare; relative shapes only)";
  let module M = Cn_core.Merger in
  let module H = Cn_runtime.Harness in
  let w = 16 in
  let domains = if smoke then 2 else 4 in
  let ops = if smoke then 10_000 else 100_000 in
  let battery = Cn_lint.Cert.escalation_loads w in
  let strategies =
    [
      ("difference", M.Difference, M.All_levels);
      ("periodic3/top", M.Periodic3, M.Top_only);
      ("periodic3/all", M.Periodic3, M.All_levels);
      ("pk2/top", M.Periodic_k 2, M.Top_only);
      ("pk6/top", M.Periodic_k 6, M.Top_only);
    ]
  in
  line "%-15s %6s %6s %8s %12s" "merger" "depth" "size" "battery" "ops/s";
  let rows =
    List.map
      (fun (name, merger, scope) ->
        let net = C.network_with ~merger ~scope ~w ~t:w in
        let depth = T.depth net in
        let size = T.size net in
        let battery_ok =
          List.for_all (fun load -> S.is_step (E.quiescent net load)) battery
        in
        let r =
          H.throughput
            ~make:(fun () -> Cn_runtime.Shared_counter.of_topology net)
            ~domains ~ops_per_domain:ops ()
        in
        line "%-15s %6d %6d %8s %12.0f" name depth size
          (if battery_ok then "ok" else "REFUTED")
          r.H.ops_per_sec;
        (name, depth, size, battery_ok, r.H.ops_per_sec))
      strategies
  in
  (* The classic difference merger must pass its own battery; a failure
     here is a harness bug, not a finding. *)
  (match rows with
  | ("difference", _, _, ok, _) :: _ when not ok ->
      prerr_endline "hybrid bench: difference merger failed the step battery";
      exit 1
  | _ -> ());
  let entries =
    List.map
      (fun (name, depth, size, battery_ok, rate) ->
        Printf.sprintf
          "      { \"merger\": %S, \"depth\": %d, \"size\": %d, \"step_battery_ok\": %b, \
           \"ops_per_sec\": %.1f }"
          name depth size battery_ok rate)
      rows
  in
  let section =
    Printf.sprintf
      "{\n    \"network\": \"C(%d,%d)\",\n    \"domains\": %d,\n    \"ops_per_domain\": %d,\n    \
       \"battery_loads\": %d,\n    \"rows\": [\n%s\n    ]\n  }"
      w w domains ops (List.length battery)
      (String.concat ",\n" entries)
  in
  record_keys [ ("hybrid", section) ];
  line "recorded hybrid in BENCH_runtime.json (%d merger rows, %d battery loads)"
    (List.length rows) (List.length battery)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per experiment family.      *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let traversal name net =
    let rt = Cn_runtime.Network_runtime.compile net in
    let i = ref 0 in
    Test.make ~name
      (Staged.stage (fun () ->
           incr i;
           Cn_runtime.Network_runtime.traverse rt
             ~wire:(!i mod Cn_network.Topology.input_width net)))
  in
  let tests =
    [
      (* E1: building the flagship network. *)
      Test.make ~name:"e1-build-C(32,32)" (Staged.stage (fun () -> C.network ~w:32 ~t:32));
      (* E2: building a merging network. *)
      Test.make ~name:"e2-build-M(64,16)"
        (Staged.stage (fun () -> Cn_core.Merging.network ~t:64 ~delta:16));
      (* E3: one quiescent evaluation of a butterfly. *)
      (let d = Cn_core.Butterfly.forward 64 in
       let x = Array.init 64 (fun i -> i mod 7) in
       Test.make ~name:"e3-eval-D(64)" (Staged.stage (fun () -> E.quiescent d x)));
      (* E4: one simulated execution. *)
      (let net = C.network ~w:8 ~t:8 in
       Test.make ~name:"e4-sim-C(8,8)-n16"
         (Staged.stage (fun () ->
              Cn_sim.Contention.measure net ~n:16 ~m:160 (Cn_sim.Scheduler.Random 1))));
      (* E5: single traversals per network (runtime hot path). *)
      traversal "e5-traverse-bitonic8" (Cn_baselines.Bitonic.network 8);
      traversal "e5-traverse-C(8,8)" (C.network ~w:8 ~t:8);
      traversal "e5-traverse-C(8,24)" (C.wide 8);
      traversal "e5-traverse-difftree8" (Cn_baselines.Diffracting.network 8);
      (* E6: size accounting. *)
      Test.make ~name:"e6-size-C(64,384)" (Staged.stage (fun () -> C.size_formula ~w:64 ~t:384));
      (* E7: one sort. *)
      (let s = Cn_core.Sorting.of_topology (C.network ~w:32 ~t:32) in
       let input = Array.init 32 (fun i -> (i * 37) mod 101) in
       Test.make ~name:"e7-sort-C(32,32)"
         (Staged.stage (fun () -> Cn_core.Sorting.apply s input)));
      (* E8: one sequential token run. *)
      (let net = C.network ~w:4 ~t:8 in
       Test.make ~name:"e8-token-run-C(4,8)"
         (Staged.stage (fun () -> E.token_run net [ 0; 1; 2; 3 ])));
      (* E9: building the ablated network. *)
      Test.make ~name:"e9-build-ablated-C(16,64)"
        (Staged.stage (fun () -> Cn_core.Ablation.network ~w:16 ~t:64));
      (* E10: randomizing states plus one evaluation. *)
      (let base = Cn_core.Butterfly.forward 32 in
       let x = Array.init 32 (fun i -> i mod 5) in
       Test.make ~name:"e10-randomize-D(32)"
         (Staged.stage (fun () -> E.quiescent (T.randomize_states ~seed:1 base) x)));
      (* E11: one timed closed loop. *)
      (let net = C.network ~w:8 ~t:8 in
       Test.make ~name:"e11-timed-closed-loop"
         (Staged.stage (fun () -> Cn_sim.Timed.closed_loop net ~n:16 ~rounds:10)));
      (* E12: one linearizability check over a recorded history. *)
      (let net = C.network ~w:4 ~t:4 in
       let s = Cn_sim.Stall_model.create net ~concurrency:8 ~tokens:80 in
       Cn_sim.Scheduler.run s (Cn_sim.Scheduler.Park 1);
       let hist = Cn_sim.Stall_model.history s in
       Test.make ~name:"e12-linearizability-check"
         (Staged.stage (fun () -> Cn_sim.Linearizability.violation hist)));
      (* E13: one signed evaluation. *)
      (let net = C.network ~w:8 ~t:16 in
       let x = Array.init 8 (fun i -> (i mod 3) - 1) in
       Test.make ~name:"e13-signed-eval" (Staged.stage (fun () -> E.quiescent_net net x)));
    ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"micro" ~fmt:"%s %s" tests) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  header "micro  Bechamel: ns/op (monotonic clock, OLS)";
  let rows = Hashtbl.fold (fun name result acc -> (name, result) :: acc) results [] in
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> line "%-28s %12.1f ns/op" name est
      | _ -> line "%-28s (no estimate)" name)
    (List.sort compare rows)

let all () =
  e1 ();
  e2 ();
  e3 ();
  e4 ();
  e5 ();
  e6 ();
  e7 ();
  e8 ();
  e9 ();
  e10 ();
  e11 ();
  e12 ();
  e13 ();
  e14 ()

let () =
  match Sys.argv with
  | [| _ |] -> all ()
  | [| _; "e1" |] -> e1 ()
  | [| _; "e2" |] -> e2 ()
  | [| _; "e3" |] -> e3 ()
  | [| _; "e4" |] -> e4 ()
  | [| _; "e5" |] -> e5 ()
  | [| _; "e6" |] -> e6 ()
  | [| _; "e7" |] -> e7 ()
  | [| _; "e8" |] -> e8 ()
  | [| _; "e9" |] -> e9 ()
  | [| _; "e10" |] -> e10 ()
  | [| _; "e11" |] -> e11 ()
  | [| _; "e12" |] -> e12 ()
  | [| _; "e13" |] -> e13 ()
  | [| _; "e14" |] -> e14 ()
  | [| _; "micro" |] -> micro ()
  | [| _; "runtime" |] -> runtime ()
  | [| _; "runtime"; "--smoke" |] -> runtime ~smoke:true ()
  | [| _; "runtime"; "--projected" |] -> runtime ~projected:true ()
  | [| _; "runtime"; "--smoke"; "--projected" |] | [| _; "runtime"; "--projected"; "--smoke" |] ->
      runtime ~smoke:true ~projected:true ()
  | [| _; "service" |] -> service ()
  | [| _; "service"; "--smoke" |] -> service ~smoke:true ()
  | [| _; "service"; "--projected" |] -> service ~projected:true ()
  | [| _; "service"; "--smoke"; "--projected" |] | [| _; "service"; "--projected"; "--smoke" |] ->
      service ~smoke:true ~projected:true ()
  | [| _; "serve" |] -> serve ()
  | [| _; "serve"; "--smoke" |] -> serve ~smoke:true ()
  | [| _; "fabric" |] -> fabric ()
  | [| _; "fabric"; "--smoke" |] -> fabric ~smoke:true ()
  | [| _; "sketch" |] -> sketch ()
  | [| _; "sketch"; "--smoke" |] -> sketch ~smoke:true ()
  | [| _; "hybrid" |] -> hybrid ()
  | [| _; "hybrid"; "--smoke" |] -> hybrid ~smoke:true ()
  | _ ->
      prerr_endline
        "usage: main.exe [e1|...|e14|micro|runtime [--smoke] [--projected]|service [--smoke] \
         [--projected]|serve [--smoke]|fabric [--smoke]|sketch [--smoke]|hybrid [--smoke]]";
      exit 2
