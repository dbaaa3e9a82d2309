(* Benchmark harness regenerating the paper's quantitative claims.
   Run with no argument for the full E1-E14 table set, with an
   experiment id ("e1" .. "e14") for one table, with "micro" for the
   Bechamel micro-benchmarks (one Test.make per experiment family), or
   with a suite name — "runtime", "service" or "fabric", each
   [--smoke] — to measure that suite and record its section of
   BENCH_runtime.json.  Every timed row goes through [measure].  See
   EXPERIMENTS.md for the experiment index. *)

module T = Cn_network.Topology
module E = Cn_network.Eval
module S = Cn_sequence.Sequence
module C = Cn_core.Counting
module Bounds = Cn_analysis.Bounds

let header title = Printf.printf "\n=== %s ===\n" title
let line fmt = Printf.printf (fmt ^^ "\n")
let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

(* ------------------------------------------------------------------ *)
(* BENCH_runtime.json: one JSON object with one key per suite.
   [record_section] sets a suite's section — replacing it in place if
   it already exists — and keeps every other key's value text byte for
   byte, so suites can run in any order and re-run without duplicating
   a key.  Only the top level is scanned: a value ends at the first ','
   or '}' outside strings and brackets.  Each section opens with a
   "run" header saying what produced it; the header goes per section
   because suites are recorded separately. *)

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

let nproc = Domain.recommended_domain_count ()

(* JSON text for the records below. *)
let str = Printf.sprintf "%S"

let obj fields =
  Printf.sprintf "{ %s }"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields))

let rows items = Printf.sprintf "[\n%s\n    ]" (String.concat ",\n" (List.map (( ^ ) "      ") items))

let git args =
  if not (Sys.file_exists ".git") then None
  else
    match Unix.open_process_args_in "git" (Array.of_list ("git" :: args)) with
    | exception Unix.Unix_error _ -> None
    | ic -> (
        let out = In_channel.input_all ic in
        match Unix.close_process_in ic with Unix.WEXITED 0 -> Some (String.trim out) | _ -> None)

(* The field names are cnbench's.  [dirty] leaves out the record file
   itself, which every suite rewrites. *)
let run_header ~smoke =
  let or_null f = Option.fold ~none:"null" ~some:f in
  obj
    [
      ("schema_version", "1");
      ("git_revision", or_null str (git [ "rev-parse"; "HEAD" ]));
      ( "dirty",
        or_null
          (fun s -> string_of_bool (s <> ""))
          (git [ "status"; "--porcelain"; "--"; "."; ":!" ^ bench_file ]) );
      ("nproc", string_of_int nproc);
      ("ocaml_version", str Sys.ocaml_version);
      ("smoke", string_of_bool smoke);
    ]

let record_section ~smoke key fields =
  let section =
    Printf.sprintf "{\n%s\n  }"
      (String.concat ",\n"
         (List.map
            (fun (k, v) -> Printf.sprintf "    %S: %s" k v)
            (("run", run_header ~smoke) :: fields)))
  in
  let existing =
    if Sys.file_exists bench_file then
      top_level_entries (In_channel.with_open_bin bench_file In_channel.input_all)
    else []
  in
  (* Later bindings win, at the position of the first: this replaces the
     suite's section and also heals duplicates an older writer left. *)
  let merged =
    List.fold_left
      (fun acc (k, v) ->
        if List.mem_assoc k acc then List.map (fun (k', v') -> (k', if k' = k then v else v')) acc
        else acc @ [ (k, v) ])
      [] (existing @ [ (key, section) ])
  in
  Out_channel.with_open_bin bench_file (fun oc ->
      Printf.fprintf oc "{\n%s\n}\n"
        (String.concat ",\n" (List.map (fun (k, v) -> Printf.sprintf "  \"%s\": %s" k v) merged)));
  line "recorded %s in %s" key bench_file

(* ------------------------------------------------------------------ *)
(* One measurement discipline for every timed row.  [run ops] builds
   fresh state, runs [ops] operations on each of [domains] domains,
   validates what it ran, and returns (seconds, completed ops).
   [measure] doubles [ops] by Harness.next_calibration_ops until one
   run lasts [min_repeat_seconds], then times [full_repeats] repeats —
   doubling again if one of them still came in short — and reports
   their median, min and max rate.  A row with more domains than the
   host has cpus timeshares, and says so.  [~smoke] times one repeat at
   the given count.

   [measure_rounds] does the same for rows a gate compares: each is
   calibrated on its own, then their repeats run round-robin (a, b, c,
   a, b, c, ...), so drift on the host during the run lands on every
   row alike instead of on whichever was timed last, and the gate takes
   the ratio within each round ([round_ratios]).  [measure] is the
   one-row case. *)

let min_repeat_seconds = 0.2
let full_repeats = 5

type measured = {
  domains : int;
  ops_per_repeat : int;
  seconds : float array;  (** one per repeat *)
  rates : float array;  (** ops/s, one per repeat *)
  median : float;  (** ops/s, as are [min] and [max] *)
  min : float;
  max : float;
  oversubscribed : bool;
}

let median xs =
  let s = Array.copy xs in
  Array.sort compare s;
  s.(Array.length s / 2)

let measure_rounds ?(smoke = false) ~domains ~ops runs =
  let longer ops = Cn_runtime.Harness.next_calibration_ops ~domains ~ops_per_domain:ops in
  let rec calibrate run ops =
    if fst (run ops) >= min_repeat_seconds then ops
    else match longer ops with Some ops -> calibrate run ops | None -> ops
  in
  let runs = Array.of_list runs in
  let opss = Array.map (fun run -> if smoke then ops else calibrate run ops) runs in
  (* [reps.(r).(i)] is round [r] of row [i]. *)
  let rec repeat () =
    let reps =
      Array.init (if smoke then 1 else full_repeats) (fun _ ->
          Array.mapi (fun i run -> run opss.(i)) runs)
    in
    let redo = ref false in
    Array.iteri
      (fun i ops ->
        match longer ops with
        | Some ops when (not smoke) && Array.exists (fun round -> fst round.(i) < min_repeat_seconds) reps ->
            opss.(i) <- ops;
            redo := true
        | _ -> ())
      opss;
    if !redo then repeat () else reps
  in
  let reps = repeat () in
  List.init (Array.length runs) (fun i ->
      let mine = Array.map (fun round -> round.(i)) reps in
      let rates = Array.map (fun (s, n) -> float_of_int n /. Float.max s 1e-9) mine in
      {
        domains;
        ops_per_repeat = domains * opss.(i);
        seconds = Array.map fst mine;
        rates;
        median = median rates;
        min = Array.fold_left Float.min infinity rates;
        max = Array.fold_left Float.max 0. rates;
        oversubscribed = domains > nproc;
      })

let measure ?smoke ~domains ~ops run = List.hd (measure_rounds ?smoke ~domains ~ops [ run ])

(* [num]'s rate over [den]'s in each round, summarised as median, min
   and max. *)
type ratio = { r_median : float; r_min : float; r_max : float }

let round_ratios num den =
  let rs = Array.map2 (fun a b -> a /. Float.max b 1e-9) num.rates den.rates in
  {
    r_median = median rs;
    r_min = Array.fold_left Float.min infinity rs;
    r_max = Array.fold_left Float.max 0. rs;
  }

let ratio_json r =
  obj
    [
      ("median", Printf.sprintf "%.3f" r.r_median);
      ("min", Printf.sprintf "%.3f" r.r_min);
      ("max", Printf.sprintf "%.3f" r.r_max);
    ]

let measured_fields m =
  let rate = Printf.sprintf "%.1f" in
  [
    ("domains", string_of_int m.domains);
    ("ops_per_repeat", string_of_int m.ops_per_repeat);
    ("repeats", string_of_int (Array.length m.seconds));
    ( "seconds",
      Printf.sprintf "[%s]"
        (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.6f") m.seconds))) );
    ("ops_per_sec", obj [ ("median", rate m.median); ("min", rate m.min); ("max", rate m.max) ]);
    ("oversubscribed", string_of_bool m.oversubscribed);
  ]

let timing_note ?(smoke = false) () =
  if smoke then line "timing: smoke, one repeat per row at fixed op counts"
  else
    line "timing: median of %d repeats of >= %.0f ms; rows with more than %d domains are \
          oversubscribed"
      full_repeats (min_repeat_seconds *. 1e3) nproc

(* The [run] of a shared-counter row: Harness.throughput on a fresh
   counter. *)
let counter_run ~pool ~make ~domains ops =
  let r = Cn_runtime.Harness.throughput ~pool ~make ~domains ~ops_per_domain:ops () in
  (r.Cn_runtime.Harness.seconds, r.Cn_runtime.Harness.total_ops)

(* A table with one row per counter and one median-rate column per
   domain count, starting from [ops_total / domains] ops per domain;
   returns every cell's measurement. *)
let sweep ?smoke ~ops_total ~domain_counts counters =
  line "%-14s %s" "counter"
    (String.concat " "
       (List.map (fun d -> Printf.sprintf "%11s" (Printf.sprintf "%dd ops/s" d)) domain_counts));
  List.concat_map
    (fun (name, run) ->
      let cells =
        List.map
          (fun domains -> measure ?smoke ~domains ~ops:(ops_total / domains) (run ~domains))
          domain_counts
      in
      line "%-14s %s" name
        (String.concat " " (List.map (fun m -> Printf.sprintf "%11.0f" m.median) cells));
      List.map (fun m -> (name, m)) cells)
    counters

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
  timing_note ();
  let w = 8 in
  let of_topology net () = Cn_runtime.Shared_counter.of_topology net in
  Cn_runtime.Domain_pool.with_pool 8 (fun pool ->
      let counter make = counter_run ~pool ~make in
      ignore
        (sweep ~ops_total:20_000 ~domain_counts:[ 1; 2; 4; 8 ]
           [
             ("central-faa", counter Cn_runtime.Shared_counter.central_faa);
             ("lock", counter Cn_runtime.Shared_counter.with_lock);
             ("bitonic-8", counter (of_topology (Cn_baselines.Bitonic.network w)));
             ("periodic-8", counter (of_topology (Cn_baselines.Periodic.network w)));
             ("C(8,8)", counter (of_topology (C.network ~w ~t:w)));
             ("C(8,24)", counter (of_topology (C.wide w)));
             ("C(8,64)", counter (of_topology (C.network ~w ~t:64)));
           ]);
      line "CAS-retry failures per op at 8 domains (contention witness):";
      List.iter
        (fun (name, net) ->
          let rt = Cn_runtime.Network_runtime.compile ~mode:Cn_runtime.Network_runtime.Cas net in
          ignore
            (Cn_runtime.Domain_pool.run pool ~domains:8 (fun pid ->
                 for _ = 1 to 2000 do
                   ignore (Cn_runtime.Network_runtime.traverse rt ~wire:(pid mod T.input_width net))
                 done));
          line "  %-12s %.4f" name
            (float_of_int (Cn_runtime.Network_runtime.cas_failures rt) /. 16000.))
        [
          ("bitonic-8", Cn_baselines.Bitonic.network w);
          ("C(8,8)", C.network ~w ~t:8);
          ("C(8,24)", C.wide w);
        ])

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
(* runtime: the compiled counting networks against the central-FAA and
   lock baselines across 1-8 domains, plus the batched walk, reusing
   one warmed domain pool for every cell; records the "runtime" section
   of BENCH_runtime.json.                                               *)

let runtime ?(smoke = false) () =
  header "runtime  network vs central baselines and the batched walk (BENCH_runtime.json)";
  timing_note ~smoke ();
  let module RT = Cn_runtime.Network_runtime in
  let module DP = Cn_runtime.Domain_pool in
  let module SC = Cn_runtime.Shared_counter in
  let w = 16 in
  let ops_total = if smoke then 4_000 else 64_000 in
  let c16 = C.network ~w ~t:w in
  let name = Printf.sprintf "C(%d,%d)" w w in
  let results =
    DP.with_pool 8 (fun pool ->
        let counter make = counter_run ~pool ~make in
        (* Each domain walks its quota over a freshly compiled network
           in batches of the service's default [max_batch] (64), the
           longest batch a combiner hands the network: one batch of the
           whole quota would time the count walk's value hand-out, not
           its balancer visits. *)
        let walk traverse ~domains n =
          let rt = RT.compile c16 in
          let chunked pid =
            let left = ref n in
            while !left > 0 do
              let k = min 64 !left in
              traverse rt pid ~n:k;
              left := !left - k
            done
          in
          (DP.run pool ~domains chunked, domains * n)
        in
        let discard _ _ = () in
        sweep ~smoke ~ops_total ~domain_counts:[ 1; 2; 4; 8 ]
          [
            (name, counter (fun () -> SC.of_topology c16));
            ( Printf.sprintf "bitonic-%d" w,
              counter (fun () -> SC.of_topology (Cn_baselines.Bitonic.network w)) );
            ("central-faa", counter SC.central_faa);
            ("lock", counter SC.with_lock);
            ( name ^ "+batch",
              walk (fun rt pid ~n -> RT.traverse_batch rt ~wire:(pid mod w) ~n ~f:discard) );
          ])
  in
  (* Observability pass: one metrics-instrumented CAS run on C(16,16)
     at 4 domains.  The validator runs Strict — any lost update or
     broken step property fails the whole sweep — and the per-layer
     stall profile (the empirical shape Theorem 6.7 bounds) is printed
     and recorded in BENCH_runtime.json.  Each domain walks its quota
     in batches one short of the crossover, so every token walks on
     its own (the per-token batch loop): the profile measures
     per-token contention, not a count walk's one CAS per balancer. *)
  let metrics_json =
    let rt = RT.compile ~mode:RT.Cas ~metrics:true c16 in
    let domains = 4 in
    let n = ops_total / domains in
    let chunk = RT.batch_crossover c16 - 1 in
    Cn_runtime.Domain_pool.with_pool domains (fun pool ->
        ignore
          (Cn_runtime.Domain_pool.run pool ~domains (fun pid ->
               let left = ref n in
               while !left > 0 do
                 let k = min chunk !left in
                 RT.traverse_batch rt ~wire:(pid mod w) ~n:k ~f:(fun _ _ -> ());
                 left := !left - k
               done)));
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
  record_section ~smoke "runtime"
    ([
       ("w", string_of_int w);
       ( "results",
         rows (List.map (fun (counter, m) -> obj (("counter", str counter) :: measured_fields m)) results)
       );
       ("metrics", String.trim metrics_json);
     ])

(* ------------------------------------------------------------------ *)
(* service: the Cn_service combining front-end against naive per-op
   traversals, pure-increment and 50/50 inc/dec, at 8 domains on
   C(16,16).  Each service domain pipelines K async submissions per
   round so the elected combiner serves them as one batch — the
   batching the per-op caller cannot express — and the mixed rows let
   elimination pair tokens with antitokens before they reach the
   network.  Records the "service" section of BENCH_runtime.json.       *)

let service ?(smoke = false) () =
  header "service  combining front-end vs naive per-op traverse (BENCH_runtime.json)";
  timing_note ~smoke ();
  let module RT = Cn_runtime.Network_runtime in
  let module DP = Cn_runtime.Domain_pool in
  let module V = Cn_runtime.Validator in
  let module Svc = Cn_service.Service in
  let module W = Cn_service.Workload in
  let w = 16 in
  let c16 = C.network ~w ~t:w in
  let domains = 8 in
  let k = 32 in
  (* per-domain ops; divisible by the round size [k] *)
  let ops = if smoke then 512 else 16_000 in
  let report_json = ref "null" in
  let results, (naive_inc, naive_mixed, batched_inc, batched_mixed) =
    DP.with_pool domains (fun pool ->
        (* Naive baselines: one traverse (or traverse/traverse_decrement
           alternation) per op, strict-validated at quiescence. *)
        let naive ~mixed _runs ops =
          let rt = RT.compile c16 in
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
          V.enforce V.Strict (V.quiescent_runtime rt);
          (s, domains * ops)
        in
        (* Service driver: each domain owns [k] sessions pinned to its
           wire and pipelines one submit per session before awaiting, so
           every round is served as one combined batch.  Each run
           pushes its service stats onto [runs], newest first. *)
        let batched ~mixed ~elim runs ops =
          let svc = Svc.create ~max_batch:k ~elim c16 in
          let sessions =
            Array.init domains (fun pid -> Array.init k (fun _ -> Svc.session ~wire:(pid mod w) svc))
          in
          let rec submit s op =
            match Svc.submit s op with
            | Ok () -> ()
            | Error Svc.Overloaded ->
                Domain.cpu_relax ();
                submit s op
            | Error Svc.Closed -> failwith "service closed mid-bench"
          in
          let s =
            DP.run pool ~domains (fun pid ->
                let ss = sessions.(pid) in
                for _ = 1 to ops / k do
                  for j = 0 to k - 1 do
                    submit ss.(j) (if mixed && j >= k / 2 then Svc.Dec else Svc.Inc)
                  done;
                  for j = 0 to k - 1 do
                    ignore (Svc.await ss.(j))
                  done
                done)
          in
          ignore (Svc.drain ~policy:V.Strict svc);
          runs := Svc.stats svc :: !runs;
          (s, domains * ops)
        in
        (* Closed-loop workload coverage on the same pool: blocking
           increments/decrements under Zipf skew, metrics-instrumented,
           strict-drained; its combined service+network snapshot is
           embedded in the JSON. *)
        let workload runs ops =
          let svc = Svc.create ~metrics:true ~max_batch:k c16 in
          let spec =
            {
              W.default with
              W.domains;
              ops_per_domain = ops;
              sessions_per_domain = 4;
              dec_ratio = 0.5;
              skew = W.Zipf 1.1;
            }
          in
          let wst = W.run ~pool svc spec in
          ignore (Svc.drain ~policy:V.Strict svc);
          runs := Svc.stats svc :: !runs;
          report_json := Svc.report_json svc;
          (wst.W.seconds, wst.W.completed)
        in
        (* Rows timed together, their repeats round-robin.  A row's
           service stats are those of its last repeat; the stats of all
           its timed repeats come back for the gates. *)
        let timed_rows ?(ops = ops) specs =
          let specs = List.map (fun (name, mix, run) -> (name, mix, ref [], run)) specs in
          let ms =
            measure_rounds ~smoke ~domains ~ops
              (List.map (fun (_, _, runs, run) -> run runs) specs)
          in
          List.map2
            (fun (name, mix, runs, _) m ->
              let timed = List.filteri (fun i _ -> i < Array.length m.seconds) !runs in
              let mean_batch, elim, elim_rate, rejected =
                match timed with
                | st :: _ ->
                    ( st.Svc.mean_batch,
                      st.Svc.total_eliminated_pairs,
                      st.Svc.elimination_rate,
                      st.Svc.total_rejected )
                | [] -> (1., 0, 0., 0)
              in
              line "%-22s %-6s %11.0f ops/s   mean batch %6.2f   eliminated %6d   rejected %d"
                name mix m.median mean_batch elim rejected;
              ( obj
                  ([ ("counter", str name); ("mix", str mix) ]
                  @ measured_fields m
                  @ [
                      ("mean_batch", Printf.sprintf "%.3f" mean_batch);
                      ("eliminated_pairs", string_of_int elim);
                      ("elimination_rate", Printf.sprintf "%.4f" elim_rate);
                      ("rejected", string_of_int rejected);
                    ]),
                (m, timed) ))
            specs ms
        in
        line "%-22s %-6s %d domains x %d ops on C(%d,%d), round size %d" "counter" "mix"
          domains ops w w k;
        (* The four rows the speedups compare share their rounds. *)
        let compared =
          timed_rows
            [
              ("naive-traverse", "inc", naive ~mixed:false);
              ("naive-traverse", "50/50", naive ~mixed:true);
              ("service-batched", "inc", batched ~mixed:false ~elim:true);
              ("service-batched", "50/50", batched ~mixed:true ~elim:true);
            ]
        in
        let noelim = timed_rows [ ("service-noelim", "50/50", batched ~mixed:true ~elim:false) ] in
        let others =
          noelim @ timed_rows ~ops:(ops / 4) [ ("service-workload", "50/50", workload) ]
        in
        match compared with
        | [ naive_inc; naive_mixed; batched_inc; batched_mixed ] ->
            ( List.map fst (compared @ others),
              (snd naive_inc, snd naive_mixed, snd batched_inc, snd batched_mixed) )
        | _ -> assert false)
  in
  (* Acceptance gates on the timed repeats' medians: the mixed service
     run must actually eliminate, and batched-service throughput must
     beat the matched naive baseline. *)
  let mixed_elims =
    median
      (Array.of_list
         (List.map (fun st -> float_of_int st.Svc.total_eliminated_pairs) (snd batched_mixed)))
  in
  if mixed_elims <= 0. then die "service bench: expected > 0 eliminated pairs in the mixed run";
  let speedup (batched, _) (naive, _) = round_ratios batched naive in
  let speedup_inc = speedup batched_inc naive_inc in
  let speedup_mixed = speedup batched_mixed naive_mixed in
  line "speedup vs naive per round: mixed 50/50 median %.2fx (min %.2f, max %.2f; elimination), \
        pure-inc rows recorded"
    speedup_mixed.r_median speedup_mixed.r_min speedup_mixed.r_max;
  if speedup_mixed.r_median < 1. then
    if smoke then
      (* One short repeat is too noisy to gate on. *)
      line "note: smoke timing too short to gate on; full run enforces the comparison"
    else die "service bench: mixed service run did not beat the naive baseline";
  record_section ~smoke "service"
    [
      ("net", str (Printf.sprintf "C(%d,%d)" w w));
      ("domains", string_of_int domains);
      ("round", string_of_int k);
      ("results", rows results);
      ("speedup_mixed_vs_naive", ratio_json speedup_mixed);
      ("speedup_inc_vs_naive", ratio_json speedup_inc);
      ("report", String.trim !report_json);
    ]

(* ------------------------------------------------------------------ *)
(* fabric: the sharded counter fabric — shard-scaling sweep at
   1/2/4 shards of C(8,8) under 8 domains, their repeats round-robin,
   plus a hot-resize-under-load row: shard 0 of the 4-shard fabric
   swapped C(8,8) -> C(16,16) mid-run with token conservation asserted
   at the Strict drain.  Records the "fabric" section of
   BENCH_runtime.json.                                                  *)

let fabric ?(smoke = false) () =
  header "fabric  sharded counter fabric: shard scaling + hot resize (BENCH_runtime.json)";
  timing_note ~smoke ();
  let module DP = Cn_runtime.Domain_pool in
  let module V = Cn_runtime.Validator in
  let module Fab = Cn_fabric.Fabric in
  let w = 8 in
  let net = C.network ~w ~t:w in
  let domains = 8 in
  let sessions_per = 4 in
  let ops = if smoke then 400 else 8_000 in
  let shard_counts = [ 1; 2; 4 ] in
  (* One run of a configuration: [domains] domains each driving
     [sessions_per] keyed sessions round-robin, pure increments with
     Overloaded retry.  [resize_mid] makes domain 0 hot-swap shard 0 to
     C(16,16) halfway through its op budget while the other domains keep
     submitting.  Conservation (global read = completed
     increments) and a Strict shutdown gate every run.  The shard
     dimensions and Closed refusals of the latest run go to [last], for
     its row. *)
  let run_config pool name ~shards ~resize_mid last ops =
    let fab = Fab.create ~validate:V.Strict ~elim:false ~shards net in
    let completed = Array.make domains 0 in
    let refused = Array.make domains 0 in
    let resize_failed = ref false in
    let s =
      DP.run pool ~domains (fun pid ->
          let sessions =
            Array.init sessions_per (fun k -> Fab.session ~key:((pid * sessions_per) + k) fab)
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
              | Error Fab.Closed -> refused.(pid) <- refused.(pid) + 1
            in
            go ()
          done)
    in
    if !resize_failed then die "fabric bench: hot resize under load failed";
    let done_ops = Array.fold_left ( + ) 0 completed in
    let value = Fab.read fab in
    if value <> done_ops then
      die "fabric bench: %s lost tokens (read %d, completed %d)" name value done_ops;
    if resize_mid && (Fab.shard_gen fab 0 <> 1 || (Fab.shard_info fab 0).Fab.width <> 16) then
      die "fabric bench: shard 0 did not land on C(16,16) gen 1";
    let report = Fab.shutdown ~policy:V.Strict fab in
    if not (V.passed report) then
      die "fabric bench: Strict shutdown failed for %s: %s" name (V.summary report);
    last :=
      ( String.concat "+"
          (List.map
             (fun (i : Fab.shard_info) -> Printf.sprintf "C(%d,%d)" i.Fab.width i.Fab.out_width)
             (Fab.shard_infos fab)),
        Array.fold_left ( + ) 0 refused );
    (s, done_ops)
  in
  line "%d domains x %d ops, %d sessions/domain" domains ops sessions_per;
  let fixed, resized =
    DP.with_pool domains (fun pool ->
        (* Rows timed together, their repeats round-robin. *)
        let timed_rows name ~resize_mid shard_counts =
          let specs = List.map (fun shards -> (shards, ref ("", 0))) shard_counts in
          let ms =
            measure_rounds ~smoke ~domains ~ops
              (List.map
                 (fun (shards, last) -> run_config pool name ~shards ~resize_mid last)
                 specs)
          in
          List.map2
            (fun (shards, last) m ->
              let dims, rejected = !last in
              line "%-18s %d shard%s %-22s %11.0f ops/s   %d rejected%s" name shards
                (if shards = 1 then " " else "s")
                dims m.median rejected
                (if resize_mid then "   (hot-resized)" else "");
              ( obj
                  ([ ("config", str name); ("shards", string_of_int shards); ("dims", str dims) ]
                  @ measured_fields m
                  @ [
                      ("rejected", string_of_int rejected);
                      ("hot_resized", string_of_bool resize_mid);
                    ]),
                m ))
            specs ms
        in
        let fixed = timed_rows "fixed" ~resize_mid:false shard_counts in
        let resized = List.hd (timed_rows "resize-under-load" ~resize_mid:true [ 4 ]) in
        (List.combine shard_counts fixed, resized))
  in
  let fixed_m shards = snd (List.assoc shards fixed) in
  let measured_4v1 = round_ratios (fixed_m 4) (fixed_m 1) in
  line "shard scaling 4 vs 1 per round: median %.2fx (min %.2f, max %.2f)"
    measured_4v1.r_median measured_4v1.r_min measured_4v1.r_max;
  if measured_4v1.r_median < 1. then
    if smoke then
      (* One short repeat is too noisy to gate on. *)
      line "note: smoke timing too short to gate on; full run enforces the comparison"
    else die "fabric bench: 4-shard fabric did not beat the single shard";
  record_section ~smoke "fabric"
    [
      ("net", str (Printf.sprintf "C(%d,%d)" w w));
      ("domains", string_of_int domains);
      ("sessions_per_domain", string_of_int sessions_per);
      ("results", rows (List.map (fun (_, (json, _)) -> json) fixed @ [ fst resized ]));
      ("scaling_4v1_measured", ratio_json measured_4v1);
    ]

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
      (* Set-up of a served counter: building C(16,16), and the
         certificate a fabric demands of it. *)
      Test.make ~name:"build-C(16,16)" (Staged.stage (fun () -> C.network ~w:16 ~t:16));
      (let net = C.network ~w:16 ~t:16 in
       Test.make ~name:"certify-C(16,16)"
         (Staged.stage (fun () -> Cn_fabric.Fabric.certify_topology net)));
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

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6); ("e7", e7);
    ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12); ("e13", e13); ("e14", e14);
  ]

let () =
  match Sys.argv with
  | [| _ |] -> List.iter (fun (_, experiment) -> experiment ()) experiments
  | [| _; id |] when List.mem_assoc id experiments -> (List.assoc id experiments) ()
  | [| _; "micro" |] -> micro ()
  | [| _; "runtime" |] -> runtime ()
  | [| _; "runtime"; "--smoke" |] -> runtime ~smoke:true ()
  | [| _; "service" |] -> service ()
  | [| _; "service"; "--smoke" |] -> service ~smoke:true ()
  | [| _; "fabric" |] -> fabric ()
  | [| _; "fabric"; "--smoke" |] -> fabric ~smoke:true ()
  | _ ->
      prerr_endline
        "usage: main.exe [e1|...|e14|micro|runtime [--smoke]|service [--smoke]|fabric \
         [--smoke]]";
      exit 2
