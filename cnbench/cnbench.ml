(* cnbench: the repository's benchmark of record.

     cnbench run [--workload NAME]... [--seed N] [--seconds S] [--smoke]
                 [--trace [0|1]] [--ladder] [--countnetd PATH] [--out DIR]
     cnbench echo

   [run] measures each workload (all four by default) in five repeats,
   each on a freshly set-up counter: set-up, warm-up, measurement, then
   the correctness gates.  It prints every metric by name with its unit,
   writes DIR/run.json (default cnbench/results), and ends its output
   with one JSON line {"correct", "attempted", "failed", "metrics"}: the
   end-to-end metrics, or with --trace 1 the per-layer ones.  It exits 1
   when a gate fails.  [echo] is the loopback peer the traced run
   measures the kernel floor against.  See cnbench/README.md. *)

module Client = Cn_proto.Client
module Frame = Cn_proto.Frame
module Svc = Cn_service.Service
module RT = Cn_runtime.Network_runtime
module V = Cn_runtime.Validator
module Pool = Cn_runtime.Domain_pool

let now = Cn_runtime.Clock.now_ns
let schema_version = 2

(* Read before any thread is pinned: the count follows the calling
   thread's CPU set. *)
let nproc = Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* Load shape. *)

let repeats = 5
let rate = 40_000. (* open-loop offered load, ops/s *)
let window = 32 (* closed-loop requests in flight per connection *)
let conns = 1
let domains = 2

(* Every throughput and latency is taken in slices of [slice_s], pooled
   over the repeats.  The rest of a shared host only ever slows a slice,
   and it does so for seconds at a time, so an end-to-end metric is the
   quartile of its samples on its better side: the upper quartile of a
   throughput, the lower quartile of a time. *)
let slice_s = 0.2

let reported name (s : Stats.summary) = if name = "capacity_ops_s" then s.q3 else s.q1

let lag_limit_us = 200.
let trace_every = 64
let ladder_rates = [ 20_000.; 40_000.; 80_000.; 160_000.; 320_000. ]
let default_seconds = 20.
let smoke_seconds = 0.25

type cfg = {
  seed : int;
  seconds : float;  (* measured time per workload, split over the repeats *)
  smoke : bool;
  trace : bool;
  ladder : bool;
  out_dir : string;
  countnetd : string;
  exe : string;
  only : string list;
}

(* A wire repeat is an open-loop phase then a capacity phase of the
   same length; the warm-up is spread over the repeats. *)
let repeat_s cfg = cfg.seconds /. float_of_int repeats
let open_s cfg = repeat_s cfg /. 2.
let cap_s cfg = repeat_s cfg /. 2.
let warm_s cfg = if cfg.smoke then 0. else 2. /. float_of_int repeats
let setups cfg = if cfg.smoke then 2 else 5 (* set-ups timed per repeat *)
let ladder_s cfg = if cfg.smoke then 0.05 else 2.

type wire_spec = { shards : int option; mix : Wire.mix; distinct : bool }
type kind = Wire of wire_spec | Combine | Traverse
type workload = { name : string; kind : kind }

let workloads =
  [
    {
      name = "wire-inc";
      kind = Wire { shards = None; mix = { dec = 0.; read = 0. }; distinct = true };
    };
    {
      name = "wire-mixed-fabric";
      kind = Wire { shards = Some 4; mix = { dec = 0.35; read = 0.10 }; distinct = false };
    };
    { name = "inproc-combine"; kind = Combine };
    { name = "inproc-traverse"; kind = Traverse };
  ]

let end_to_end =
  [ ("setup_s", "s"); ("capacity_ops_s", "ops/s"); ("p50_us", "us"); ("p95_us", "us") ]

(* The per-layer metrics every traced workload reports.  A layer the
   workload does not pass through is measured by its probe, or reads 0
   (no service) or 1 (one shard). *)
let per_layer =
  [
    ("gen.cpu_us_per_op", "us");
    ("proto.frame.encode_ns_per_op", "ns");
    ("proto.frame.decode_ns_per_op", "ns");
    ("proto.frame.bytes_per_op", "B");
    ("proto.server.cpu_us_per_op", "us");
    ("proto.server.ctx_switches_per_op", "1/op");
    ("proto.server.threads", "count");
    ("proto.server.rss_kb", "kB");
    ("proto.server.wait_p50_us", "us");
    ("proto.client.replies_per_read", "count");
    ("kernel.loopback_rtt_p50_us", "us");
    ("service.mean_batch", "ops/batch");
    ("service.elimination_rate", "ratio");
    ("service.rejected_per_op", "ratio");
    ("network.traverse_ns_per_op", "ns");
    ("network.minor_words_per_op", "words");
    ("network.token_p50_ns", "ns");
    ("network.token_p99_ns", "ns");
    ("network.stalls_per_token", "1/token");
  ]
  @ List.init 10 (fun i -> (Printf.sprintf "network.layer_stalls.L%d" (i + 1), "1/token"))
  @ [
      ("network.sim_stalls_per_token", "1/token");
      ("fabric.shard_imbalance", "ratio");
      ("setup.compile_ms", "ms");
      ("setup.certify_ms", "ms");
    ]

let unit_of name = List.assoc name (end_to_end @ per_layer)

(* ------------------------------------------------------------------ *)
(* Results and gates. *)

type gate = { gate : string; ok : bool; detail : string }

let gate gate ok detail = { gate; ok; detail }

let print_gate g =
  Printf.printf "  [%s] %s: %s\n" (if g.ok then " ok " else "FAIL") g.gate g.detail

let print_validity g =
  Printf.printf "  [%s] %s: %s\n" (if g.ok then " ok " else "warn") g.gate g.detail

let no_failures ~attempted ~failed =
  gate "no operation failed" (failed = 0) (Printf.sprintf "%d of %d failed" failed attempted)

(* Every repeat runs the same checks on its own counter; a check folds
   into one line that names its first failure. *)
let merge_gates gates =
  let names =
    List.fold_left (fun acc g -> if List.mem g.gate acc then acc else acc @ [ g.gate ]) [] gates
  in
  List.map
    (fun name ->
      let gs = List.filter (fun g -> g.gate = name) gates in
      let bad = List.filter (fun g -> not g.ok) gs in
      let shown = match bad with g :: _ -> g | [] -> List.nth gs (List.length gs - 1) in
      let passed = List.length gs - List.length bad in
      {
        shown with
        ok = bad = [];
        detail = Printf.sprintf "%s [%d of %d passed]" shown.detail passed (List.length gs);
      })
    names

type result = {
  name : string;
  e2e : (string * float array array) list;  (* metric -> per repeat, its slices *)
  layer : (string * float) list;
  diag : (string * Json.t) list;
  gates : gate list;  (* the counter's outputs are correct *)
  validity : gate list;  (* the load was what it should be; a host stall can break it *)
  attempted : int;
  failed : int;
  load_threads : int;  (* generator threads or domains the benchmark loads with *)
}

let median_of f xs = Stats.median (Array.map f xs)
let pooled per_repeat = Array.concat (Array.to_list per_repeat)
let contains s sub = Wire.find_sub s sub <> None

let last_line s =
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""

(* ------------------------------------------------------------------ *)
(* Traced-run layer probes, shared by every workload. *)

let op_stream cfg kind n =
  let rng = Random.State.make [| cfg.seed; 0x636f6463 |] in
  match kind with
  | Wire { mix; _ } ->
      let balance = ref 0 in
      Array.init n (fun _ ->
          let r = Random.State.float rng 1. in
          if r < mix.read then Frame.Read
          else if r < mix.read +. mix.dec && !balance > 0 then begin
            decr balance;
            Frame.Dec
          end
          else begin
            incr balance;
            Frame.Inc
          end)
  | Combine -> Array.init n (fun i -> if i land 1 = 0 then Frame.Inc else Frame.Dec)
  | Traverse -> Array.make n Frame.Inc

let probe_layers cfg kind pool =
  let seconds = if cfg.smoke then 0.05 else 0.5 in
  let codec = Probes.codec (op_stream cfg kind (if cfg.smoke then 10_000 else 100_000)) in
  let net = Probes.network pool ~seconds ~seed:cfg.seed in
  let c16 = Probes.c16 () in
  let round_trips = if cfg.smoke then 200 else 5000 in
  let layer_stall i = if i < Array.length net.layer_stalls then net.layer_stalls.(i) else 0. in
  [
    ("proto.frame.encode_ns_per_op", codec.encode_ns);
    ("proto.frame.decode_ns_per_op", codec.decode_ns);
    ("proto.frame.bytes_per_op", codec.bytes_per_op);
    ("kernel.loopback_rtt_p50_us", Wire.loopback_rtt_p50_us ~exe:cfg.exe ~round_trips);
    ("network.traverse_ns_per_op", net.traverse_ns);
    ("network.minor_words_per_op", net.minor_words);
    ("network.token_p50_ns", net.token_p50_ns);
    ("network.token_p99_ns", net.token_p99_ns);
    ("network.stalls_per_token", net.stalls_per_token);
  ]
  @ List.init 10 (fun i -> (Printf.sprintf "network.layer_stalls.L%d" (i + 1), layer_stall i))
  @ [
      ("network.sim_stalls_per_token", net.sim_stalls_per_token);
      ("setup.compile_ms", Probes.compile_ms c16);
      ("setup.certify_ms", Probes.certify_ms c16);
    ]

(* Prints each span's self time, writes the spans, and checks that a
   root's children account for it. *)
let trace_report cfg name stores ~baseline ~traced =
  let s = Trace.summarize stores in
  let mean ns (v : Trace.name_summary) = float_of_int ns /. float_of_int v.spans in
  Printf.printf "  trace: %d sampled roots, children cover %.2f%% of them (%.1f%% within 5%%)\n"
    s.roots (100. *. s.coverage) (100. *. s.within_5pct);
  Printf.printf "    %-18s %8s %12s %12s\n" "span" "count" "mean ns" "self ns";
  List.iter
    (fun (k, (v : Trace.name_summary)) ->
      Printf.printf "    %-18s %8d %12.0f %12.0f\n" k v.spans (mean v.total_ns v)
        (mean v.self_ns v))
    s.by_name;
  let overhead = 100. *. (baseline -. traced) /. baseline in
  Printf.printf "  trace.overhead_pct %.2f (untraced %.0f vs traced %.0f ops/s)\n" overhead baseline
    traced;
  Trace.write_jsonl (Filename.concat cfg.out_dir (Printf.sprintf "trace-%s.jsonl" name)) stores;
  ( gate "trace children sum to their roots within 5%"
      (s.roots > 0 && Float.abs (1. -. s.coverage) <= 0.05)
      (Printf.sprintf "coverage %.4f over %d roots" s.coverage s.roots),
    [
      ("trace.overhead_pct", Json.Num overhead);
      ("trace.coverage", Json.Num s.coverage);
      ("trace.roots", Json.Num (float_of_int s.roots));
      ("trace.roots_within_5pct", Json.Num s.within_5pct);
      ( "trace.self_ns_per_span",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Num (mean v.Trace.self_ns v))) s.by_name) );
    ] )

(* ------------------------------------------------------------------ *)
(* Wire workloads. *)

type served = { d : Wire.daemon; g : Wire.gen; tally : Wire.tally }

let serve spec ~seed d =
  let tally = Wire.tally ~distinct:spec.distinct in
  { d; tally; g = Wire.connect ~port:d.Wire.port ~conns ~seed ~mix:spec.mix ~tally }

let warm_up s tbl ~seconds =
  if seconds > 0. then begin
    Wire.open_phase s.g tbl ~rate ~seconds:(seconds /. 2.);
    ignore (Wire.window_phase s.g ~window ~seconds:(seconds /. 2.) ~slice_s)
  end

(* The gates at quiescence, the Stats document, then the SIGTERM drain. *)
let finish_served spec s =
  Wire.close s.g;
  let t = s.tally in
  let read, (drain_ok, summary), stats =
    Wire.with_client s.d (fun c ->
        let r = Client.read c in
        let dr = Client.drain c in
        (r, dr, Client.stats c))
  in
  let code, log = Wire.stop s.d.proc in
  ( [
      gate "Read equals Inc minus Dec completed" (read = t.incs - t.decs)
        (Printf.sprintf "read %d, %d Inc, %d Dec" read t.incs t.decs);
    ]
    @ (if spec.distinct then
         [
           gate "every Inc value distinct and below Read" (t.dups = 0 && t.max_inc < read)
             (Printf.sprintf "%d repeated, largest %d" t.dups t.max_inc);
         ]
       else [])
    @ [
        gate "wire Drain ok" drain_ok summary;
        gate "countnetd exits 0 after SIGTERM with drain ok"
          (code = 0 && contains log "drain ok")
          (Printf.sprintf "exit %d: %s" code (last_line log));
      ],
    stats )

(* Totals over the service shards in a Stats document. *)
let service_layers stats =
  let shards =
    match Json.path [ "report"; "service" ] (Json.parse stats) with
    | Some (Json.Arr l) -> List.filter_map (Json.member "service") l
    | Some (Json.Obj _ as s) -> [ s ]
    | _ -> failwith "Stats reply has no service section"
  in
  let get k s = Option.value (Json.to_num (Json.member k s)) ~default:0. in
  let sum k = List.fold_left (fun acc s -> acc +. get k s) 0. shards in
  let ops = sum "ops_combined" in
  let busiest = List.fold_left (fun acc s -> Float.max acc (get "ops_combined" s)) 0. shards in
  let ratio a b = if b = 0. then 0. else a /. b in
  [
    ("service.mean_batch", ratio ops (sum "batches"));
    ("service.elimination_rate", ratio (2. *. sum "eliminated_pairs") ops);
    ("service.rejected_per_op", ratio (sum "rejected") ops);
    ("fabric.shard_imbalance", ratio busiest (ops /. float_of_int (List.length shards)));
  ]

type wire_repeat = {
  setup : float array;
  lat : Wire.latency;
  cap : Wire.window_result;
  open_ops : int;
  cap_ops : int;
  srv_open : Procfs.sample;
  srv_cap : Procfs.sample;
  gen_cap : Procfs.sample;
  r_gates : gate list;
  stats : string;
  r_tally : Wire.tally;
}

(* One repeat on a fresh countnetd: set-up, warm-up, the open-loop
   phase, the capacity phase, the gates.  Set-up is timed on [setups]
   fresh daemons; the last one serves the repeat.  The others start on
   either CPU in turn: the host slows one virtual CPU or the other for
   tens of seconds at a time, and countnetd's set-up is a burst of CPU
   work that shows it. *)
let wire_repeat cfg spec args ~seed tbl store =
  let cold_start k =
    let d, t = Wire.timed_start ~cpu:k ~exe:cfg.countnetd args in
    ignore (Wire.stop d.proc);
    t
  in
  let extra = Array.init (setups cfg - 1) cold_start in
  let d, setup = Wire.timed_start ~exe:cfg.countnetd args in
  let setup = Array.append extra [| setup |] in
  let s = serve spec ~seed d in
  warm_up s tbl ~seconds:(warm_s cfg);
  let pid = Some d.proc.Wire.pid in
  let srv0 = Procfs.sample pid in
  Wire.open_phase s.g tbl ~rate ~seconds:(open_s cfg);
  let srv1 = Procfs.sample pid and gen1 = Procfs.sample None in
  let lat = Wire.analyse tbl ~slice_s in
  Option.iter (fun st -> Wire.record_spans st tbl ~every:trace_every) store;
  let ok0 = s.g.oks in
  let cap = Wire.window_phase s.g ~window ~seconds:(cap_s cfg) ~slice_s in
  let srv2 = Procfs.sample pid and gen2 = Procfs.sample None in
  let cap_ops = s.g.oks - ok0 in
  let gates, stats = finish_served spec s in
  {
    setup; lat; cap; open_ops = tbl.n; cap_ops;
    srv_open = Procfs.delta srv0 srv1;
    srv_cap = Procfs.delta srv1 srv2;
    gen_cap = Procfs.delta gen1 gen2;
    r_gates = gates; stats; r_tally = s.tally;
  }

(* Per-layer numbers of the traced wire repeats: the generator and
   countnetd from /proc, the wait from the generator's timestamps, the
   service from the Stats reply. *)
let wire_layers reps =
  let med f = median_of f reps in
  let per_cap_op f r = 1e6 *. f r /. float_of_int (max 1 r.cap_ops) in
  [
    ("gen.cpu_us_per_op", med (per_cap_op (fun r -> r.gen_cap.cpu_s)));
    ("proto.server.cpu_us_per_op", med (per_cap_op (fun r -> r.srv_cap.cpu_s)));
    ( "proto.server.ctx_switches_per_op",
      med (fun r -> float_of_int r.srv_open.ctx_switches /. float_of_int (max 1 r.open_ops)) );
    ("proto.server.threads", med (fun r -> float_of_int r.srv_cap.threads));
    ("proto.server.rss_kb", med (fun r -> float_of_int r.srv_cap.rss_kb));
    ("proto.server.wait_p50_us", med (fun r -> r.lat.wait_p50_us));
    ("proto.client.replies_per_read", med (fun r -> r.cap.replies_per_read));
  ]
  @ List.map
      (fun (k, _) -> (k, med (fun r -> List.assoc k (service_layers r.stats))))
      (service_layers reps.(0).stats)

let run_wire cfg (w : workload) spec =
  let shards = match spec.shards with Some n -> [ "--shards"; string_of_int n ] | None -> [] in
  let args = [ "-w"; "16" ] @ shards in
  let cap = int_of_float (rate *. Float.max (open_s cfg) (warm_s cfg) *. 1.3) + 4096 in
  let tbl = Wire.table ~traced:cfg.trace cap in
  (* A traced run first measures capacity once untraced, for the
     overhead; its repeats run countnetd with the metrics recorder on. *)
  let baseline =
    if not cfg.trace then None
    else begin
      let d, _ = Wire.timed_start ~exe:cfg.countnetd args in
      let s = serve spec ~seed:[| cfg.seed; repeats |] d in
      warm_up s tbl ~seconds:(warm_s cfg);
      let b = Wire.window_phase s.g ~window ~seconds:(cap_s cfg) ~slice_s in
      let gates, _ = finish_served spec s in
      let gates = List.map (fun g -> { g with gate = "untraced server: " ^ g.gate }) gates in
      Some (b.ops_per_s, gates, s.tally)
    end
  in
  let store =
    if cfg.trace then Some (Trace.create (9 * ((cap / trace_every) + 1) * repeats)) else None
  in
  let args = if cfg.trace then args @ [ "--metrics" ] else args in
  let reps =
    Array.init repeats (fun i -> wire_repeat cfg spec args ~seed:[| cfg.seed; i |] tbl store)
  in
  let tallies =
    Array.to_list (Array.map (fun r -> r.r_tally) reps)
    @ Option.to_list (Option.map (fun (_, _, t) -> t) baseline)
  in
  let attempted = List.fold_left (fun a t -> a + t.Wire.attempted) 0 tallies in
  let failed = List.fold_left (fun a t -> a + t.Wire.failed) 0 tallies in
  let lat f = median_of (fun r -> f r.lat) reps in
  let lag = lat (fun l -> l.lag_p99_us) in
  let trace_gate, trace_diag, layer =
    match (store, baseline) with
    | Some st, Some (base, _, _) ->
        let traced = median_of (fun r -> r.cap.ops_per_s) reps in
        let g, d = trace_report cfg w.name [ st ] ~baseline:base ~traced in
        let probes = Pool.with_pool domains (probe_layers cfg w.kind) in
        ([ g ], d, wire_layers reps @ probes)
    | _ -> ([], [], [])
  in
  let num x = Json.Num x in
  {
    name = w.name;
    e2e =
      [
        ("setup_s", Array.map (fun r -> r.setup) reps);
        ("capacity_ops_s", Array.map (fun r -> r.cap.slice_ops_per_s) reps);
        ("p50_us", Array.map (fun r -> r.lat.slice_p50_us) reps);
        ("p95_us", Array.map (fun r -> r.lat.slice_p95_us) reps);
      ];
    layer;
    diag =
      [
        ("samples_per_repeat", num (lat (fun l -> float_of_int l.samples)));
        ("p99_us", num (lat (fun l -> l.p99_us)));
        ("tail_pct", num (lat (fun l -> l.tail_pct)));
        ("tail_us", num (lat (fun l -> l.tail_us)));
        ("max_us", num (lat (fun l -> l.max_us)));
        ("gen.lag_p99_us", num lag);
        ("op.inc_p50_us", num (lat (fun l -> l.inc_p50_us)));
        ("op.dec_p50_us", num (lat (fun l -> l.dec_p50_us)));
        ("op.read_p50_us", num (lat (fun l -> l.read_p50_us)));
        ("op.read_p99_us", num (lat (fun l -> l.read_p99_us)));
        ("offered_ops_s", num rate);
        ("window_per_connection", num (float_of_int window));
        ("connections", num (float_of_int conns));
      ]
      @ trace_diag;
    gates =
      merge_gates
        ((match baseline with Some (_, g, _) -> g | None -> [])
        @ List.concat_map (fun r -> r.r_gates) (Array.to_list reps))
      @ trace_gate
      @ [ no_failures ~attempted ~failed ];
    validity =
      [
        gate "generator kept its schedule (gen.lag_p99_us <= 200)" (lag <= lag_limit_us)
          (Printf.sprintf "median p99 lag %.1f us" lag);
      ];
    attempted;
    failed;
    load_threads = 1;
  }

(* ------------------------------------------------------------------ *)
(* In-process workloads. *)

type built = Built_combine of Inproc.combine | Built_traverse of RT.t

let build ~seed = function
  | Combine -> Built_combine (Inproc.combine_setup ~seed ~domains ())
  | Traverse -> Built_traverse (RT.compile (Cn_core.Counting.network ~w:16 ~t:16))
  | Wire _ -> invalid_arg "build"

type inproc_repeat = {
  i_setup : float array;
  p : Inproc.phase;
  me : Procfs.sample;
  i_gates : gate list;
  service : (string * float) list;
  i_attempted : int;
  rejected : int;
}

let validate name f =
  match f () with
  | report -> gate name (V.passed report) (V.summary report)
  | exception V.Invalid msg -> gate name false msg

(* One repeat on a freshly built counter: set-up (the network and the
   service or runtime), warm-up, the measured phase, the gates. *)
let inproc_repeat cfg (w : workload) pool lanes ~stores =
  Array.iter Inproc.reset lanes;
  (* Time several builds and keep the last.  Each starts on a collected
     heap, so the garbage of earlier repeats is not charged to it. *)
  let built = ref None in
  let setup =
    Array.init (setups cfg) (fun _ ->
        built := None;
        Gc.full_major ();
        let t0 = now () in
        built := Some (build ~seed:cfg.seed w.kind);
        float_of_int (now () - t0) /. 1e9)
  in
  let built = Option.get !built in
  let rt, body =
    match built with
    | Built_combine c -> (Svc.runtime c.svc, Inproc.combine_body c)
    | Built_traverse rt -> (rt, Inproc.traverse_body rt)
  in
  if warm_s cfg > 0. then ignore (Inproc.phase pool lanes ~seconds:(warm_s cfg) ~slice_s body);
  Array.iteri (fun i l -> l.Inproc.store <- Option.map (fun a -> a.(i)) stores) lanes;
  let me0 = Procfs.sample None in
  let p = Inproc.phase pool lanes ~seconds:(repeat_s cfg) ~slice_s body in
  let me = Procfs.delta me0 (Procfs.sample None) in
  Array.iter (fun l -> l.Inproc.store <- None) lanes;
  let sum f = Array.fold_left (fun acc l -> acc + f l) 0 lanes in
  let rejected = sum (fun l -> l.Inproc.rejected) and net = sum (fun l -> l.Inproc.net) in
  let check =
    match built with
    | Built_combine c ->
        validate "Service.drain ~policy:Strict passes" (fun () ->
            Svc.drain ~policy:V.Strict c.svc)
    | Built_traverse rt ->
        validate "Validator.quiescent_runtime passes under Strict" (fun () ->
            let r = V.quiescent_runtime rt in
            V.enforce V.Strict r;
            r)
  in
  let exits = Cn_sequence.Sequence.sum (RT.exit_distribution rt) in
  let service =
    match built with
    | Built_combine c ->
        let st = Svc.stats c.svc in
        [
          ("service.mean_batch", st.mean_batch);
          ("service.elimination_rate", st.elimination_rate);
          ( "service.rejected_per_op",
            float_of_int st.total_rejected /. float_of_int (max 1 st.total_ops) );
        ]
    | Built_traverse _ ->
        List.map (fun k -> (k, 0.))
          [ "service.mean_batch"; "service.elimination_rate"; "service.rejected_per_op" ]
  in
  {
    i_setup = setup; p; me; service; rejected;
    i_attempted = sum (fun l -> l.Inproc.ops) + rejected;
    i_gates =
      [
        check;
        gate "exit distribution sums to Inc minus Dec done" (exits = net)
          (Printf.sprintf "exits %d, net ops %d" exits net);
      ];
  }

(* Per-layer numbers of the traced in-process repeats.  The counter runs
   in the benchmark's own process, so that process stands in for the
   server; there is no socket, so no reply is read. *)
let inproc_layers reps =
  let med f = median_of f reps in
  let per_op f r = f r.me /. float_of_int (max 1 r.p.Inproc.completed) in
  let cpu = 1e6 *. med (per_op (fun me -> me.Procfs.cpu_s)) in
  [
    ("gen.cpu_us_per_op", cpu);
    ("proto.server.cpu_us_per_op", cpu);
    ("proto.server.ctx_switches_per_op", med (per_op (fun me -> float_of_int me.ctx_switches)));
    ("proto.server.threads", med (fun r -> float_of_int r.me.threads));
    ("proto.server.rss_kb", med (fun r -> float_of_int r.me.rss_kb));
    ("proto.server.wait_p50_us", med (fun r -> r.p.Inproc.wait_p50_us));
    ("proto.client.replies_per_read", 0.);
    ("fabric.shard_imbalance", 1.);
  ]
  @ List.map (fun (k, _) -> (k, med (fun r -> List.assoc k r.service))) reps.(0).service

let run_inproc cfg (w : workload) =
  let lane_cap = int_of_float (repeat_s cfg *. 100_000.) + 1024 in
  (* Each worker pins itself; the owner, mostly asleep, goes where it may. *)
  ignore (Procfs.pin_cpu (-1));
  Pool.with_pool domains (fun pool ->
      let lanes = Array.init domains (fun _ -> Inproc.lane ~cap:lane_cap) in
      (* A traced run first measures capacity once untraced, for the
         overhead, and sizes the span stores from its rounds. *)
      let baseline =
        if cfg.trace then Some (inproc_repeat cfg w pool lanes ~stores:None) else None
      in
      let stores =
        Option.map
          (fun base ->
            let rounds = base.p.Inproc.completed / Inproc.round / domains in
            let spans = match w.kind with Traverse -> Inproc.round + 1 | _ -> 3 in
            let cap = (2 * rounds / Inproc.trace_every * spans * repeats) + 1024 in
            Array.init domains (fun _ -> Trace.create cap))
          baseline
      in
      let reps = Array.init repeats (fun _ -> inproc_repeat cfg w pool lanes ~stores) in
      let all = Array.to_list reps @ Option.to_list baseline in
      let attempted = List.fold_left (fun a r -> a + r.i_attempted) 0 all in
      let rejected = List.fold_left (fun a r -> a + r.rejected) 0 all in
      let phase f = Array.map (fun r -> f r.p) reps in
      let trace_gate, trace_diag, layer =
        match (stores, baseline) with
        | Some st, Some base ->
            let traced = median_of (fun r -> r.p.Inproc.ops_per_s) reps in
            let g, d =
              trace_report cfg w.name (Array.to_list st) ~baseline:base.p.ops_per_s ~traced
            in
            ([ g ], d, inproc_layers reps @ probe_layers cfg w.kind pool)
        | _ -> ([], [], [])
      in
      let median_phase f = Json.Num (median_of (fun r -> f r.p) reps) in
      {
        name = w.name;
        e2e =
          [
            ("setup_s", Array.map (fun r -> r.i_setup) reps);
            ("capacity_ops_s", phase (fun p -> p.Inproc.slice_ops_per_s));
            ("p50_us", phase (fun p -> p.Inproc.slice_p50_us));
            ("p95_us", phase (fun p -> p.Inproc.slice_p95_us));
          ];
        layer;
        diag =
          [
            ("rounds_kept_per_repeat", median_phase (fun p -> float_of_int p.Inproc.samples));
            ("p99_us", median_phase (fun p -> p.Inproc.p99_us));
            ("ops_per_round", Json.Num (float_of_int Inproc.round));
          ]
          @ trace_diag;
        gates =
          merge_gates (List.concat_map (fun r -> r.i_gates) all)
          @ trace_gate
          @ [ no_failures ~attempted ~failed:rejected ];
        validity = [];
        attempted;
        failed = rejected;
        load_threads = domains;
      })

(* ------------------------------------------------------------------ *)
(* Ladder: open loop at rising rates on wire-inc; a diagnostic. *)

let run_ladder cfg =
  let spec = match (List.hd workloads).kind with Wire s -> s | _ -> assert false in
  let d = Wire.start_daemon ~exe:cfg.countnetd [ "-w"; "16" ] in
  let s = serve spec ~seed:[| cfg.seed |] d in
  let tbl = Wire.table ~traced:false (int_of_float (rate *. warm_s cfg) + 4096) in
  warm_up s tbl ~seconds:(warm_s cfg);
  Printf.printf "== ladder on wire-inc (seed %d, %.2f s per rate) ==\n" cfg.seed (ladder_s cfg);
  Printf.printf "  %10s %10s %10s %10s %16s %10s %12s\n" "ops/s" "samples" "p50_us" "p99_us"
    "tail_us" "max_us" "lag_p99_us";
  let rows =
    List.map
      (fun r ->
        let tbl = Wire.table ~traced:false (int_of_float (r *. ladder_s cfg *. 1.3) + 4096) in
        Wire.open_phase s.g tbl ~rate:r ~seconds:(ladder_s cfg);
        let l = Wire.analyse tbl ~slice_s in
        Printf.printf "  %10.0f %10d %10.1f %10.1f %16s %10.1f %12.1f\n%!" r l.samples l.p50_us
          l.p99_us
          (Printf.sprintf "%.1f@p%g" l.tail_us l.tail_pct)
          l.max_us l.lag_p99_us;
        (r, l))
      ladder_rates
  in
  let gates, _ = finish_served spec s in
  (rows, gates @ [ no_failures ~attempted:s.tally.attempted ~failed:s.tally.failed ], s.tally)

(* ------------------------------------------------------------------ *)
(* Reporting. *)

let git args =
  if not (Sys.file_exists ".git") then None
  else
    let argv = Array.of_list ("git" :: "--git-dir=.git" :: "--work-tree=." :: args) in
    match Unix.open_process_args_in "git" argv with
    | exception Unix.Unix_error _ -> None
    | ic -> (
        let out = In_channel.input_all ic in
        match Unix.close_process_in ic with Unix.WEXITED 0 -> Some (String.trim out) | _ -> None)

let or_null f = Option.fold ~none:Json.Null ~some:f

let header cfg =
  let tm = Unix.gmtime (Unix.time ()) in
  let timestamp =
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.tm_year + 1900) (tm.tm_mon + 1) tm.tm_mday
      tm.tm_hour tm.tm_min tm.tm_sec
  in
  Json.Obj
    [
      ("schema_version", Json.Num (float_of_int schema_version));
      ("git_revision", or_null (fun r -> Json.Str r) (git [ "rev-parse"; "HEAD" ]));
      ("dirty", or_null (fun s -> Json.Bool (s <> "")) (git [ "status"; "--porcelain" ]));
      ("nproc", Json.Num (float_of_int nproc));
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("timestamp", Json.Str timestamp);
      ("seed", Json.Num (float_of_int cfg.seed));
      ("smoke", Json.Bool cfg.smoke);
      ("trace", Json.Bool cfg.trace);
      ("seconds", Json.Num cfg.seconds);
      ("repeats", Json.Num (float_of_int repeats));
      ("countnetd", Json.Str cfg.countnetd);
    ]

let row_json r =
  let oversubscribed = Json.Bool (r.load_threads > nproc) in
  let metric (name, per_repeat) =
    let s = Stats.summarize (pooled per_repeat) in
    ( name,
      Json.Obj
        [
          ("unit", Json.Str (unit_of name));
          ("value", Json.Num (reported name s));
          ("median", Json.Num s.median);
          ("min", Json.Num s.min);
          ("max", Json.Num s.max);
          ("iqr", Json.Num s.iqr);
          ("slices", Json.Num (float_of_int (Array.length s.values)));
          ( "repeats",
            Json.Arr (Array.to_list (Array.map (fun v -> Json.Num (Stats.median v)) per_repeat)) );
          ("oversubscribed", oversubscribed);
        ] )
  in
  let layer (k, v) = (k, Json.Obj [ ("unit", Json.Str (unit_of k)); ("value", Json.Num v) ]) in
  let gate_json g =
    Json.Obj [ ("gate", Json.Str g.gate); ("ok", Json.Bool g.ok); ("detail", Json.Str g.detail) ]
  in
  Json.Obj
    [
      ("correct", Json.Bool (List.for_all (fun g -> g.ok) r.gates));
      ("valid", Json.Bool (List.for_all (fun g -> g.ok) r.validity));
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("fail_ratio", Json.Num (float_of_int r.failed /. float_of_int (max 1 r.attempted)));
      ("nproc", Json.Num (float_of_int nproc));
      ("load_threads", Json.Num (float_of_int r.load_threads));
      ("oversubscribed", oversubscribed);
      ("metrics", Json.Obj (List.map metric r.e2e));
      ("layers", Json.Obj (List.map layer r.layer));
      ("diagnostics", Json.Obj r.diag);
      ("gates", Json.Arr (List.map gate_json r.gates));
      ("validity", Json.Arr (List.map gate_json r.validity));
    ]

let print_result cfg r =
  Printf.printf "== %s (seed %d, %.2f s measured, %d repeats, %d load %s, nproc %d) ==\n" r.name
    cfg.seed cfg.seconds repeats r.load_threads
    (if r.load_threads = 1 then "thread" else "domains")
    nproc;
  List.iter
    (fun (name, per_repeat) ->
      let s = Stats.summarize (pooled per_repeat) in
      Printf.printf "  %-16s %14.6g %-6s [median %.6g  min %.6g  max %.6g  iqr %.6g  n=%d]\n" name
        (reported name s) (unit_of name) s.median s.min s.max s.iqr (Array.length s.values))
    r.e2e;
  List.iter
    (function
      | k, Json.Num x when Float.is_finite x -> Printf.printf "  %-30s %.6g\n" k x | _ -> ())
    r.diag;
  List.iter (fun (k, v) -> Printf.printf "  %-34s %14.6g %s\n" k v (unit_of k)) r.layer;
  Printf.printf "  attempted %d, failed %d\n" r.attempted r.failed;
  List.iter print_gate r.gates;
  List.iter print_validity r.validity;
  flush stdout

(* run.json must parse with no duplicate key and hold every workload x
   metric it promises. *)
let check_record path results ~trace =
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | exception Json.Error e -> gate "run.json parses without duplicate keys" false e
  | j ->
      let need r =
        List.map (fun (m, _) -> [ "workloads"; r.name; "metrics"; m; "value" ]) end_to_end
        @
        if trace then
          List.map (fun (m, _) -> [ "workloads"; r.name; "layers"; m; "value" ]) per_layer
        else []
      in
      let header_keys =
        [ "schema_version"; "git_revision"; "dirty"; "nproc"; "ocaml_version"; "timestamp"; "seed";
          "smoke"; "countnetd" ]
      in
      let missing =
        List.filter
          (fun p -> Json.path p j = None)
          (List.concat_map need results @ List.map (fun k -> [ "header"; k ]) header_keys)
      in
      gate "run.json parses and is complete" (missing = [])
        (if missing = [] then path
         else "missing " ^ String.concat ", " (List.map (String.concat ".") missing))

let write_json path v =
  Out_channel.with_open_bin path (fun oc -> output_string oc (Json.to_string ~indent:3 v ^ "\n"))

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let final_line ~correct ~attempted ~failed metrics =
  let metric (k, u, v) = (k, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]) in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ("metrics", Json.Obj (List.map metric metrics));
       ])

let run_ladder_record cfg path =
  let rows, gates, tally = run_ladder cfg in
  List.iter print_gate gates;
  let fields (l : Wire.latency) =
    [
      ("p50_us", l.p50_us); ("p99_us", l.p99_us); ("tail_us", l.tail_us); ("max_us", l.max_us);
      ("gen.lag_p99_us", l.lag_p99_us);
    ]
  in
  let row (r, l) =
    ( Printf.sprintf "%.0f" r,
      Json.Obj
        (("samples", Json.Num (float_of_int l.Wire.samples))
        :: ("tail_pct", Json.Num l.tail_pct)
        :: List.map (fun (k, v) -> (k, Json.Num v)) (fields l)) )
  in
  write_json path (Json.Obj [ ("header", header cfg); ("ladder", Json.Obj (List.map row rows)) ]);
  let correct = List.for_all (fun g -> g.ok) gates in
  let metrics =
    List.concat_map
      (fun (r, l) ->
        List.map (fun (k, v) -> (Printf.sprintf "ladder.%.0f.%s" r k, "us", v)) (fields l))
      rows
  in
  print_endline (final_line ~correct ~attempted:tally.attempted ~failed:tally.failed metrics);
  correct

let run_workloads cfg path =
  let chosen =
    List.filter (fun (w : workload) -> cfg.only = [] || List.mem w.name cfg.only) workloads
  in
  let run_one (w : workload) =
    let r =
      try
        match w.kind with
        | Wire spec -> run_wire cfg w spec
        | Combine | Traverse -> run_inproc cfg w
      with e ->
        Wire.kill_children ();
        {
          name = w.name; e2e = []; layer = []; diag = [];
          gates = [ gate "workload ran to the end" false (Printexc.to_string e) ];
          validity = []; attempted = 1; failed = 1; load_threads = 1;
        }
    in
    print_result cfg r;
    r
  in
  let results = List.map run_one chosen in
  let workloads_json = Json.Obj (List.map (fun r -> (r.name, row_json r)) results) in
  write_json path (Json.Obj [ ("header", header cfg); ("workloads", workloads_json) ]);
  let record = check_record path results ~trace:cfg.trace in
  print_gate record;
  let correct = record.ok && List.for_all (fun r -> List.for_all (fun g -> g.ok) r.gates) results in
  let name r k = if List.length results = 1 then k else r.name ^ "/" ^ k in
  let metrics r =
    if cfg.trace then List.map (fun (k, v) -> (name r k, unit_of k, v)) r.layer
    else
      List.map
        (fun (k, vs) -> (name r k, unit_of k, reported k (Stats.summarize (pooled vs))))
        r.e2e
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  print_endline
    (final_line ~correct
       ~attempted:(sum (fun r -> r.attempted))
       ~failed:(sum (fun r -> r.failed))
       (List.concat_map metrics results));
  correct

let run cfg =
  mkdir_p cfg.out_dir;
  let path = Filename.concat cfg.out_dir "run.json" in
  if cfg.ladder then run_ladder_record cfg path else run_workloads cfg path

(* ------------------------------------------------------------------ *)
(* Command line. *)

let usage =
  "usage: cnbench run [--workload NAME]... [--seed N] [--seconds S] [--smoke]\n\
  \                   [--trace [0|1]] [--ladder] [--countnetd PATH] [--out DIR]\n\
  \       cnbench echo\n\
   workloads: wire-inc, wire-mixed-fabric, inproc-combine, inproc-traverse"

let die msg =
  prerr_endline ("cnbench: " ^ msg);
  prerr_endline usage;
  exit 2

(* Paths under the working directory are kept relative, so run.json does
   not depend on where the checkout lives. *)
let relative path =
  let cwd = Sys.getcwd () ^ Filename.dir_sep in
  if String.starts_with ~prefix:cwd path then
    String.sub path (String.length cwd) (String.length path - String.length cwd)
  else path

let parse_run args =
  let exe = relative Sys.executable_name in
  let build_dir = Filename.concat (Filename.dirname exe) Filename.parent_dir_name in
  let default_countnetd = Filename.concat build_dir "bin/countnetd.exe" in
  let seed = ref 1 and seconds = ref None and smoke = ref false in
  let trace = ref false and ladder = ref false and only = ref [] in
  let out = ref "cnbench/results" and countnetd = ref default_countnetd in
  let rec go = function
    | [] -> ()
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n -> seed := n
        | None -> die "--seed expects an integer");
        go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0. -> seconds := Some s
        | _ -> die "--seconds expects a positive number");
        go rest
    | "--workload" :: v :: rest ->
        if not (List.exists (fun (w : workload) -> w.name = v) workloads) then
          die ("unknown workload " ^ v);
        only := !only @ [ v ];
        go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := v = "1";
        go rest
    | "--trace" :: rest ->
        trace := true;
        go rest
    | "--smoke" :: rest ->
        smoke := true;
        go rest
    | "--ladder" :: rest ->
        ladder := true;
        go rest
    | "--out" :: v :: rest ->
        out := v;
        go rest
    | "--countnetd" :: v :: rest ->
        countnetd := v;
        go rest
    | a :: _ -> die ("unexpected argument " ^ a)
  in
  go args;
  if not (Sys.file_exists !countnetd) then
    die
      (Printf.sprintf
         "no countnetd at %s (build it with dune build ./bin/countnetd.exe, or pass --countnetd)"
         !countnetd);
  let default = if !smoke then smoke_seconds else default_seconds in
  {
    seed = !seed;
    seconds = Option.value !seconds ~default;
    smoke = !smoke;
    trace = !trace;
    ladder = !ladder;
    out_dir = !out;
    countnetd = !countnetd;
    exe;
    only = !only;
  }

let () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let on_signal _ = exit 130 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  at_exit Wire.kill_children;
  ignore (Procfs.pin_cpu (-1));
  match List.tl (Array.to_list Sys.argv) with
  | [ "echo" ] -> Wire.echo_main ()
  | "run" :: args -> exit (if run (parse_run args) then 0 else 1)
  | _ -> die "expected a subcommand"
