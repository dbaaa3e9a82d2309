(* countnet: command-line interface to the counting-network library.

   Subcommands: draw, depth, verify, simulate, throughput, sort, count,
   iso, save, restore, feasible, latency, check, lint, load.  Those that
   build a network take a family (--family) plus the relevant
   parameters (--width, --out-width, --delta). *)

open Cmdliner

module T = Cn_network.Topology
module E = Cn_network.Eval
module S = Cn_sequence.Sequence

(* ---------------------------------------------------------------- *)
(* Network selection. *)

type family = Cn_lint.Portfolio.family =
  | Counting
  | Bitonic
  | Periodic
  | Diffracting
  | Butterfly_fwd
  | Butterfly_bwd
  | Ladder
  | Merging
  | C_prime

let family_conv =
  let parse = function
    | "c" | "counting" -> Ok Counting
    | "bitonic" -> Ok Bitonic
    | "periodic" -> Ok Periodic
    | "difftree" | "diffracting" -> Ok Diffracting
    | "butterfly" | "dbutterfly" -> Ok Butterfly_fwd
    | "bbutterfly" -> Ok Butterfly_bwd
    | "ladder" -> Ok Ladder
    | "merging" -> Ok Merging
    | "cprime" | "c-prime" -> Ok C_prime
    | s -> Error (`Msg (Printf.sprintf "unknown family %S" s))
  in
  let print ppf f =
    Format.pp_print_string ppf
      (match f with
      | Counting -> "counting"
      | Bitonic -> "bitonic"
      | Periodic -> "periodic"
      | Diffracting -> "difftree"
      | Butterfly_fwd -> "butterfly"
      | Butterfly_bwd -> "bbutterfly"
      | Ladder -> "ladder"
      | Merging -> "merging"
      | C_prime -> "cprime")
  in
  Arg.conv (parse, print)

let family_arg =
  Arg.(
    value
    & opt family_conv Counting
    & info [ "f"; "family" ] ~docv:"FAMILY"
        ~doc:
          "Network family: $(b,counting) (the paper's C(w,t)), $(b,bitonic), $(b,periodic), \
           $(b,difftree), $(b,butterfly) (forward), $(b,bbutterfly) (backward), $(b,ladder), \
           $(b,merging) (M(t,delta)), $(b,cprime) (C'(w,t) = blocks N_a;N_b).")

let width_arg =
  Arg.(value & opt int 8 & info [ "w"; "width" ] ~docv:"W" ~doc:"Input width (a power of two).")

let out_width_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "t"; "out-width" ] ~docv:"T"
        ~doc:"Output width for counting/cprime families (default: w, i.e. the regular network).")

let delta_arg =
  Arg.(
    value
    & opt int 2
    & info [ "delta" ] ~docv:"DELTA" ~doc:"Merging parameter delta for the merging family.")

let build family ~w ~t ~delta =
  let t = match t with Some t -> t | None -> w in
  match family with
  | Counting -> Cn_core.Counting.network ~w ~t
  | Merging -> Cn_core.Merging.network ~t:w ~delta
  | Bitonic -> Cn_baselines.Bitonic.network w
  | Periodic -> Cn_baselines.Periodic.network w
  | Diffracting -> Cn_baselines.Diffracting.network w
  | Butterfly_fwd -> Cn_core.Butterfly.forward w
  | Butterfly_bwd -> Cn_core.Butterfly.backward w
  | Ladder -> Cn_core.Ladder.network w
  | C_prime -> Cn_core.Blocks.c_prime ~w ~t

let network_term =
  let combine family w t delta =
    try Ok (build family ~w ~t ~delta) with Invalid_argument msg -> Error (`Msg msg)
  in
  Term.(term_result (const combine $ family_arg $ width_arg $ out_width_arg $ delta_arg))

(* ---------------------------------------------------------------- *)
(* draw *)

let ascii_flag =
  Arg.(value & flag & info [ "ascii" ] ~doc:"Draw the straightened-wire ASCII diagram instead.")

let dot_flag =
  Arg.(value & flag & info [ "dot" ] ~doc:"Emit a Graphviz digraph instead.")

let svg_flag =
  Arg.(value & flag & info [ "svg" ] ~doc:"Emit a standalone SVG drawing instead.")

let draw_cmd =
  let run net ascii dot svg =
    if dot then print_string (Cn_network.Render.dot net)
    else if svg then print_string (Cn_network.Render.svg net)
    else if ascii then print_string (Cn_network.Render.ascii net)
    else print_string (Cn_network.Render.describe net)
  in
  Cmd.v
    (Cmd.info "draw"
       ~doc:"Print a network's structure (layer listing, ASCII, SVG, or Graphviz).")
    Term.(const run $ network_term $ ascii_flag $ dot_flag $ svg_flag)

(* ---------------------------------------------------------------- *)
(* iso *)

let iso_cmd =
  let second_family =
    Arg.(
      required
      & opt (some family_conv) None
      & info [ "against" ] ~docv:"FAMILY" ~doc:"Second network family to compare against.")
  in
  let run net family2 w t delta =
    match
      try Ok (build family2 ~w ~t ~delta) with Invalid_argument m -> Error m
    with
    | Error m ->
        prerr_endline m;
        exit 1
    | Ok net2 -> (
        match Cn_network.Iso.find net net2 with
        | None ->
            print_endline "not isomorphic (or search exhausted)";
            exit 1
        | Some mapping -> (
            match Cn_network.Iso.check net net2 ~mapping with
            | Error e ->
                Printf.printf "internal: mapping failed validation: %s\n" e;
                exit 1
            | Ok (pi_in, pi_out) ->
                print_endline "isomorphic";
                Format.printf "pi_in:  %a@.pi_out: %a@." Cn_network.Permutation.pp pi_in
                  Cn_network.Permutation.pp pi_out))
  in
  Cmd.v
    (Cmd.info "iso"
       ~doc:"Search for a Section-2.3 isomorphism between two networks of the same parameters \
             (e.g. --family bbutterfly --against butterfly).")
    Term.(const run $ network_term $ second_family $ width_arg $ out_width_arg $ delta_arg)

(* ---------------------------------------------------------------- *)
(* depth *)

let depth_cmd =
  let run net =
    Printf.printf "input width   %d\n" (T.input_width net);
    Printf.printf "output width  %d\n" (T.output_width net);
    Printf.printf "depth         %d\n" (T.depth net);
    Printf.printf "balancers     %d\n" (T.size net);
    Printf.printf "regular       %b\n" (T.is_regular net)
  in
  Cmd.v
    (Cmd.info "depth" ~doc:"Print structural statistics of a network.")
    Term.(const run $ network_term)

(* ---------------------------------------------------------------- *)
(* verify *)

let trials_arg =
  Arg.(value & opt int 500 & info [ "trials" ] ~docv:"N" ~doc:"Number of random input loads.")

let exhaustive_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "exhaustive" ] ~docv:"B"
        ~doc:
          "Instead of random loads, certify the step property on EVERY input with at most \
           $(docv) tokens per wire (bounded model check; the input space must stay under \
           10^7 vectors).")

let verify_cmd =
  let run net trials exhaustive =
    match exhaustive with
    | Some max_tokens -> (
        match Cn_core.Verify.counting ~max_tokens net with
        | Cn_core.Verify.Verified n ->
            Printf.printf "certified: step property on all %d loads with <= %d tokens/wire\n" n
              max_tokens
        | Cn_core.Verify.Counterexample x ->
            Printf.printf "FAILED: counterexample input %s\n" (S.to_string x);
            exit 1
        | exception Invalid_argument m ->
            prerr_endline m;
            exit 1)
    | None ->
        let rng = Random.State.make [| 42 |] in
        let w = T.input_width net in
        let failures = ref 0 in
        for _ = 1 to trials do
          let x = Array.init w (fun _ -> Random.State.int rng 100) in
          let y = E.quiescent net x in
          if S.sum x <> S.sum y then incr failures
          else if not (S.is_step y) then incr failures
        done;
        if !failures = 0 then Printf.printf "ok: %d random loads produced step outputs\n" trials
        else begin
          Printf.printf "FAILED on %d/%d loads (not a counting network?)\n" !failures trials;
          exit 1
        end
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Check the step property on random quiescent executions, or certify it \
             exhaustively on bounded loads.")
    Term.(const run $ network_term $ trials_arg $ exhaustive_arg)

(* ---------------------------------------------------------------- *)
(* simulate *)

let concurrency_arg =
  Arg.(value & opt int 16 & info [ "n"; "concurrency" ] ~docv:"N" ~doc:"Concurrent processes.")

let tokens_arg =
  Arg.(value & opt int 0 & info [ "m"; "tokens" ] ~docv:"M" ~doc:"Total tokens (default 30n).")

let strategy_conv =
  let parse = function
    | "random" -> Ok (Cn_sim.Scheduler.Random 1)
    | "round-robin" -> Ok Cn_sim.Scheduler.Round_robin
    | "max-queue" -> Ok Cn_sim.Scheduler.Max_queue
    | "herd" -> Ok (Cn_sim.Scheduler.Herd 1)
    | "worst" -> Ok (Cn_sim.Scheduler.Random (-1)) (* sentinel, handled below *)
    | s -> Error (`Msg (Printf.sprintf "unknown strategy %S" s))
  in
  let print ppf s = Format.pp_print_string ppf (Cn_sim.Scheduler.strategy_name s) in
  Arg.conv (parse, print)

let strategy_arg =
  Arg.(
    value
    & opt (some strategy_conv) None
    & info [ "strategy" ] ~docv:"S"
        ~doc:"Schedule: $(b,random), $(b,round-robin), $(b,max-queue), $(b,herd); default: worst \
              over the whole portfolio.")

let simulate_cmd =
  let run net n m strategy =
    let m = if m <= 0 then 30 * n else m in
    let r =
      match strategy with
      | Some s -> Cn_sim.Contention.measure net ~n ~m s
      | None -> Cn_sim.Contention.worst net ~n ~m
    in
    Printf.printf "strategy      %s\n" r.Cn_sim.Contention.strategy;
    Printf.printf "tokens        %d\n" r.Cn_sim.Contention.tokens;
    Printf.printf "stalls        %d\n" r.Cn_sim.Contention.stalls;
    Printf.printf "stalls/token  %.3f\n" r.Cn_sim.Contention.per_token;
    Printf.printf "step output   %b\n" r.Cn_sim.Contention.step_ok;
    Printf.printf "per-layer     %s\n"
      (String.concat " "
         (Array.to_list (Array.map string_of_int r.Cn_sim.Contention.per_layer)))
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Estimate amortized contention (stalls per token) under an adversarial schedule \
             portfolio.")
    Term.(const run $ network_term $ concurrency_arg $ tokens_arg $ strategy_arg)

(* ---------------------------------------------------------------- *)
(* throughput *)

let domains_arg =
  Arg.(value & opt int 4 & info [ "domains" ] ~docv:"D" ~doc:"OCaml domains to spawn.")

let ops_arg =
  Arg.(value & opt int 10_000 & info [ "ops" ] ~docv:"OPS" ~doc:"Increments per domain.")

let mode_conv =
  let parse = function
    | "faa" -> Ok Cn_runtime.Network_runtime.Faa
    | "cas" -> Ok Cn_runtime.Network_runtime.Cas
    | s -> Error (`Msg (Printf.sprintf "unknown mode %S (expected faa or cas)" s))
  in
  let print ppf m =
    Format.pp_print_string ppf
      (match m with Cn_runtime.Network_runtime.Faa -> "faa" | Cn_runtime.Network_runtime.Cas -> "cas")
  in
  Arg.conv (parse, print)

let mode_arg =
  Arg.(
    value
    & opt mode_conv Cn_runtime.Network_runtime.Faa
    & info [ "mode" ] ~docv:"MODE"
        ~doc:"Balancer implementation: $(b,faa) (wait-free fetch-and-add) or $(b,cas) \
              (instrumented compare-and-set with bounded backoff).")

let batch_arg =
  Arg.(
    value
    & opt ~vopt:(Some max_int) (some int) None
    & info [ "batch" ] ~docv:"N"
        ~doc:"Use the batched traversal API ($(b,traverse_batch)) inside each domain, in chunks \
              of $(docv) tokens (bare $(b,--batch): one chunk covering all ops), instead of one \
              $(b,traverse) call per increment.")

let metrics_flag =
  Arg.(
    value
    & flag
    & info [ "metrics" ]
        ~doc:"Compile the runtime with the observability layer and print the schema-versioned \
              metrics JSON (per-balancer crossings/stalls, per-layer profile, per-wire tallies, \
              latency percentiles) after the throughput line.")

let policy_conv =
  let parse s =
    match Cn_runtime.Validator.policy_of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown policy %S (expected strict, log or off)" s))
  in
  let print ppf p = Format.pp_print_string ppf (Cn_runtime.Validator.policy_to_string p) in
  Arg.conv (parse, print)

let validate_arg =
  Arg.(
    value
    & opt policy_conv Cn_runtime.Validator.Log
    & info [ "validate" ] ~docv:"POLICY"
        ~doc:"Quiescence validation after the run: $(b,strict) (exit non-zero on violation), \
              $(b,log) (warn on stderr; default) or $(b,off).")

let service_flag =
  Arg.(
    value
    & flag
    & info [ "service" ]
        ~doc:"Drive the network through the $(b,Cn_service) combining front-end (sessions \
              pinned to wires, flat-combining batches, inc/dec elimination, backpressure) \
              instead of raw per-domain traversals.")

let elim_arg =
  Arg.(
    value
    & opt (some bool) None
    & info [ "elim" ] ~docv:"BOOL"
        ~doc:"Enable or disable inc/dec elimination in the service (default $(b,true)). \
              Requires $(b,--service).")

let max_batch_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-batch" ] ~docv:"N"
        ~doc:"Largest operation count one combined service batch may serve (default 64). \
              Requires $(b,--service).")

let sessions_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "sessions" ] ~docv:"K"
        ~doc:"Service sessions per client domain (default 2). Requires $(b,--service).")

let fabric_flag =
  Arg.(
    value
    & flag
    & info [ "fabric" ]
        ~doc:"Drive the sharded counter fabric ($(b,Cn_fabric)): N independently compiled \
              C(w,t) service shards, each session routed to shard hash(key) mod N, every topology \
              certified before serving.  Mutually exclusive with $(b,--service).")

let fabric_shards_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "shards" ] ~docv:"N"
        ~doc:"Shard count for the fabric (default 2). Requires $(b,--fabric).")

let dec_ratio_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "dec-ratio" ] ~docv:"R"
        ~doc:"Probability in [0, 1] that a workload operation is a Fetch&Decrement \
              (default 0; prefixes stay non-negative). Requires $(b,--service).")

let skew_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "skew" ] ~docv:"SKEW"
        ~doc:"Session-popularity skew: $(b,uniform) or $(b,zipf:ALPHA) (ALPHA > 0). \
              Requires $(b,--service).")

let arrival_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "arrival" ] ~docv:"ARRIVAL"
        ~doc:"Arrival process: $(b,closed) (back to back), $(b,closed:THINK) (think seconds \
              between ops) or $(b,burst:N:PAUSE) (N back-to-back ops, then PAUSE seconds). \
              Requires $(b,--service).")

(* What [countnet throughput] drives, fixed from its flags before any
   domain runs: the raw network with one of its two walks, or one of
   the two combining front-ends. *)
type walk = Per_op | Batch of int

type driver =
  | Network of walk
  | Service of Cn_service.Workload.spec
  | Fabric of { shards : int; sessions : int }

let throughput_cmd =
  let module RT = Cn_runtime.Network_runtime in
  let module DP = Cn_runtime.Domain_pool in
  let module V = Cn_runtime.Validator in
  let module Svc = Cn_service.Service in
  let module W = Cn_service.Workload in
  let fail_usage msg =
    prerr_endline ("countnet throughput: " ^ msg);
    exit 2
  in
  let run net domains ops mode batch metrics policy service elim max_batch
      sessions dec_ratio skew arrival fabric fabric_shards =
    (* Validate once: every check below runs in this order before any
       domain is spawned, and each usage error exits 2. *)
    let positive name = function
      | Some n when n <= 0 -> fail_usage (Printf.sprintf "%s must be positive (got %d)" name n)
      | _ -> ()
    in
    let requires front (name, set) = if set then fail_usage (name ^ " requires " ^ front) in
    let parsed = function Ok v -> v | Error msg -> fail_usage msg in
    positive "--domains" (Some domains);
    positive "--ops" (Some ops);
    positive "--batch" batch;
    if service && fabric then
      fail_usage "--service and --fabric are mutually exclusive (pick one front-end)";
    if (not fabric) && fabric_shards <> None then fail_usage "--shards requires --fabric";
    if not (service || fabric) then
      List.iter (requires "--service or --fabric")
        [
          ("--elim", elim <> None);
          ("--max-batch", max_batch <> None);
          ("--sessions", sessions <> None);
        ];
    if not service then
      List.iter (requires "--service")
        [
          ("--dec-ratio", dec_ratio <> None);
          ("--skew", skew <> None);
          ("--arrival", arrival <> None);
        ];
    if (service || fabric) && batch <> None then
      fail_usage "--batch and --service/--fabric are mutually exclusive (they batch internally)";
    positive "--max-batch" max_batch;
    positive "--sessions" sessions;
    (match dec_ratio with
    | Some r when r < 0. || r > 1. ->
        fail_usage (Printf.sprintf "--dec-ratio must be in [0, 1] (got %g)" r)
    | _ -> ());
    let skew = Option.map (fun s -> parsed (W.skew_of_string s)) skew in
    let arrival = Option.map (fun s -> parsed (W.arrival_of_string s)) arrival in
    positive "--shards" fabric_shards;
    let driver =
      if fabric then
        Fabric
          {
            shards = Option.value fabric_shards ~default:2;
            sessions = Option.value sessions ~default:2;
          }
      else if service then
        Service
          {
            W.default with
            W.domains;
            ops_per_domain = ops;
            sessions_per_domain = Option.value sessions ~default:W.default.W.sessions_per_domain;
            dec_ratio = Option.value dec_ratio ~default:0.;
            skew = Option.value skew ~default:W.Uniform;
            arrival = Option.value arrival ~default:(W.Closed 0.);
          }
      else
        match batch with Some b -> Network (Batch (min b ops)) | None -> Network Per_op
    in
    (* Drive once.  Opening the pool is where a domain count the runtime
       cannot host fails; that is a usage error, not a crash. *)
    let with_domains f =
      match DP.create domains with
      | exception Failure msg ->
          fail_usage (Printf.sprintf "cannot run %d domains (%s)" domains msg)
      | pool -> Fun.protect ~finally:(fun () -> DP.shutdown pool) (fun () -> f pool)
    in
    let round body = with_domains (fun pool -> DP.run pool ~domains body) in
    let valid check =
      match check () with
      | () -> ()
      | exception V.Invalid msg ->
          prerr_endline ("countnet throughput: " ^ msg);
          exit 1
    in
    let print_rate name seconds =
      let total = domains * ops in
      Printf.printf "%s: %d domains x %d ops = %d ops in %.3fs -> %.0f ops/s\n" name domains ops
        total seconds
        (float_of_int total /. Float.max seconds 1e-9)
    in
    (* The combining front-ends share one tail: a drain checked under
       the policy, then the summary, then the report. *)
    let front_tail ~drain ~report_json summary =
      valid drain;
      summary ();
      if metrics then print_endline (report_json ())
    in
    (match driver with
    | Network walk ->
        let rt = RT.compile ~mode ~metrics net in
        let w = RT.input_width rt in
        let seconds =
          round (fun pid ->
              let wire = pid mod w in
              match walk with
              | Per_op ->
                  for _ = 1 to ops do
                    ignore (RT.traverse rt ~wire)
                  done
              | Batch chunk ->
                  let remaining = ref ops in
                  while !remaining > 0 do
                    let n = min chunk !remaining in
                    RT.traverse_batch rt ~wire ~n ~f:(fun _ _ -> ());
                    remaining := !remaining - n
                  done)
        in
        valid (fun () -> V.enforce policy (V.quiescent_runtime rt));
        print_rate "network" seconds;
        Option.iter
          (fun m ->
            let layers = Array.init (T.size net) (T.balancer_depth net) in
            print_endline (Cn_runtime.Metrics.to_json ~layers (Cn_runtime.Metrics.snapshot m)))
          (RT.metrics rt)
    | Service spec ->
        let svc = Svc.create ~mode ~metrics ?max_batch ?elim ~validate:policy net in
        let stats = with_domains (fun pool -> W.run ~pool svc spec) in
        front_tail
          ~drain:(fun () -> ignore (Svc.drain svc))
          ~report_json:(fun () -> Svc.report_json svc)
          (fun () ->
            let sst = Svc.stats svc in
            Printf.printf
              "service: %d domains x %d ops = %d completed (%d rejected) in %.3fs -> %.0f ops/s\n"
              domains ops stats.W.completed stats.W.rejected stats.W.seconds stats.W.ops_per_sec;
            Printf.printf
              "combining: %d batches, mean batch %.2f, %d pairs eliminated (rate %.3f)\n"
              sst.Svc.total_batches sst.Svc.mean_batch sst.Svc.total_eliminated_pairs
              sst.Svc.elimination_rate)
    | Fabric { shards; sessions } ->
        let module Fab = Cn_fabric.Fabric in
        let fab =
          try Fab.create ~mode ~metrics ?max_batch ?elim ~validate:policy ~shards net with
          | Fab.Rejected msg -> fail_usage ("topology rejected: " ^ msg)
          | Invalid_argument msg -> fail_usage msg
        in
        let completed = Array.make domains 0 in
        let rejected = Array.make domains 0 in
        let seconds =
          round (fun pid ->
              let ss = Array.init sessions (fun k -> Fab.session ~key:((pid * sessions) + k) fab) in
              for i = 0 to ops - 1 do
                match Fab.increment ss.(i mod sessions) with
                | Ok _ -> completed.(pid) <- completed.(pid) + 1
                | Error Fab.Overloaded -> rejected.(pid) <- rejected.(pid) + 1
                | Error Fab.Closed -> ()
              done)
        in
        front_tail
          ~drain:(fun () -> ignore (Fab.drain fab))
          ~report_json:(fun () -> Fab.report_json fab)
          (fun () ->
            let done_ = Array.fold_left ( + ) 0 completed in
            Printf.printf
              "fabric: %d shards, %d domains x %d ops = %d completed (%d rejected) in %.3fs -> \
               %.0f ops/s\n"
              shards domains ops done_
              (Array.fold_left ( + ) 0 rejected)
              seconds
              (float_of_int done_ /. Float.max seconds 1e-9);
            Printf.printf "fabric value %d; shards:%s\n" (Fab.read fab)
              (String.concat ""
                 (List.map
                    (fun (i : Fab.shard_info) ->
                      Printf.sprintf " %d:C(%d,%d) gen %d value %d" i.Fab.id i.Fab.width
                        i.Fab.out_width i.Fab.gen i.Fab.value)
                    (Fab.shard_infos fab)))))
  in
  Cmd.v
    (Cmd.info "throughput"
       ~doc:"Measure Fetch&Increment throughput of the network-backed shared counter.")
    Term.(
      const run $ network_term $ domains_arg $ ops_arg $ mode_arg $ batch_arg
      $ metrics_flag $ validate_arg $ service_flag $ elim_arg $ max_batch_arg
      $ sessions_arg $ dec_ratio_arg $ skew_arg $ arrival_arg $ fabric_flag
      $ fabric_shards_arg)

(* ---------------------------------------------------------------- *)
(* sort *)

let values_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"VALUES" ~doc:"Comma-separated integers (default: a sample permutation).")

let sort_cmd =
  let run net values =
    match
      let s = Cn_core.Sorting.of_topology net in
      let input =
        match values with
        | Some csv -> Array.of_list (List.map int_of_string (String.split_on_char ',' csv))
        | None -> Array.init (Cn_core.Sorting.width s) (fun i -> ((i * 7) + 3) mod 17)
      in
      (s, input)
    with
    | exception Invalid_argument msg ->
        prerr_endline msg;
        exit 1
    | exception Failure _ ->
        prerr_endline "could not parse VALUES as comma-separated integers";
        exit 1
    | s, input ->
        Printf.printf "input:  %s\n" (S.to_string input);
        Printf.printf "sorted: %s\n" (S.to_string (Cn_core.Sorting.apply_ascending s input))
  in
  Cmd.v
    (Cmd.info "sort"
       ~doc:"Sort integers with the comparator network extracted from the chosen (regular, \
             (2,2)-balancer) network (Section 7).")
    Term.(const run $ network_term $ values_arg)

(* ---------------------------------------------------------------- *)
(* count *)

let count_tokens_arg =
  Arg.(value & opt int 16 & info [ "tokens" ] ~docv:"K" ~doc:"Tokens to shepherd sequentially.")

let count_cmd =
  let run net k =
    let w = T.input_width net in
    let runs = E.token_run net (List.init k (fun i -> i mod w)) in
    List.iteri
      (fun i (wire, v) ->
        Printf.printf "token %2d: in wire %d, out wire %d, counter value %d\n" i (i mod w) wire v)
      runs
  in
  Cmd.v
    (Cmd.info "count"
       ~doc:"Shepherd tokens sequentially and print the Fetch&Increment values they obtain.")
    Term.(const run $ network_term $ count_tokens_arg)

(* ---------------------------------------------------------------- *)
(* save / load *)

let save_cmd =
  let run net = print_string (Cn_network.Codec.to_string net) in
  Cmd.v
    (Cmd.info "save" ~doc:"Serialize a network to the textual wire format on stdout.")
    Term.(const run $ network_term)

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"File containing a serialized network.")

let restore_cmd =
  let run file trials =
    let text = In_channel.with_open_text file In_channel.input_all in
    match Cn_network.Codec.of_string text with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok net ->
        Printf.printf "loaded: %s\n" (Format.asprintf "%a" T.pp net);
        let rng = Random.State.make [| 42 |] in
        let w = T.input_width net in
        let step_ok = ref 0 in
        for _ = 1 to trials do
          let x = Array.init w (fun _ -> Random.State.int rng 100) in
          if S.is_step (E.quiescent net x) then incr step_ok
        done;
        Printf.printf "step property held on %d/%d random loads%s\n" !step_ok trials
          (if !step_ok = trials then " (counting network)" else "")
  in
  Cmd.v
    (Cmd.info "restore"
       ~doc:"Load a serialized network from a file, validate it, and probe its behaviour \
             (the inverse of $(b,save); $(b,load) is the TCP load rig).")
    Term.(const run $ file_arg $ trials_arg)

(* ---------------------------------------------------------------- *)
(* feasible *)

let feasible_cmd =
  let width_pos =
    Arg.(required & pos 0 (some int) None & info [] ~docv:"WIDTH" ~doc:"Target output width.")
  in
  let balancers_arg =
    Arg.(
      value
      & opt (list int) [ 2 ]
      & info [ "balancers" ] ~docv:"Q1,Q2,..."
          ~doc:"Available balancer output widths (default: 2).")
  in
  let run width balancer_outputs =
    match Cn_analysis.Feasibility.blocking_prime ~width ~balancer_outputs with
    | exception Invalid_argument m ->
        prerr_endline m;
        exit 1
    | None ->
        Printf.printf
          "width %d passes the Aharonson-Attiya criterion for balancer outputs {%s}\n" width
          (String.concat ", " (List.map string_of_int balancer_outputs))
    | Some p ->
        Printf.printf
          "impossible: prime %d divides width %d but none of the balancer outputs {%s}\n" p width
          (String.concat ", " (List.map string_of_int balancer_outputs));
        exit 1
  in
  Cmd.v
    (Cmd.info "feasible"
       ~doc:"Check the Aharonson-Attiya impossibility criterion for a counting-network width.")
    Term.(const run $ width_pos $ balancers_arg)

(* ---------------------------------------------------------------- *)
(* latency *)

let latency_cmd =
  let rounds_arg =
    Arg.(value & opt int 50 & info [ "rounds" ] ~docv:"R" ~doc:"Tokens per process.")
  in
  let think_arg =
    Arg.(value & opt float 0.0 & info [ "think" ] ~docv:"T" ~doc:"Think time between tokens.")
  in
  let run net n rounds think =
    let r = Cn_sim.Timed.closed_loop ~think ~jitter:0.3 net ~n ~rounds in
    Printf.printf "tokens        %d\n" r.Cn_sim.Timed.tokens;
    Printf.printf "makespan      %.2f\n" r.Cn_sim.Timed.makespan;
    Printf.printf "avg latency   %.2f (depth %d)\n" r.Cn_sim.Timed.avg_latency (T.depth net);
    Printf.printf "max latency   %.2f\n" r.Cn_sim.Timed.max_latency;
    Printf.printf "avg queueing  %.2f\n" r.Cn_sim.Timed.avg_wait;
    Printf.printf "throughput    %.2f tokens/unit (first-layer cap %d)\n"
      r.Cn_sim.Timed.throughput (T.input_width net / 2)
  in
  Cmd.v
    (Cmd.info "latency"
       ~doc:"Discrete-event latency simulation: closed loop of N processes over the network.")
    Term.(const run $ network_term $ concurrency_arg $ rounds_arg $ think_arg)

(* ---------------------------------------------------------------- *)
(* check *)

let check_cmd =
  let module Engine = Cn_check.Engine in
  let preemptions_arg =
    Arg.(
      value
      & opt int 2
      & info [ "p"; "preemptions" ] ~docv:"P"
          ~doc:"Preemption bound: forced context switches per schedule.")
  in
  let scenario_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ] ~docv:"NAME" ~doc:"Run only the named scenario.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"SCHEDULE"
          ~doc:
            "Replay one pinned schedule (semicolon-separated fiber indices) \
             against $(b,--scenario) instead of exploring.")
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List scenarios and exit.")
  in
  let selftest_arg =
    Arg.(
      value
      & flag
      & info [ "selftest" ]
          ~doc:
            "Also run the checker against the deliberately buggy pre-fix \
             models; each must fail, and its pinned schedule must replay.")
  in
  let run preemptions scenario replay list selftest =
    let catalogue = Cn_check.Scenarios.all @ Cn_check.Fabric_scenarios.all in
    let scenarios =
      match scenario with
      | None -> catalogue
      | Some name -> (
          match List.assoc_opt name catalogue with
          | Some mk -> [ (name, mk) ]
          | None ->
              Printf.eprintf "unknown scenario %s (try --list)\n" name;
              exit 1)
    in
    if list then
      List.iter (fun (name, _) -> print_endline name) catalogue
    else begin
      let failed = ref false in
      (match replay with
      | Some sched ->
          let sched = Engine.schedule_of_string sched in
          List.iter
            (fun (name, mk) ->
              match Engine.replay mk sched with
              | None -> Printf.printf "%-24s replay pass\n" name
              | Some f ->
                  failed := true;
                  Printf.printf "%-24s replay FAIL: %s\n" name f.Engine.reason)
            scenarios
      | None ->
          List.iter
            (fun (name, mk) ->
              let t0 = Unix.gettimeofday () in
              let o = Engine.explore ~preemptions mk in
              let s = o.Engine.stats in
              match o.Engine.failure with
              | None ->
                  Printf.printf
                    "%-24s pass  %6d interleavings, %d pruned%s (%.1fs)\n" name
                    s.Engine.interleavings s.Engine.prunes
                    (if s.Engine.complete then "" else ", budget exhausted")
                    (Unix.gettimeofday () -. t0)
              | Some f ->
                  failed := true;
                  Printf.printf "%-24s FAIL  %s\n  replay with: [%s]\n" name
                    f.Engine.reason
                    (Engine.schedule_to_string f.Engine.schedule))
            scenarios);
      if selftest then begin
        let expect_fail name mk pinned =
          (match (Engine.explore ~preemptions mk).Engine.failure with
          | Some f ->
              Printf.printf "%-24s found: %s\n" name f.Engine.reason
          | None ->
              failed := true;
              Printf.printf "%-24s MISSED the planted bug\n" name);
          match Engine.replay mk pinned with
          | Some _ -> Printf.printf "%-24s pinned schedule reproduces\n" name
          | None ->
              failed := true;
              Printf.printf "%-24s pinned schedule no longer fails\n" name
        in
        expect_fail "selftest-lifecycle" Cn_check.Selftest.lifecycle_race
          Cn_check.Selftest.lifecycle_schedule;
        expect_fail "selftest-admission" Cn_check.Selftest.admission_race
          Cn_check.Selftest.admission_schedule;
        expect_fail "selftest-run" Cn_check.Selftest.run_race
          Cn_check.Selftest.run_schedule
      end;
      if !failed then exit 1
    end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Model-check the service layer: explore bounded-preemption \
          interleavings of drain/shutdown/submit races deterministically.")
    Term.(
      const run $ preemptions_arg $ scenario_arg $ replay_arg $ list_arg
      $ selftest_arg)

(* ---------------------------------------------------------------- *)
(* lint *)

let lint_cmd =
  let module L = Cn_lint.Cert in
  let module P = Cn_lint.Portfolio in
  let module M = Cn_lint.Mutate in
  let all_flag =
    Arg.(
      value
      & flag
      & info [ "all" ]
          ~doc:"Certify the whole built-in portfolio (every family at widths 2..64, down to \
                the compiled runtime) instead of one network.")
  in
  let mutate_flag =
    Arg.(
      value
      & flag
      & info [ "mutate" ]
          ~doc:"Run the seeded mutant battery: wire flips, dropped balancers, corrupted port \
                masks, corrupted initial states and truncated CSR rows, each of which must be \
                rejected with its pinned diagnostic code.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the machine-readable report to $(docv).")
  in
  let budget_arg =
    Arg.(
      value
      & opt int 20_000
      & info [ "budget" ] ~docv:"N"
          ~doc:"Bounded-exhaustive input-space budget per certificate (default 20000).")
  in
  let lint_file_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "file" ] ~docv:"FILE"
          ~doc:"Lint a serialized network from $(docv) (full well-formedness diagnostics, then \
                certification without a reference construction) instead of a built family.")
  in
  let run family w t delta all mutate json budget file =
    let failed = ref false in
    let certs = ref [] in
    let mutants = ref [] in
    (match file with
    | Some path -> (
        let text = In_channel.with_open_text path In_channel.input_all in
        match Cn_network.Codec.parse_raw text with
        | Error e ->
            prerr_endline e;
            exit 1
        | Ok raw -> (
            match Cn_network.Raw.validate raw with
            | Error violations ->
                List.iter
                  (fun v ->
                    Format.printf "%a@."
                      Cn_lint.Diagnostic.pp
                      (Cn_lint.Diagnostic.of_violation ~pass:"wellformed" ~subject:path v))
                  violations;
                failed := true
            | Ok net ->
                let cert =
                  L.certify ~exhaustive_budget:budget ~subject:path
                    ~expectation:L.Counting net
                in
                certs := [ cert ];
                Format.printf "%a@." L.pp cert;
                if not (L.ok cert) then failed := true))
    | None ->
        if all then begin
          let cs = P.run ~exhaustive_budget:budget () in
          certs := !certs @ cs;
          Format.printf "%a@?" P.pp_summary cs;
          if not (P.all_ok cs) then failed := true
        end;
        if (not all) && not mutate then begin
          match
            P.certify ~exhaustive_budget:budget
              (P.entry family ~w ~t:(Option.value t ~default:w) ~delta)
          with
          | exception Invalid_argument m ->
              prerr_endline m;
              exit 1
          | cert ->
              certs := [ cert ];
              Format.printf "%a@." L.pp cert;
              if not (L.ok cert) then failed := true
        end);
    if mutate then begin
      let outcomes = M.battery () in
      mutants := outcomes;
      List.iter (fun o -> Format.printf "%a@." M.pp_outcome o) outcomes;
      let escaped = List.filter (fun o -> not o.M.rejected) outcomes in
      if escaped <> [] then failed := true;
      Format.printf "%d mutants, %s@." (List.length outcomes)
        (if escaped = [] then "all rejected" else Printf.sprintf "%d ESCAPED" (List.length escaped))
    end;
    Option.iter
      (fun path ->
        let buf = Buffer.create 4096 in
        Buffer.add_string buf
          (Printf.sprintf "{\"schema_version\":%d,\"certificates\":[" P.schema_version);
        List.iteri
          (fun i c ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf (L.to_json c))
          !certs;
        Buffer.add_string buf "],\"mutants\":";
        Buffer.add_string buf (M.to_json !mutants);
        Buffer.add_string buf (Printf.sprintf ",\"ok\":%b}" (not !failed));
        Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (Buffer.contents buf)))
      json;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically certify topologies and their compiled runtimes: well-formedness, \
             abstract interpretation, bounded-exhaustive and structural step certificates \
             with two-token escalation, CSR faithfulness of the compiled runtime, and the \
             seeded mutant battery.")
    Term.(
      const run $ family_arg $ width_arg $ out_width_arg $ delta_arg $ all_flag $ mutate_flag
      $ json_arg $ budget_arg $ lint_file_arg)

(* ---------------------------------------------------------------- *)
(* load: drive a running countnetd over the wire protocol. *)

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Address of the countnetd to drive.")

let port_arg =
  Arg.(
    value & opt int 0
    & info [ "port" ] ~docv:"PORT" ~doc:"TCP port of the countnetd to drive (required).")

let load_cmd =
  let module L = Cn_proto.Load in
  let module W = Cn_service.Workload in
  let fail_usage msg =
    prerr_endline ("countnet load: " ^ msg);
    exit 2
  in
  let clients_arg =
    Arg.(value & opt int 2 & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client threads.")
  in
  let conns_arg =
    Arg.(
      value & opt int 2
      & info [ "conns" ] ~docv:"N" ~doc:"TCP connections (server sessions) per client.")
  in
  let load_ops_arg =
    Arg.(
      value & opt int 1000
      & info [ "ops" ] ~docv:"N" ~doc:"Operations each client performs.")
  in
  let load_dec_ratio_arg =
    Arg.(
      value & opt float 0.
      & info [ "dec-ratio" ] ~docv:"R"
          ~doc:"Probability an operation is a Fetch&Decrement (prefix non-negative per client).")
  in
  let load_skew_arg =
    Arg.(
      value & opt string "uniform"
      & info [ "skew" ] ~docv:"SKEW"
          ~doc:"Connection-pick skew: $(b,uniform) or $(b,zipf:ALPHA).")
  in
  let load_arrival_arg =
    Arg.(
      value & opt string "closed"
      & info [ "arrival" ] ~docv:"ARRIVAL"
          ~doc:"Arrival process: $(b,closed[:THINK]) or $(b,burst:N:PAUSE).")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")
  in
  let run host port clients conns ops dec_ratio skew arrival seed =
    (match Unix.inet_addr_of_string host with
    | addr when Unix.domain_of_sockaddr (Unix.ADDR_INET (addr, 0)) = Unix.PF_INET -> ()
    | _ | (exception Failure _) ->
        fail_usage (Printf.sprintf "--host must be a numeric IPv4 address (got %S)" host));
    if port <= 0 || port > 65535 then
      fail_usage (Printf.sprintf "--port must be in [1, 65535] (got %d)" port);
    if clients <= 0 then fail_usage (Printf.sprintf "--clients must be positive (got %d)" clients);
    if conns <= 0 then fail_usage (Printf.sprintf "--conns must be positive (got %d)" conns);
    if ops <= 0 then fail_usage (Printf.sprintf "--ops must be positive (got %d)" ops);
    if dec_ratio < 0. || dec_ratio > 1. then
      fail_usage (Printf.sprintf "--dec-ratio must be in [0, 1] (got %g)" dec_ratio);
    let parsed = function Ok v -> v | Error msg -> fail_usage msg in
    let spec =
      {
        L.clients;
        conns_per_client = conns;
        ops_per_client = ops;
        dec_ratio;
        skew = parsed (W.skew_of_string skew);
        arrival = parsed (W.arrival_of_string arrival);
        seed;
      }
    in
    let stats =
      try L.run ~host ~port spec
      with Unix.Unix_error (err, _, _) ->
        prerr_endline
          (Printf.sprintf "countnet load: cannot reach %s:%d (%s)" host port
             (Unix.error_message err));
        exit 1
    in
    Printf.printf
      "load: %d clients x %d conns x %d ops -> %d completed (%d inc, %d dec), %d overloaded, \
       %d closed, %d disconnects\n"
      clients conns ops stats.L.completed stats.L.increments stats.L.decrements
      stats.L.rejected stats.L.closed stats.L.disconnects;
    Printf.printf "load: %.3fs wall (%.0f ops/s), %.3fs busy (%.0f ops/s)\n" stats.L.seconds
      stats.L.ops_per_sec stats.L.busy_seconds stats.L.busy_ops_per_sec;
    (match stats.L.latency with
    | Some l ->
        Printf.printf
          "load: rtt p50 %.1f us, p95 %.1f us, p99 %.1f us, max %.1f us (%d observed, %d kept)\n"
          (l.Cn_runtime.Metrics.p50 /. 1e3)
          (l.Cn_runtime.Metrics.p95 /. 1e3)
          (l.Cn_runtime.Metrics.p99 /. 1e3)
          (l.Cn_runtime.Metrics.max /. 1e3)
          l.Cn_runtime.Metrics.observed l.Cn_runtime.Metrics.kept
    | None -> print_endline "load: no completed operations; no latency summary");
    (* A run that completed nothing is an error, not a quiet success,
       whatever stopped it: a refused connection, a client thread that
       died, or a server that refused every request.  A rig that
       survives a mid-run shutdown still completes some ops. *)
    if stats.L.completed = 0 then (
      prerr_endline
        (Printf.sprintf "countnet load: no operations completed against %s:%d" host port);
      exit 1);
    exit 0
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Drive a running countnetd over TCP with the synthetic client population \
             (Zipf/bursty/dec-ratio) and report throughput plus round-trip latency \
             percentiles.")
    Term.(
      const run $ host_arg $ port_arg $ clients_arg $ conns_arg $ load_ops_arg $ load_dec_ratio_arg $ load_skew_arg
      $ load_arrival_arg $ seed_arg)

(* ---------------------------------------------------------------- *)

let main_cmd =
  let doc = "counting networks: build, inspect, verify, simulate, and run them" in
  Cmd.group
    (Cmd.info "countnet" ~version:"1.0.0" ~doc)
    [
      draw_cmd; depth_cmd; verify_cmd; simulate_cmd; throughput_cmd; sort_cmd; count_cmd;
      iso_cmd; save_cmd; restore_cmd; feasible_cmd; latency_cmd; check_cmd; lint_cmd;
      load_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
