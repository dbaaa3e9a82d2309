(* Layer probes for the traced run: short measurements that call one
   layer's public API directly, so each layer has a number of its own
   whichever workload is running. *)

module RT = Cn_runtime.Network_runtime
module Pool = Cn_runtime.Domain_pool
module Metrics = Cn_runtime.Metrics
module V = Cn_runtime.Validator
module Frame = Cn_proto.Frame

let now = Cn_runtime.Clock.now_ns
let c16 () = Cn_core.Counting.network ~w:16 ~t:16
let ms_since t0 = float_of_int (now () - t0) /. 1e6

let median_ms k f =
  Stats.median
    (Array.init k (fun _ ->
         let t0 = now () in
         f ();
         ms_since t0))

let compile_ms net = median_ms 9 (fun () -> ignore (RT.compile net))

let certify_ms net =
  median_ms 3 (fun () ->
      match Cn_fabric.Fabric.certify_topology net with
      | Ok _ -> ()
      | Error e -> failwith ("C(16,16) refused: " ^ e))

type codec = { encode_ns : float; decode_ns : float; bytes_per_op : float }

(* Encodes the workload's request stream, then decodes a Value reply per
   request fed in 4 KiB pieces, as a socket read would deliver them. *)
let codec (ops : Frame.request array) =
  let n = Array.length ops in
  let pass () =
    let b = Buffer.create (8 * n) in
    let t0 = now () in
    Array.iter (fun op -> Frame.encode b (Frame.Request op)) ops;
    let encode = now () - t0 in
    let rb = Buffer.create (16 * n) in
    Array.iteri (fun i _ -> Frame.encode rb (Frame.Response (Frame.Value i))) ops;
    let replies = Buffer.to_bytes rb in
    let d = Frame.decoder () and got = ref 0 and off = ref 0 in
    let t1 = now () in
    while !off < Bytes.length replies do
      let len = min 4096 (Bytes.length replies - !off) in
      Frame.feed d replies ~off:!off ~len;
      off := !off + len;
      while match Frame.next d with Frame.Frame _ -> true | _ -> false do
        incr got
      done
    done;
    let decode = now () - t1 in
    if !got <> n then failwith (Printf.sprintf "decoded %d of %d replies" !got n);
    let per_op x = float_of_int x /. float_of_int n in
    (per_op encode, per_op decode, per_op (Buffer.length b + Bytes.length replies))
  in
  let runs = Array.init 5 (fun _ -> pass ()) in
  let col f = Stats.median (Array.map f runs) in
  {
    encode_ns = col (fun (e, _, _) -> e);
    decode_ns = col (fun (_, d, _) -> d);
    bytes_per_op = col (fun (_, _, b) -> b);
  }

(* Every domain traverses on its own input wire until [seconds] pass;
   returns the per-domain op counts.  [before]/[after] run on the
   worker, around its loop. *)
let traverse_for pool rt ~seconds ~before ~after =
  let domains = Pool.size pool in
  let ops = Array.make domains 0 in
  let stop_at = now () + int_of_float (seconds *. 1e9) in
  let wall =
    Pool.run pool ~domains (fun pid ->
        ignore (Procfs.pin_cpu pid);
        before pid;
        let n = ref 0 in
        while now () < stop_at do
          for _ = 1 to 64 do
            ignore (RT.traverse rt ~wire:pid)
          done;
          n := !n + 64
        done;
        ops.(pid) <- !n;
        after pid)
  in
  V.enforce V.Strict (V.quiescent_runtime rt);
  (wall, ops)

type network = {
  traverse_ns : float;  (* wall time of one traverse on one domain *)
  minor_words : float;  (* words allocated per traverse *)
  token_p50_ns : float;
  token_p99_ns : float;
  stalls_per_token : float;
  layer_stalls : float array;  (* per layer, per token *)
  sim_stalls_per_token : float;
}

let network pool ~seconds ~seed =
  let net = c16 () in
  (* The default runtime (Faa, Padded_csr) for time and allocation. *)
  let rt = RT.compile net in
  let words = Array.make (Pool.size pool) 0. in
  let w0 = Array.make (Pool.size pool) 0. in
  let wall, ops =
    traverse_for pool rt ~seconds
      ~before:(fun pid -> w0.(pid) <- Gc.minor_words ())
      ~after:(fun pid -> words.(pid) <- Gc.minor_words () -. w0.(pid))
  in
  let total = float_of_int (Array.fold_left ( + ) 0 ops) in
  (* Faa cannot observe a stall: the contention profile comes from the
     Cas runtime with the metrics recorder on. *)
  let cas = RT.compile ~mode:RT.Cas ~metrics:true net in
  ignore (traverse_for pool cas ~seconds ~before:ignore ~after:ignore);
  let snap = Metrics.snapshot (Option.get (RT.metrics cas)) in
  let tokens = float_of_int (max 1 snap.Metrics.tokens) in
  let layers = Array.init (Cn_network.Topology.size net) (Cn_network.Topology.balancer_depth net) in
  let lat f = match snap.Metrics.latency with Some l -> f l | None -> nan in
  let sim =
    Cn_sim.Contention.measure net ~n:(Pool.size pool) ~m:4096 (Cn_sim.Scheduler.Random seed)
  in
  {
    traverse_ns = wall *. 1e9 *. float_of_int (Pool.size pool) /. total;
    minor_words = Array.fold_left ( +. ) 0. words /. total;
    token_p50_ns = lat (fun l -> l.Metrics.p50);
    token_p99_ns = lat (fun l -> l.Metrics.p99);
    stalls_per_token = float_of_int (Array.fold_left ( + ) 0 snap.Metrics.stalls) /. tokens;
    layer_stalls =
      Array.map (fun s -> float_of_int s /. tokens) (Metrics.per_layer ~layers snap.Metrics.stalls);
    sim_stalls_per_token = sim.Cn_sim.Contention.per_token;
  }
