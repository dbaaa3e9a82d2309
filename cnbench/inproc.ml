(* The in-process workloads: the benchmark links the counter and drives
   it from a Domain_pool, one lane of work per domain.  A request is a
   round of [round] operations on one domain; its latency is the round's
   duration. *)

module RT = Cn_runtime.Network_runtime
module Svc = Cn_service.Service
module Pool = Cn_runtime.Domain_pool

let now = Cn_runtime.Clock.now_ns
let round = 32

(* Round latencies are kept for one round in [keep_every]; a traced run
   also records the spans of one round in [trace_every]. *)
let keep_every = 4
let trace_every = 64

type lane = {
  mutable ops : int;
  mutable net : int;  (* Inc minus Dec completed *)
  mutable rejected : int;
  mutable rounds : int;
  mutable kept : int;
  lat : int array;
  wait : int array;  (* the part of the round spent waiting for results *)
  at : int array;  (* when the round ended *)
  ok : bool array;  (* which submits of the current round were admitted *)
  stamps : int array;
  mutable store : Trace.t option;
  mutable t0 : int;  (* the phase's start; slices count from here *)
  mutable slice_ns : int;
  mutable slice_ops : int array;  (* ops completed in each whole slice *)
}

let lane ~cap =
  {
    ops = 0; net = 0; rejected = 0; rounds = 0; kept = 0;
    lat = Array.make cap 0; wait = Array.make cap 0; at = Array.make cap 0;
    ok = Array.make round false; stamps = Array.make (round + 1) 0; store = None;
    t0 = 0; slice_ns = 1; slice_ops = [||];
  }

let reset l =
  l.ops <- 0;
  l.net <- 0;
  l.rejected <- 0;
  l.rounds <- 0;
  l.kept <- 0

(* A round of [ops] completed operations ended at [t]. *)
let record l ~t ~ops ~lat ~wait =
  l.ops <- l.ops + ops;
  let k = (t - l.t0) / l.slice_ns in
  if k < Array.length l.slice_ops then l.slice_ops.(k) <- l.slice_ops.(k) + ops;
  l.rounds <- l.rounds + 1;
  if l.rounds mod keep_every = 0 && l.kept < Array.length l.lat then begin
    l.lat.(l.kept) <- lat;
    l.wait.(l.kept) <- wait;
    l.at.(l.kept) <- t;
    l.kept <- l.kept + 1
  end

let traced l = match l.store with Some _ -> l.rounds mod trace_every = 0 | None -> false

(* inproc-combine: every domain owns [round] sessions pinned to its own
   input wire, so one combiner serves the whole round; half the round
   is Inc and half Dec, in an order drawn from the seed. *)
type combine = { svc : Svc.t; sessions : Svc.session array array; plan : Svc.op array array }

let combine_setup ~seed ~domains () =
  let svc = Svc.create (Cn_core.Counting.network ~w:16 ~t:16) in
  let ops pid =
    let a = Array.init round (fun i -> if i < round / 2 then Svc.Inc else Svc.Dec) in
    let rng = Random.State.make [| seed; pid |] in
    for i = round - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    a
  in
  {
    svc;
    sessions =
      Array.init domains (fun pid -> Array.init round (fun _ -> Svc.session ~wire:pid svc));
    plan = Array.init domains ops;
  }

let combine_body c lanes pid stop_at =
  let l = lanes.(pid) and ss = c.sessions.(pid) and os = c.plan.(pid) in
  let t = ref (now ()) in
  while !t < stop_at do
    let t0 = !t in
    for i = 0 to round - 1 do
      match Svc.submit ss.(i) os.(i) with
      | Ok () -> l.ok.(i) <- true
      | Error _ ->
          l.ok.(i) <- false;
          l.rejected <- l.rejected + 1
    done;
    let t1 = now () in
    let ops = ref 0 in
    for i = 0 to round - 1 do
      if l.ok.(i) then begin
        ignore (Svc.await ss.(i));
        incr ops;
        l.net <- (l.net + match os.(i) with Svc.Inc -> 1 | Svc.Dec -> -1)
      end
    done;
    let t2 = now () in
    (match l.store with
    | Some st when traced l ->
        Trace.add_tree st "round" t0 t2 [ ("service.submit", t0, t1); ("service.await", t1, t2) ]
    | _ -> ());
    record l ~t:t2 ~ops:!ops ~lat:(t2 - t0) ~wait:(t2 - t1);
    t := t2
  done

(* inproc-traverse: every domain shepherds tokens through the compiled
   network on its own input wire. *)
let traverse_body rt lanes pid stop_at =
  let l = lanes.(pid) in
  let t = ref (now ()) in
  while !t < stop_at do
    let t0 = !t in
    (match l.store with
    | Some st when traced l ->
        for i = 0 to round - 1 do
          l.stamps.(i) <- now ();
          ignore (RT.traverse rt ~wire:pid)
        done;
        l.stamps.(round) <- now ();
        Trace.add_tree st "round" l.stamps.(0) l.stamps.(round)
          (List.init round (fun i -> ("network.traverse", l.stamps.(i), l.stamps.(i + 1))))
    | _ ->
        for _ = 1 to round do
          ignore (RT.traverse rt ~wire:pid)
        done);
    let t1 = now () in
    l.net <- l.net + round;
    record l ~t:t1 ~ops:round ~lat:(t1 - t0) ~wait:(t1 - t0);
    t := t1
  done

type phase = {
  ops_per_s : float;
  completed : int;
  p99_us : float;
  wait_p50_us : float;
  samples : int;
  (* The same in each whole [slice_s] piece of the phase; a phase
     shorter than one slice is one slice. *)
  slice_ops_per_s : float array;
  slice_p50_us : float array;
  slice_p95_us : float array;
}

(* Runs [body] on every domain for [seconds] and summarises the rounds. *)
let phase pool (lanes : lane array) ~seconds ~slice_s body =
  let domains = Array.length lanes in
  let slices = max 1 (int_of_float (seconds /. slice_s)) in
  let slice_s = Float.min slice_s seconds in
  let slice_ns = int_of_float (slice_s *. 1e9) in
  let t0 = now () in
  Array.iter
    (fun l ->
      l.kept <- 0;
      l.t0 <- t0;
      l.slice_ns <- slice_ns;
      l.slice_ops <- Array.make slices 0)
    lanes;
  let ops0 = Array.fold_left (fun acc l -> acc + l.ops) 0 lanes in
  let stop_at = t0 + int_of_float (seconds *. 1e9) in
  let wall =
    Pool.run pool ~domains (fun pid ->
        ignore (Procfs.pin_cpu pid);
        body lanes pid stop_at)
  in
  let ops = Array.fold_left (fun acc l -> acc + l.ops) 0 lanes - ops0 in
  let kept f = List.map (fun l -> Array.sub (f l) 0 l.kept) (Array.to_list lanes) in
  let merged f = Stats.sort_ints (Array.concat (kept f)) in
  let lat = merged (fun l -> l.lat) and wait = merged (fun l -> l.wait) in
  let buckets = Array.make slices [] in
  List.iter2
    (Array.iter2 (fun lat t ->
         let k = (t - t0) / slice_ns in
         if k < slices then buckets.(k) <- lat :: buckets.(k)))
    (kept (fun l -> l.lat))
    (kept (fun l -> l.at));
  let us a = Array.map (fun ns -> ns /. 1000.) a in
  let slice_pct = List.map us (Stats.slice_percentiles buckets [ 50.; 95. ]) in
  {
    ops_per_s = float_of_int ops /. wall;
    completed = ops;
    p99_us = Stats.percentile_sorted lat 99. /. 1000.;
    wait_p50_us = Stats.percentile_sorted wait 50. /. 1000.;
    samples = Array.length lat;
    slice_ops_per_s =
      Array.init slices (fun k ->
          float_of_int (Array.fold_left (fun acc l -> acc + l.slice_ops.(k)) 0 lanes) /. slice_s);
    slice_p50_us = List.nth slice_pct 0;
    slice_p95_us = List.nth slice_pct 1;
  }
