module W = Cn_service.Workload
module M = Cn_runtime.Metrics
module Clock = Cn_runtime.Clock

type spec = {
  clients : int;
  conns_per_client : int;
  ops_per_client : int;
  dec_ratio : float;
  skew : W.skew;
  arrival : W.arrival;
  seed : int;
}

let default =
  {
    clients = 2;
    conns_per_client = 2;
    ops_per_client = 1000;
    dec_ratio = 0.;
    skew = W.Uniform;
    arrival = W.Closed 0.;
    seed = 42;
  }

type stats = {
  completed : int;
  increments : int;
  decrements : int;
  rejected : int;
  closed : int;
  disconnects : int;
  seconds : float;
  ops_per_sec : float;
  busy_seconds : float;
  busy_ops_per_sec : float;
  latency : M.latency option;
}

let check spec =
  if spec.clients < 1 then invalid_arg "Load: clients must be positive";
  if spec.conns_per_client < 1 then
    invalid_arg "Load: conns_per_client must be positive";
  if spec.ops_per_client < 0 then invalid_arg "Load: negative ops_per_client";
  if spec.dec_ratio < 0. || spec.dec_ratio > 1. then
    invalid_arg "Load: dec_ratio must be in [0, 1]";
  (match spec.skew with
  | W.Uniform -> ()
  | W.Zipf alpha ->
      if alpha <= 0. then invalid_arg "Load: Zipf exponent must be positive");
  match spec.arrival with
  | W.Closed think -> if think < 0. then invalid_arg "Load: negative think time"
  | W.Bursty { burst; pause } ->
      if burst < 1 then invalid_arg "Load: burst must be positive";
      if pause < 0. then invalid_arg "Load: negative pause"

(* Per-thread tallies; merged single-threaded after the joins. *)
type tally = {
  mutable completed : int;
  mutable increments : int;
  mutable decrements : int;
  mutable rejected : int;
  mutable closed : int;
  mutable disconnects : int;
  mutable slept : float;
  reservoir : M.Reservoir.t;
}

let client_body ~host ~port spec idx tally =
  let rng = Random.State.make [| spec.seed; idx |] in
  let cdf = W.session_cdf spec.skew spec.conns_per_client in
  (* A failed connect (refused, or a host that does not parse) marks
     the slot dead instead of killing the thread: the rig must outlive
     a server that is already draining. *)
  let conns =
    Array.init spec.conns_per_client (fun _ ->
        try Some (Client.connect ~host ~port ())
        with Unix.Unix_error _ | Failure _ ->
          tally.disconnects <- tally.disconnects + 1;
          None)
  in
  let live = ref (Array.fold_left (fun n c -> if c = None then n else n + 1) 0 conns) in
  let drop i =
    (match conns.(i) with
    | Some c ->
        Client.close c;
        conns.(i) <- None;
        tally.disconnects <- tally.disconnects + 1;
        decr live
    | None -> ());
  in
  let sleep d =
    let t0 = Unix.gettimeofday () in
    Unix.sleepf d;
    tally.slept <- tally.slept +. (Unix.gettimeofday () -. t0)
  in
  let balance = ref 0 in
  (try
     let k = ref 0 in
     while !k < spec.ops_per_client && !live > 0 do
       (match spec.arrival with
       | W.Closed think -> if think > 0. then sleep think
       | W.Bursty { burst; pause } ->
           if !k > 0 && !k mod burst = 0 then sleep pause);
       (* Pick a live connection: sample the CDF, then scan forward so
          a dead connection's traffic spills onto its neighbours. *)
       let start = W.pick rng cdf in
       let i = ref start in
       while conns.(!i) = None do
         i := (!i + 1) mod spec.conns_per_client
       done;
       let c = Option.get conns.(!i) in
       let dec = !balance > 0 && Random.State.float rng 1.0 < spec.dec_ratio in
       (match
          let t0 = Clock.now_ns () in
          let r = if dec then Client.decrement c else Client.increment c in
          M.Reservoir.add tally.reservoir (Clock.now_ns () - t0);
          r
        with
       | Ok _ ->
           tally.completed <- tally.completed + 1;
           if dec then begin
             tally.decrements <- tally.decrements + 1;
             decr balance
           end
           else begin
             tally.increments <- tally.increments + 1;
             incr balance
           end
       | Error `Overloaded -> tally.rejected <- tally.rejected + 1
       | Error `Closed -> tally.closed <- tally.closed + 1
       | exception (Client.Disconnected | Client.Protocol_error _) -> drop !i);
       incr k
     done
   with Unix.Unix_error _ ->
     (* A connection died in a way [drop] didn't see (e.g. EPIPE on
        send); close everything and let the thread finish. *)
     ());
  Array.iteri
    (fun i c -> if c <> None then (Client.close (Option.get c); conns.(i) <- None))
    conns

let run ?(host = "127.0.0.1") ~port spec =
  check spec;
  let tallies =
    Array.init spec.clients (fun _ ->
        {
          completed = 0;
          increments = 0;
          decrements = 0;
          rejected = 0;
          closed = 0;
          disconnects = 0;
          slept = 0.;
          reservoir = M.Reservoir.create ();
        })
  in
  let t0 = Unix.gettimeofday () in
  let threads =
    Array.init spec.clients (fun idx ->
        Thread.create (fun () -> client_body ~host ~port spec idx tallies.(idx)) ())
  in
  Array.iter Thread.join threads;
  let seconds = Unix.gettimeofday () -. t0 in
  let sum f = Array.fold_left (fun acc t -> acc + f t) 0 tallies in
  let completed = sum (fun t -> t.completed) in
  let mean_slept =
    Array.fold_left (fun acc t -> acc +. t.slept) 0. tallies
    /. float_of_int spec.clients
  in
  let busy_seconds = Float.max 0. (seconds -. mean_slept) in
  let rate s = if s > 0. then float_of_int completed /. s else 0. in
  {
    completed;
    increments = sum (fun t -> t.increments);
    decrements = sum (fun t -> t.decrements);
    rejected = sum (fun t -> t.rejected);
    closed = sum (fun t -> t.closed);
    disconnects = sum (fun t -> t.disconnects);
    seconds;
    ops_per_sec = rate seconds;
    busy_seconds;
    busy_ops_per_sec = rate busy_seconds;
    latency =
      M.reservoir_summary
        (Array.to_list (Array.map (fun t -> t.reservoir) tallies));
  }
