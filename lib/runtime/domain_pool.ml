(* Worker protocol, one atomic generation counter per concern.

   To start round [r] the owner publishes the job and participant count,
   then advances [round] to [r]; workers observing the advance either
   join the round (pid < participants) or wait for the next one.
   Participants check in on [ready]; the owner releases them by setting
   [go] to [r] (the timed instant) and waits for [finished].  All
   signalling goes through atomics, so the non-atomic [job] and
   [participants] fields are safely published by the [round] write.

   Idle waiting spins with [Domain.cpu_relax] and decays to a short
   sleep: on hosts with fewer cores than workers, a hot spin by parked
   workers would steal the very CPU the round's participants need. *)

type t = {
  pool_size : int;
  mutable job : int -> unit;
  mutable participants : int;
  round : int Atomic.t;
  go : int Atomic.t;
  ready : int Atomic.t;
  finished : int Atomic.t;
  failure : exn option Atomic.t; (* first exception raised by a job this round *)
  stop : bool Atomic.t;
  mutable workers : unit Domain.t array;
  mutable live : bool;
}

let wait_patiently predicate =
  let spins = ref 0 in
  while not (predicate ()) do
    incr spins;
    if !spins < 1024 then Domain.cpu_relax () else Unix.sleepf 0.0002
  done

let worker pool pid () =
  let seen = ref 0 in
  let continue = ref true in
  while !continue do
    wait_patiently (fun () -> Atomic.get pool.round > !seen || Atomic.get pool.stop);
    if Atomic.get pool.stop then continue := false
    else begin
      let r = Atomic.get pool.round in
      seen := r;
      if pid < pool.participants then begin
        let job = pool.job in
        Atomic.incr pool.ready;
        (* Hot spin here: the release-to-start window is the timed
           region's leading edge. *)
        while Atomic.get pool.go < r && not (Atomic.get pool.stop) do
          Domain.cpu_relax ()
        done;
        if not (Atomic.get pool.stop) then begin
          (* A raising job must neither kill this worker nor leave the
             owner waiting on [finished] forever: record the first
             exception for [run] to re-raise and always check out. *)
          (try job pid
           with e -> ignore (Atomic.compare_and_set pool.failure None (Some e)));
          Atomic.incr pool.finished
        end
      end
    end
  done

let create pool_size =
  if pool_size <= 0 then invalid_arg "Domain_pool.create: size must be positive";
  let pool =
    {
      pool_size;
      job = ignore;
      participants = 0;
      round = Atomic.make 0;
      go = Atomic.make 0;
      ready = Atomic.make 0;
      finished = Atomic.make 0;
      failure = Atomic.make None;
      stop = Atomic.make false;
      workers = [||];
      live = true;
    }
  in
  (* A spawn can fail (the runtime caps live domains); the workers
     already spawned would otherwise wait forever and keep their
     slots, so stop and join them before re-raising. *)
  let spawned = ref [] in
  (try
     for pid = 0 to pool_size - 1 do
       spawned := Domain.spawn (worker pool pid) :: !spawned
     done
   with e ->
     Atomic.set pool.stop true;
     List.iter Domain.join !spawned;
     raise e);
  pool.workers <- Array.of_list (List.rev !spawned);
  pool

let size pool = pool.pool_size

let run pool ~domains body =
  if not pool.live then invalid_arg "Domain_pool.run: pool is shut down";
  if domains <= 0 || domains > pool.pool_size then
    invalid_arg "Domain_pool.run: domains out of range for this pool";
  pool.job <- body;
  pool.participants <- domains;
  Atomic.set pool.ready 0;
  Atomic.set pool.finished 0;
  Atomic.set pool.failure None;
  let r = Atomic.get pool.round + 1 in
  Atomic.set pool.round r;
  wait_patiently (fun () -> Atomic.get pool.ready >= domains);
  let t0 = Unix.gettimeofday () in
  Atomic.set pool.go r;
  wait_patiently (fun () -> Atomic.get pool.finished >= domains);
  let t1 = Unix.gettimeofday () in
  pool.job <- ignore;
  (match Atomic.get pool.failure with
  | Some e ->
      (* Every participant checked out, so the pool is clean and
         reusable; the round itself failed. *)
      Atomic.set pool.failure None;
      raise e
  | None -> ());
  t1 -. t0

let shutdown pool =
  if pool.live then begin
    pool.live <- false;
    Atomic.set pool.stop true;
    Array.iter Domain.join pool.workers;
    pool.workers <- [||]
  end

let with_pool size f =
  let pool = create size in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let round ?pool ~domains body =
  match pool with
  | Some pool -> run pool ~domains body
  | None -> with_pool domains (fun pool -> run pool ~domains body)
