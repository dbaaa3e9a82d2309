module DP = Cn_runtime.Domain_pool

type skew = Uniform | Zipf of float
type arrival = Closed of float | Bursty of { burst : int; pause : float }

let skew_of_string s =
  match String.split_on_char ':' s with
  | [ "uniform" ] -> Ok Uniform
  | [ "zipf"; a ] -> (
      match float_of_string_opt a with
      | Some alpha when alpha > 0. -> Ok (Zipf alpha)
      | _ -> Error (Printf.sprintf "--skew zipf exponent must be positive (got %S)" a))
  | _ -> Error (Printf.sprintf "unknown skew %S (expected uniform or zipf:ALPHA)" s)

let arrival_of_string s =
  match String.split_on_char ':' s with
  | [ "closed" ] -> Ok (Closed 0.)
  | [ "closed"; t ] -> (
      match float_of_string_opt t with
      | Some think when think >= 0. -> Ok (Closed think)
      | _ -> Error (Printf.sprintf "--arrival closed think time must be >= 0 (got %S)" t))
  | [ "burst"; n; p ] -> (
      match (int_of_string_opt n, float_of_string_opt p) with
      | Some burst, Some pause when burst >= 1 && pause >= 0. -> Ok (Bursty { burst; pause })
      | _ -> Error (Printf.sprintf "--arrival burst needs N >= 1 and PAUSE >= 0 (got %S)" s))
  | _ -> Error (Printf.sprintf "unknown arrival %S (expected closed[:THINK] or burst:N:PAUSE)" s)

type spec = {
  domains : int;
  ops_per_domain : int;
  sessions_per_domain : int;
  dec_ratio : float;
  skew : skew;
  arrival : arrival;
  seed : int;
}

let default =
  {
    domains = 4;
    ops_per_domain = 1000;
    sessions_per_domain = 2;
    dec_ratio = 0.;
    skew = Uniform;
    arrival = Closed 0.;
    seed = 42;
  }

type stats = {
  completed : int;
  increments : int;
  decrements : int;
  rejected : int;
  achieved_dec_ratio : float;
  seconds : float;
  ops_per_sec : float;
  busy_seconds : float;
  busy_ops_per_sec : float;
}

let check spec =
  if spec.domains < 1 then invalid_arg "Workload: domains must be positive";
  if spec.ops_per_domain < 0 then
    invalid_arg "Workload: negative ops_per_domain";
  if spec.sessions_per_domain < 1 then
    invalid_arg "Workload: sessions_per_domain must be positive";
  if spec.dec_ratio < 0. || spec.dec_ratio > 1. then
    invalid_arg "Workload: dec_ratio must be in [0, 1]";
  (match spec.skew with
  | Uniform -> ()
  | Zipf alpha ->
      if alpha <= 0. then invalid_arg "Workload: Zipf exponent must be positive");
  match spec.arrival with
  | Closed think ->
      if think < 0. then invalid_arg "Workload: negative think time"
  | Bursty { burst; pause } ->
      if burst < 1 then invalid_arg "Workload: burst must be positive";
      if pause < 0. then invalid_arg "Workload: negative pause"

(* Cumulative distribution over session popularity.  Uniform is the
   identity CDF; Zipf weights session i+1 as 1/(i+1)^alpha.  Summing
   w.(i)/total accumulates float rounding error, so the running sum can
   land strictly below (or above) 1.0 at the last entry; [pick] scans
   with [cdf.(i) <= u], so a final entry below 1.0 would silently
   underweight the last session whenever u falls in the gap.  Clamp
   every entry into [0, 1] and pin the last to exactly 1.0. *)
let session_cdf skew n =
  if n < 1 then invalid_arg "Workload.session_cdf: width must be positive";
  match skew with
  | Uniform -> Array.init n (fun i -> float_of_int (i + 1) /. float_of_int n)
  | Zipf alpha ->
      if alpha <= 0. then
        invalid_arg "Workload.session_cdf: Zipf exponent must be positive";
      let w = Array.init n (fun i -> (1. /. float_of_int (i + 1)) ** alpha) in
      let total = Array.fold_left ( +. ) 0. w in
      let acc = ref 0. in
      let cdf =
        Array.map
          (fun x ->
            acc := !acc +. (x /. total);
            Float.min !acc 1.0)
          w
      in
      cdf.(n - 1) <- 1.0;
      cdf

let pick rng cdf =
  let u = Random.State.float rng 1.0 in
  let n = Array.length cdf in
  let i = ref 0 in
  while !i < n - 1 && cdf.(!i) <= u do
    incr i
  done;
  !i

let run ?pool svc spec =
  check spec;
  let spd = spec.sessions_per_domain in
  (* Domain-major registration so session wires follow the service's
     round-robin: domain d, local session j sits on wire
     (d * spd + j) mod w. *)
  let sessions =
    Array.init spec.domains (fun _ ->
        Array.init spd (fun _ -> Service.session svc))
  in
  let completed = Array.make spec.domains 0 in
  let increments = Array.make spec.domains 0 in
  let decrements = Array.make spec.domains 0 in
  let rejected = Array.make spec.domains 0 in
  let slept = Array.make spec.domains 0. in
  let body pid =
    let rng = Random.State.make [| spec.seed; pid |] in
    let cdf = session_cdf spec.skew spd in
    let mine = sessions.(pid) in
    let balance = ref 0 in
    let owed = ref 0 in
    (* Injected idle time is measured (not just the requested amount:
       sleepf oversleeps) so busy-time throughput can back it out. *)
    let sleep d =
      let t0 = Unix.gettimeofday () in
      Unix.sleepf d;
      slept.(pid) <- slept.(pid) +. (Unix.gettimeofday () -. t0)
    in
    for k = 0 to spec.ops_per_domain - 1 do
      (match spec.arrival with
      | Closed think -> if think > 0. then sleep think
      | Bursty { burst; pause } ->
          if k > 0 && k mod burst = 0 then sleep pause);
      let s = mine.(pick rng cdf) in
      (* Draw first, pay later: a drawn decrement that lands while the
         client's balance is zero cannot be emitted (prefix
         non-negativity — a client never hands back more than it has
         taken), so it is banked in [owed] and emitted as soon as the
         balance allows.  Every draw is eventually paid with exactly
         one decrement, so the achieved dec fraction converges on
         [spec.dec_ratio] instead of undershooting it on every
         zero-balance conversion (the old behaviour silently emitted
         an increment and forgot the draw). *)
      if Random.State.float rng 1.0 < spec.dec_ratio then incr owed;
      let dec = !owed > 0 && !balance > 0 in
      match (if dec then Service.decrement s else Service.increment s) with
      | Ok _ ->
          completed.(pid) <- completed.(pid) + 1;
          if dec then begin
            decrements.(pid) <- decrements.(pid) + 1;
            decr owed;
            decr balance
          end
          else begin
            increments.(pid) <- increments.(pid) + 1;
            incr balance
          end
      | Error _ ->
          (* A rejected decrement leaves both the balance and the debt
             untouched; the draw is retried on a later operation. *)
          rejected.(pid) <- rejected.(pid) + 1
    done
  in
  let seconds = DP.round ?pool ~domains:spec.domains body in
  let sum a = Array.fold_left ( + ) 0 a in
  let completed = sum completed in
  let decrements = sum decrements in
  let achieved_dec_ratio =
    if completed = 0 then 0. else float_of_int decrements /. float_of_int completed
  in
  (* The domains sleep concurrently, so wall-clock idle per run is the
     mean injected idle across domains, not the sum. *)
  let mean_slept = Array.fold_left ( +. ) 0. slept /. float_of_int spec.domains in
  let busy_seconds = Float.max 0. (seconds -. mean_slept) in
  let rate s = if s > 0. then float_of_int completed /. s else 0. in
  {
    completed;
    increments = sum increments;
    decrements;
    rejected = sum rejected;
    achieved_dec_ratio;
    seconds;
    ops_per_sec = rate seconds;
    busy_seconds;
    busy_ops_per_sec = rate busy_seconds;
  }
