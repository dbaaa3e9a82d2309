type result = {
  counter : string;
  domains : int;
  total_ops : int;
  seconds : float;
  ops_per_sec : float;
}

let check_args ~domains ~ops_per_domain =
  if domains <= 0 then invalid_arg "Harness: domains must be positive";
  if ops_per_domain < 0 then invalid_arg "Harness: negative ops_per_domain";
  if ops_per_domain > 0 && domains > max_int / ops_per_domain then
    invalid_arg "Harness: domains * ops_per_domain overflows"

let run_ops ?pool ~counter ~domains ~ops_per_domain ~record () =
  Domain_pool.round ?pool ~domains (fun pid ->
      for i = 0 to ops_per_domain - 1 do
        record pid i (Shared_counter.next counter ~pid)
      done)

(* A round too short for the wall clock to resolve must not report a
   throughput of zero (the old behaviour — a lie that poisons sweep
   aggregates).  Double the per-domain ops until the timer registers;
   the escalation is bounded, and a clock that never advances is a
   broken environment worth failing loudly over. *)
let max_calibration_ops = 1 lsl 24

(* The next escalation step, or [None] when escalation must stop.
   Overflow safety is checked by division only — the earlier guard
   computed [ops_per_domain * 2] before establishing it could not
   overflow, which wraps for ops_per_domain > max_int / 2 and turns the
   bound into garbage.  Divide first, never multiply unchecked. *)
let next_calibration_ops ~domains ~ops_per_domain =
  if domains <= 0 then None
  else if ops_per_domain >= max_calibration_ops then None
  else if ops_per_domain > max_int / 2 then None (* doubling would overflow *)
  else
    let doubled = max 1 (ops_per_domain * 2) in
    if domains > max_int / doubled then None (* total_ops would overflow *)
    else Some doubled

let throughput ?pool ~make ~domains ~ops_per_domain () =
  check_args ~domains ~ops_per_domain;
  let rec attempt ops_per_domain =
    let counter = make () in
    let seconds =
      run_ops ?pool ~counter ~domains ~ops_per_domain ~record:(fun _ _ _ -> ()) ()
    in
    let total_ops = domains * ops_per_domain in
    if seconds > 0. && total_ops > 0 then
      {
        counter = Shared_counter.name counter;
        domains;
        total_ops;
        seconds;
        ops_per_sec = float_of_int total_ops /. seconds;
      }
    else
      match next_calibration_ops ~domains ~ops_per_domain with
      | Some ops -> attempt ops
      | None ->
          failwith
            (Printf.sprintf
               "Harness.throughput: clock did not advance over %d ops; cannot measure" total_ops)
  in
  attempt ops_per_domain

let run_collect ?pool ?(validate = Validator.Log) ~make ~domains ~ops_per_domain () =
  check_args ~domains ~ops_per_domain;
  let counter = make () in
  let values = Array.init domains (fun _ -> Array.make ops_per_domain (-1)) in
  let _ =
    run_ops ?pool ~counter ~domains ~ops_per_domain
      ~record:(fun pid i v -> values.(pid).(i) <- v)
      ()
  in
  (match validate with
  | Validator.Off -> ()
  | policy ->
      Validator.enforce policy (Validator.collected_values values);
      Option.iter
        (fun rt -> Validator.enforce policy (Validator.quiescent_runtime rt))
        (Shared_counter.runtime counter));
  values

let values_are_a_range = Validator.values_form_a_range
