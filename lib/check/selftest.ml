module A = Instrumented

(* A deliberately buggy miniature of the PRE-FIX service protocol: one
   combining lane, a single counter standing in for the network, and the
   two original races preserved verbatim in shape — see the .mli.  Kept
   small so the failing schedules stay short enough to read. *)

let st_running = 0
let st_draining = 1
let st_stopped = 2

type cell = { mutable result : int; done_ : int A.t }

type t = {
  counter : int A.t;
  slots : cell A.t array;
  combining : bool A.t;
  parked : int A.t;
  state : int A.t;
  empty : cell;
  mutable last_validated : int option;
}

let make ~queue () =
  let empty = { result = 0; done_ = A.make 1 } in
  {
    counter = A.make 0;
    slots = Array.init queue (fun _ -> A.make empty);
    combining = A.make false;
    parked = A.make 0;
    state = A.make st_running;
    empty;
    last_validated = None;
  }

(* Caller holds [combining]. *)
let combine t =
  let taken = ref 0 in
  Array.iter
    (fun slot ->
      let c = A.get slot in
      if c != t.empty && A.compare_and_set slot c t.empty then begin
        c.result <- A.fetch_and_add t.counter 1;
        A.set c.done_ 1;
        incr taken
      end)
    t.slots;
  if !taken > 0 then ignore (A.fetch_and_add t.parked (- !taken))

(* BUG (admission): the slot CAS lands first, [parked] rises only
   afterwards, and the service state is never re-checked — the fixed
   protocol raises [parked] before probing and withdraws the cell when
   the state moved. *)
let publish t cell =
  A.set cell.done_ 0;
  let cap = Array.length t.slots in
  let rec find j =
    if j >= cap then false
    else
      let slot = t.slots.(j) in
      if A.get slot == t.empty && A.compare_and_set slot t.empty cell then begin
        A.incr t.parked;
        true
      end
      else find (j + 1)
  in
  find 0

let wait_for t cell =
  while A.get cell.done_ = 0 do
    if A.compare_and_set t.combining false true then begin
      if A.get cell.done_ = 0 then combine t;
      A.set t.combining false
    end
    else A.relax ()
  done;
  cell.result

type error = Overloaded | Closed

let increment t cell =
  if A.get t.state <> st_running then Error Closed
  else if A.compare_and_set t.combining false true then begin
    if A.get t.state <> st_running then begin
      A.set t.combining false;
      Error Closed
    end
    else begin
      if A.get t.parked > 0 then combine t;
      let v = A.fetch_and_add t.counter 1 in
      A.set t.combining false;
      Ok v
    end
  end
  else if publish t cell then Ok (wait_for t cell)
  else Error Overloaded

(* BUG (run admission): the run path passes the admission check, wins
   the flag and traverses its whole run without re-checking the state
   under the flag — the fixed [Service_core] run re-checks after the
   flag CAS, because a drain that flipped the state in between will
   find the lane quiet and validate without waiting for the flag. *)
let run t n =
  let rec go () =
    if A.get t.state <> st_running then Error Closed
    else if A.compare_and_set t.combining false true then begin
      if A.get t.parked > 0 then combine t;
      for _ = 1 to n do
        ignore (A.fetch_and_add t.counter 1)
      done;
      A.set t.combining false;
      Ok ()
    end
    else begin
      A.relax ();
      go ()
    end
  in
  go ()

let quiesced t = A.get t.parked = 0 && not (A.get t.combining)

let sweep t =
  while not (quiesced t) do
    if A.get t.parked > 0 && A.compare_and_set t.combining false true then begin
      combine t;
      A.set t.combining false
    end
    else A.relax ()
  done

let exchange state v =
  let rec go () =
    let s = A.get state in
    if A.compare_and_set state s v then s else go ()
  in
  go ()

(* BUG (lifecycle): [prior] — read before the sweep — decides the final
   state, so a drain that exchanged away a concurrent shutdown's
   [st_draining] re-opens the service after that shutdown stopped it. *)
let drain_to ~final t =
  let prior = exchange t.state st_draining in
  if prior = st_stopped then A.set t.state st_stopped
  else begin
    sweep t;
    t.last_validated <- Some (A.get t.counter);
    A.set t.state final
  end

let drain t = drain_to ~final:st_running t
let shutdown t = drain_to ~final:st_stopped t

(* ---- scenarios ---- *)

let finish t shutdowns () =
  if !shutdowns > 0 && A.get t.state <> st_stopped then
    Some "stopped service resurrected by a racing drain"
  else
    match t.last_validated with
    | Some v when A.get t.state = st_stopped && A.get t.counter <> v ->
        Some
          (Printf.sprintf
             "counter mutated after the validated quiescence point (%d -> %d)" v
             (A.get t.counter))
    | _ -> None

let lifecycle_race () =
  let t = make ~queue:2 () in
  let shutdowns = ref 0 in
  {
    Engine.name = "selftest-lifecycle";
    fibers =
      [|
        (fun () -> drain t);
        (fun () ->
          shutdown t;
          incr shutdowns);
      |];
    finish = finish t shutdowns;
  }

let admission_race () =
  let t = make ~queue:2 () in
  let shutdowns = ref 0 in
  let w cell () = ignore (increment t cell) in
  {
    Engine.name = "selftest-admission";
    fibers =
      [|
        w { result = 0; done_ = A.make 1 };
        w { result = 0; done_ = A.make 1 };
        (fun () ->
          shutdown t;
          incr shutdowns);
      |];
    finish = finish t shutdowns;
  }

let run_race () =
  let t = make ~queue:2 () in
  let shutdowns = ref 0 in
  {
    Engine.name = "selftest-run";
    fibers =
      [|
        (fun () -> ignore (run t 3));
        (fun () ->
          shutdown t;
          incr shutdowns);
      |];
    finish = finish t shutdowns;
  }

(* Reproducers found by [Engine.explore] on the scenarios above (first
   failing schedule in DFS order); regenerate by printing
   [failure.schedule] if the models change. *)
let lifecycle_schedule = [ 0; 0; 0; 0; 0; 0; 1; 1; 1; 1; 1; 1; 1; 0 ]

let admission_schedule =
  [
    0; 0; 0; 0; 0; 0; 1; 1; 1; 0; 2; 2; 2; 2; 2; 2; 2; 1; 1; 1; 1; 1; 1; 1; 1;
    1; 1; 1; 1; 1; 1; 1;
  ]

let run_schedule = [ 0; 0; 1; 1; 1; 1; 1; 1; 0; 0; 0; 0; 0; 0; 1 ]
