module V = Cn_runtime.Validator

module type RUNTIME = sig
  type t

  val input_width : t -> int
  val traverse : t -> wire:int -> int
  val traverse_decrement : t -> wire:int -> int
  val traverse_batch : t -> wire:int -> n:int -> f:(int -> int -> unit) -> unit
  val traverse_batch_decrement : t -> wire:int -> n:int -> f:(int -> int -> unit) -> unit
  val peek : t -> wire:int -> int
  val quiescent : t -> V.report
  val net_count : t -> int
end

module type S = sig
  type rt
  type t
  type session
  type op = Inc | Dec
  type error = Overloaded | Closed

  type stats = {
    wires : int;
    batches : int array;
    ops_combined : int array;
    max_batch_observed : int array;
    eliminated_pairs : int array;
    rejected : int array;
    total_batches : int;
    total_ops : int;
    total_eliminated_pairs : int;
    total_rejected : int;
    mean_batch : float;
    elimination_rate : float;
  }

  val make :
    ?max_batch:int ->
    ?queue:int ->
    ?elim:bool ->
    ?validate:V.policy ->
    ?layers:int array ->
    rt ->
    t

  val runtime : t -> rt
  val layers : t -> int array
  val input_width : t -> int
  val session : ?wire:int -> t -> session
  val session_wire : session -> int
  val max_batch : t -> int
  val net : t -> int

  val run :
    session -> op array -> int array -> off:int -> len:int -> (unit, int * error) result

  val increment : session -> (int, error) result
  val decrement : session -> (int, error) result
  val submit : session -> op -> (unit, error) result
  val await : session -> int
  val lifecycle : t -> [ `Running | `Draining | `Stopped ]
  val drain : ?policy:V.policy -> t -> V.report
  val shutdown : ?policy:V.policy -> t -> V.report
  val stats : t -> stats
  val stats_json : t -> string
end

module Make (A : Cn_runtime.Atomics.S) (R : RUNTIME) = struct
  type rt = R.t
  type op = Inc | Dec
  type error = Overloaded | Closed

  (* One lane entry: a run of [len] operations [ops.(off ..)] whose
     values go to [vals.(off ..)].  [done_] is 0 while pending, 1 once
     every value is published; the combiner writes the values before
     the atomic flip, so a client that observes done_ = 1 reads
     published results.  The arrays belong to the caller; cells are
     owned by sessions and reused across runs. *)
  type cell = {
    mutable ops : op array;
    mutable vals : int array;
    mutable off : int;
    mutable len : int;
    done_ : int A.t;
  }

  (* A combining lane, one per input wire.  [slots] is the bounded
     submission queue: publish = CAS [empty] -> cell, take = CAS cell ->
     [empty] (physical equality on the shared sentinel).  The slots are
     packed ([A.make_packed]) side by side: a publisher probes from its
     own [slot_base], few cells are parked at once, and padding every
     slot of every lane cost [make] about 150 KB on C(16,16).
     [combining] and [parked], which every operation touches, stay
     padded.  [combining] is the combiner-election flag; everything
     suffixed [_scr] is scratch owned by whoever holds it.  Stats
     atomics are single-writer (the flag holder) so plain get/set
     suffices. *)
  type lane = {
    wire : int;
    slots : cell A.t array;
    combining : bool A.t;
    parked : int A.t;
        (* cells in [slots] plus publishers committed to parking one:
           incremented before the slot probe so a quiescence check never
           passes while a publisher is mid-flight *)
    mutable next_scan : int;  (* rotating scan start, combiner-owned *)
    cells_scr : cell array;
    inc_scr : int array;
    dec_scr : int array;
    inc_f : int -> int -> unit;  (* stores into [inc_scr]; built once *)
    dec_f : int -> int -> unit;
    net : int A.t;
        (* increments minus decrements of this lane's completed batches,
           added before the batch's waiters can see their values.  Only
           the flag holder writes it, and it is padded, so no two lanes
           write one cache line; [net] sums the lanes. *)
    batches : int A.t;
    ops_combined : int A.t;
    max_batch_observed : int A.t;
    eliminated_pairs : int A.t;
    rejected : int A.t;
  }

  let st_running = 0
  let st_draining = 1
  let st_stopped = 2

  type t = {
    rt : R.t;
    lanes : lane array;
    empty : cell;  (* shared slot sentinel, never a real operation *)
    max_batch : int;
    elim : bool;
    validate : V.policy;
    state : int A.t;
    stop_requested : bool A.t;
        (* sticky shutdown intent: set before competing for the drain,
           read by whoever owns it, so a drain racing a shutdown can
           never re-open a service the shutdown is about to stop *)
    next_wire : int A.t;
    next_session : int A.t;
    layers : int array;  (* per-balancer 1-based depth, for metrics JSON *)
    nets : int A.t array;  (* every lane's [net], for one [A.sum] *)
  }

  type session = {
    svc : t;
    lane : lane;
    cell : cell;
    own : cell option;  (* [Some cell], built once for [combine] *)
    op1 : op array;  (* the run of one behind increment/decrement/submit *)
    val1 : int array;
    slot_base : int;  (* where this session starts its slot scan *)
    mutable outstanding : bool;
  }

  type stats = {
    wires : int;
    batches : int array;
    ops_combined : int array;
    max_batch_observed : int array;
    eliminated_pairs : int array;
    rejected : int array;
    total_batches : int;
    total_ops : int;
    total_eliminated_pairs : int;
    total_rejected : int;
    mean_batch : float;
    elimination_rate : float;
  }

  let dummy_cell () = { ops = [||]; vals = [||]; off = 0; len = 0; done_ = A.make 1 }

  let make_lane ~empty ~wire ~queue ~max_batch =
    (* A combiner never lets an entry carry a non-empty batch past
       [max_batch], and every entry holds at least one operation, so a
       batch fits [max_batch] values in at most [max_batch] cells. *)
    let inc_scr = Array.make max_batch 0 in
    let dec_scr = Array.make max_batch 0 in
    {
      wire;
      slots = Array.init queue (fun _ -> A.make_packed empty);
      combining = A.make false;
      parked = A.make 0;
      next_scan = 0;
      cells_scr = Array.make max_batch empty;
      inc_scr;
      dec_scr;
      inc_f = (fun i v -> inc_scr.(i) <- v);
      dec_f = (fun i v -> dec_scr.(i) <- v);
      net = A.make 0;
      batches = A.make_stat 0;
      ops_combined = A.make_stat 0;
      max_batch_observed = A.make_stat 0;
      eliminated_pairs = A.make_stat 0;
      rejected = A.make_stat 0;
    }

  let make ?(max_batch = 64) ?queue ?(elim = true) ?(validate = V.Strict)
      ?(layers = [||]) rt =
    if max_batch < 1 then
      invalid_arg "Service.create: max_batch must be at least 1";
    let queue = Option.value queue ~default:max_batch in
    if queue < 1 then invalid_arg "Service.create: queue must be at least 1";
    let empty = dummy_cell () in
    let w = R.input_width rt in
    let lanes = Array.init w (fun wire -> make_lane ~empty ~wire ~queue ~max_batch) in
    {
      rt;
      lanes;
      empty;
      max_batch;
      elim;
      validate;
      state = A.make st_running;
      stop_requested = A.make false;
      next_wire = A.make 0;
      next_session = A.make 0;
      layers;
      nets = Array.map (fun lane -> lane.net) lanes;
    }

  let runtime t = t.rt
  let layers t = t.layers
  let input_width t = Array.length t.lanes
  let max_batch t = t.max_batch
  let net t = A.sum t.nets

  let session ?wire t =
    let w = input_width t in
    let wire =
      match wire with
      | Some x ->
          if x < 0 || x >= w then
            invalid_arg
              (Printf.sprintf "Service.session: wire %d out of range [0, %d)" x w);
          x
      | None -> A.fetch_and_add t.next_wire 1 mod w
    in
    let lane = t.lanes.(wire) in
    let cell = dummy_cell () in
    {
      svc = t;
      lane;
      cell;
      own = Some cell;
      op1 = [| Inc |];
      val1 = [| 0 |];
      (* Pre-reduced so the publish probe loop never divides. *)
      slot_base = A.fetch_and_add t.next_session 1 mod Array.length lane.slots;
      outstanding = false;
    }

  let session_wire s = s.lane.wire

  let lifecycle t =
    let s = A.get t.state in
    if s = st_running then `Running
    else if s = st_draining then `Draining
    else `Stopped

  (* Single-writer counter bump: only the lane's flag holder calls these,
     so get/set is enough — Atomic only for cross-domain visibility. *)
  let bump a n = A.set a (A.get a + n)
  let raise_to a n = if n > A.get a then A.set a n

  (* Drain the lane's slots into [cells_scr] (slot [own] first, when the
     combiner brought its own run), run the survivors through the
     network as one batch, eliminate matched inc/dec pairs across every
     entry, publish results.  Caller holds [lane.combining].  [~sweep]
     false skips the slot scan (the caller saw no parked work).
     Returns how many cells were grabbed from the slots, so a sweeper
     can tell an actual grab from a fruitless scan and back off instead
     of hammering the flag. *)
  let combine svc lane ~sweep own =
    let cells = lane.cells_scr in
    let nc = ref 0 and nops = ref 0 in
    (match own with
    | Some c ->
        cells.(0) <- c;
        nc := 1;
        nops := c.len
    | None -> ());
    let cap = Array.length lane.slots in
    let own_n = !nc in
    (* Keep sweeping while new arrivals land and the batch has room: the
       batch grows with the arrival rate.  An entry is taken whole, and
       one that would carry a non-empty batch past [max_batch] is left
       for a later combiner.  Its [len] cannot change between the peek
       and the CAS: only the flag holder takes cells, and an owner
       withdraws its cell only against a draining service, whose drain
       waits for this flag before it can re-admit. *)
    let grabbed = ref sweep in
    while !grabbed && !nops < svc.max_batch do
      grabbed := false;
      let start = lane.next_scan in
      let j = ref 0 in
      while !j < cap && !nops < svc.max_batch do
        let i = start + !j in
        let i = if i >= cap then i - cap else i in
        let slot = lane.slots.(i) in
        let c = A.get slot in
        if
          c != svc.empty
          && (!nops = 0 || !nops + c.len <= svc.max_batch)
          && A.compare_and_set slot c svc.empty
        then begin
          cells.(!nc) <- c;
          incr nc;
          nops := !nops + c.len;
          grabbed := true
        end;
        incr j
      done;
      lane.next_scan <- (if start + 1 >= cap then 0 else start + 1)
    done;
    (* One aggregate update instead of a fenced decrement per take; the
       combiner still holds the flag, so quiescence checks stay sound. *)
    let nc = !nc and n = !nops in
    if nc > own_n then ignore (A.fetch_and_add lane.parked (own_n - nc));
    if n > 0 then begin
      let incs = ref 0 in
      for k = 0 to nc - 1 do
        let c = cells.(k) in
        for i = c.off to c.off + c.len - 1 do
          if c.ops.(i) = Inc then incr incs
        done
      done;
      let incs = !incs in
      let decs = n - incs in
      (* Eliminate matched pairs locally.  A perfectly matched batch
         sends nothing through the network: its anchor pair walks
         read-only (R.peek). *)
      let elim = if svc.elim then min incs decs else 0 in
      let run_incs = incs - elim and run_decs = decs - elim in
      let inc_vals = lane.inc_scr and dec_vals = lane.dec_scr in
      if run_incs > 0 then
        R.traverse_batch svc.rt ~wire:lane.wire ~n:run_incs ~f:lane.inc_f;
      if run_decs > 0 then
        R.traverse_batch_decrement svc.rt ~wire:lane.wire ~n:run_decs ~f:lane.dec_f;
      (* Count the batch before any waiter is released: a client that
         reads [net] after its operation returned sees it counted. *)
      if incs <> decs then bump lane.net (incs - decs);
      let anchor =
        if run_incs > 0 then inc_vals.(0)
        else if run_decs > 0 then dec_vals.(0)
        else R.peek svc.rt ~wire:lane.wire
      in
      let ii = ref 0 and di = ref 0 in
      for k = 0 to nc - 1 do
        let c = cells.(k) in
        let ops = c.ops and vals = c.vals in
        for i = c.off to c.off + c.len - 1 do
          vals.(i) <-
            (match ops.(i) with
            | Inc ->
                if !ii < run_incs then (
                  let v = inc_vals.(!ii) in
                  incr ii;
                  v)
                else anchor
            | Dec ->
                if !di < run_decs then (
                  let v = dec_vals.(!di) in
                  incr di;
                  v)
                else anchor)
        done;
        (* the combiner's own run has no waiter *)
        if k >= own_n then A.set c.done_ 1;
        cells.(k) <- svc.empty (* drop the reference; cells are session-owned *)
      done;
      bump lane.batches 1;
      bump lane.ops_combined n;
      (* the read-only anchor pair is the batch's anchor, not an
         eliminated pair *)
      bump lane.eliminated_pairs (if elim > 0 && incs = decs then elim - 1 else elim);
      raise_to lane.max_batch_observed n
    end;
    nc - own_n

  let spin_limit = 1024

  (* Point the session's cell at a run.  The arrays are stored only when
     they change: a cell lives in the major heap, so each pointer store
     pays the write barrier, and a session's runs of one always reuse
     the same two arrays. *)
  let load cell ops vals off len =
    if cell.ops != ops then cell.ops <- ops;
    if cell.vals != vals then cell.vals <- vals;
    cell.off <- off;
    cell.len <- len

  (* Publish the session's cell, loaded with a run, into a free slot, or
     fail Overloaded.  The parked count is raised BEFORE the slot probe
     and the service state re-checked AFTER the slot CAS: together these
     close the admission hole where a client that passed the
     [st_running] check could park after [sweep_until_quiet] saw the
     lane empty, handing a traversal to a helper past the validated
     quiescence point.  A publisher that parked against a draining or
     stopped service withdraws its cell (unless a combiner already took
     it, in which case the whole run was folded into a pre-validation
     batch and completes normally). *)
  let publish sess ops vals off len =
    let lane = sess.lane and svc = sess.svc in
    let cell = sess.cell in
    load cell ops vals off len;
    A.set cell.done_ 0;
    A.incr lane.parked;
    let cap = Array.length lane.slots in
    let rec find j =
      if j >= cap then begin
        ignore (A.fetch_and_add lane.parked (-1));
        A.incr lane.rejected;
        Error Overloaded
      end
      else
        let i = sess.slot_base + j in
        let i = if i >= cap then i - cap else i in
        let slot = lane.slots.(i) in
        if A.get slot == svc.empty && A.compare_and_set slot svc.empty cell
        then
          if A.get svc.state <> st_running then
            if A.compare_and_set slot cell svc.empty then begin
              ignore (A.fetch_and_add lane.parked (-1));
              Error Closed
            end
            else Ok () (* a combiner already owns it; results incoming *)
          else Ok ()
        else find (j + 1)
    in
    find 0

  (* Wait for the cell's results, helping combine whenever the lane has
     no combiner.  A combiner that took the cell but has not yet
     published holds [combining], so helping cannot race with it. *)
  let wait_for sess =
    let lane = sess.lane and svc = sess.svc in
    let cell = sess.cell in
    let spins = ref 0 in
    while A.get cell.done_ = 0 do
      if A.compare_and_set lane.combining false true then begin
        if A.get cell.done_ = 0 then ignore (combine svc lane ~sweep:true None);
        A.set lane.combining false
      end
      else begin
        incr spins;
        if !spins < spin_limit then A.relax ()
        else begin
          spins := 0;
          A.nap ()
        end
      end
    done

  (* The one admission path: a run of [len] (1 <= len <= max_batch)
     operations, admitted with one state check and one flag CAS.  The
     flag holder drains the run through [combine] together with whatever
     other sessions parked; a run of one on a quiet lane goes straight
     through the network.  A busy flag publishes the run as one lane
     entry, which the current combiner drains whole. *)
  let exec sess ops vals off len =
    let svc = sess.svc in
    if A.get svc.state <> st_running then Error Closed
    else begin
      let lane = sess.lane in
      if A.compare_and_set lane.combining false true then
        (* Re-check under the flag: a drain that flipped the state after
           our admission check will wait for the flag, so aborting here
           guarantees no traversal slips past a draining service. *)
        if A.get svc.state <> st_running then begin
          A.set lane.combining false;
          Error Closed
        end
        else begin
          let parked = A.get lane.parked in
          if parked = 0 && len = 1 then begin
            (* Uncontended fast path: a batch of one, straight through. *)
            bump lane.batches 1;
            bump lane.ops_combined 1;
            raise_to lane.max_batch_observed 1;
            match ops.(off) with
            | Inc ->
                vals.(off) <- R.traverse svc.rt ~wire:lane.wire;
                bump lane.net 1
            | Dec ->
                vals.(off) <- R.traverse_decrement svc.rt ~wire:lane.wire;
                bump lane.net (-1)
          end
          else begin
            load sess.cell ops vals off len;
            ignore (combine svc lane ~sweep:(parked > 0) sess.own)
          end;
          A.set lane.combining false;
          Ok ()
        end
      else
        match publish sess ops vals off len with
        | Error _ as e -> e
        | Ok () ->
            wait_for sess;
            Ok ()
    end

  (* Chunk [off, stop) into runs of at most [max_batch]; stop at the
     first refused chunk. *)
  let rec run_from sess ops vals i stop =
    if i >= stop then Ok ()
    else
      let len = min sess.svc.max_batch (stop - i) in
      match exec sess ops vals i len with
      | Ok () -> run_from sess ops vals (i + len) stop
      | Error e -> Error (i, e)

  let check_idle sess =
    if sess.outstanding then
      invalid_arg "Service: session has an outstanding submit"

  let run sess ops vals ~off ~len =
    check_idle sess;
    if
      off < 0 || len < 0
      || off + len > Array.length ops
      || off + len > Array.length vals
    then invalid_arg "Service.run: range out of bounds";
    run_from sess ops vals off (off + len)

  let run_one sess op =
    check_idle sess;
    sess.op1.(0) <- op;
    match exec sess sess.op1 sess.val1 0 1 with
    | Ok () -> Ok sess.val1.(0)
    | Error _ as e -> e

  let increment s = run_one s Inc
  let decrement s = run_one s Dec

  let submit sess op =
    if sess.outstanding then
      invalid_arg "Service.submit: session already has an outstanding submit";
    if A.get sess.svc.state <> st_running then Error Closed
    else begin
      sess.op1.(0) <- op;
      match publish sess sess.op1 sess.val1 0 1 with
      | Error _ as e -> e
      | Ok () ->
          sess.outstanding <- true;
          Ok ()
    end

  let await sess =
    if not sess.outstanding then
      invalid_arg "Service.await: nothing submitted on this session";
    wait_for sess;
    sess.outstanding <- false;
    sess.val1.(0)

  let quiesced t =
    Array.for_all
      (fun lane -> A.get lane.parked = 0 && not (A.get lane.combining))
      t.lanes

  (* Help every lane run dry: elect ourselves combiner wherever work is
     parked, then wait out in-flight combiners.  [parked] counts
     mid-flight publishers as well as parked cells, so this cannot
     declare quiescence while an admitted operation is still hunting for
     a slot — such a publisher either parks (and is swept or withdraws)
     or fails Overloaded, both of which drop the count. *)
  let sweep_until_quiet t =
    let spins = ref 0 in
    while not (quiesced t) do
      let progressed = ref false in
      Array.iter
        (fun lane ->
          if
            A.get lane.parked > 0
            && A.compare_and_set lane.combining false true
          then begin
            if combine t lane ~sweep:true None > 0 then progressed := true;
            A.set lane.combining false
          end)
        t.lanes;
      if not !progressed then begin
        incr spins;
        if !spins < spin_limit then A.relax ()
        else begin
          spins := 0;
          A.nap ()
        end
      end
    done

  (* The runtime's quiescence checks plus the lanes' net words against
     the runtime's own count.  Once every lane is quiet each batch has
     added its share, so the two agree unless an update was lost or
     doubled. *)
  let validate t =
    let report = R.quiescent t.rt in
    let count = net t and cells = R.net_count t.rt in
    let agreement =
      {
        V.name = "net-agreement";
        ok = count = cells;
        detail = Printf.sprintf "net count %d, runtime net %d" count cells;
      }
    in
    { report with V.checks = report.V.checks @ [ agreement ] }

  (* Lifecycle transitions are CAS-elected and [st_stopped] is terminal:
     exactly one caller owns a running -> draining transition; everyone
     else waits for the owner to finish and then takes its own turn (or
     observes the terminal stop).  A shutdown publishes its sticky
     [stop_requested] intent first, so an owner that validated before
     the shutdown could compete never resurrects the service — it reads
     the intent after validation and closes instead of re-opening. *)
  let rec drain_to ~final ~policy t =
    if final = st_stopped then A.set t.stop_requested true;
    let s = A.get t.state in
    if s = st_stopped then begin
      (* Terminal: the network is quiesced and frozen; validate and
         report without touching the lifecycle. *)
      let report = validate t in
      V.enforce policy report;
      report
    end
    else if s = st_running && A.compare_and_set t.state st_running st_draining
    then begin
      sweep_until_quiet t;
      let report = validate t in
      (match V.enforce policy report with
      | () ->
          let final' =
            if A.get t.stop_requested then st_stopped else final
          in
          A.set t.state final'
      | exception e ->
          (* Strict failure: close terminally rather than leaving the
             service draining — a stuck intermediate state concurrent
             drains would wait on forever. *)
          A.set t.state st_stopped;
          raise e);
      report
    end
    else begin
      (* Someone else owns the drain; wait it out, then retry. *)
      let spins = ref 0 in
      while A.get t.state = st_draining do
        incr spins;
        if !spins < spin_limit then A.relax ()
        else begin
          spins := 0;
          A.nap ()
        end
      done;
      drain_to ~final ~policy t
    end

  let drain ?policy t =
    drain_to ~final:st_running ~policy:(Option.value policy ~default:t.validate) t

  let shutdown ?policy t =
    drain_to ~final:st_stopped ~policy:(Option.value policy ~default:t.validate) t

  let stats t =
    let per f = Array.map (fun l -> A.get (f l)) t.lanes in
    let sum a = Array.fold_left ( + ) 0 a in
    let batches = per (fun l -> l.batches) in
    let ops_combined = per (fun l -> l.ops_combined) in
    let eliminated_pairs = per (fun l -> l.eliminated_pairs) in
    let rejected = per (fun l -> l.rejected) in
    let total_batches = sum batches in
    let total_ops = sum ops_combined in
    let total_eliminated_pairs = sum eliminated_pairs in
    {
      wires = Array.length t.lanes;
      batches;
      ops_combined;
      max_batch_observed = per (fun l -> l.max_batch_observed);
      eliminated_pairs;
      rejected;
      total_batches;
      total_ops;
      total_eliminated_pairs;
      total_rejected = sum rejected;
      mean_batch =
        (if total_batches = 0 then 0.
         else float_of_int total_ops /. float_of_int total_batches);
      elimination_rate =
        (if total_ops = 0 then 0.
         else
           float_of_int (2 * total_eliminated_pairs) /. float_of_int total_ops);
    }

  let json_int_array a =
    "[" ^ String.concat ", " (Array.to_list (Array.map string_of_int a)) ^ "]"

  let stats_json t =
    let s = stats t in
    let b = Buffer.create 512 in
    Buffer.add_string b "{\n";
    Printf.bprintf b "  \"wires\": %d,\n" s.wires;
    Printf.bprintf b "  \"batches\": %d,\n" s.total_batches;
    Printf.bprintf b "  \"ops_combined\": %d,\n" s.total_ops;
    Printf.bprintf b "  \"mean_batch\": %.3f,\n" s.mean_batch;
    Printf.bprintf b "  \"eliminated_pairs\": %d,\n" s.total_eliminated_pairs;
    Printf.bprintf b "  \"elimination_rate\": %.4f,\n" s.elimination_rate;
    Printf.bprintf b "  \"rejected\": %d,\n" s.total_rejected;
    Printf.bprintf b "  \"per_wire_batches\": %s,\n" (json_int_array s.batches);
    Printf.bprintf b "  \"per_wire_ops\": %s,\n" (json_int_array s.ops_combined);
    Printf.bprintf b "  \"per_wire_max_batch\": %s,\n"
      (json_int_array s.max_batch_observed);
    Printf.bprintf b "  \"per_wire_eliminated\": %s,\n"
      (json_int_array s.eliminated_pairs);
    Printf.bprintf b "  \"per_wire_rejected\": %s\n" (json_int_array s.rejected);
    Buffer.add_string b "}";
    Buffer.contents b
end
