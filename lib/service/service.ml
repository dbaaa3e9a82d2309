module RT = Cn_runtime.Network_runtime
module V = Cn_runtime.Validator
module Metrics = Cn_runtime.Metrics

(* The production service is Service_core's protocol instantiated with
   the real atomics and the compiled runtime; the deterministic race
   checker (Cn_check) instantiates the same functor with instrumented
   atomics, so the code below is exactly what gets model-checked. *)

module Rt_real = struct
  type t = RT.t

  let input_width = RT.input_width
  let traverse = RT.traverse
  let traverse_decrement = RT.traverse_decrement
  let traverse_batch = RT.traverse_batch
  let traverse_batch_decrement = RT.traverse_batch_decrement
  let quiescent = V.quiescent_runtime
end

module Core = Service_core.Make (Cn_runtime.Atomics.Real) (Rt_real)
include Core

let create ?mode ?metrics ?max_batch ?queue ?elim ?validate net =
  let rt = RT.compile ?mode ?metrics net in
  let layers =
    let module T = Cn_network.Topology in
    Array.init (T.size net) (T.balancer_depth net)
  in
  Core.make ?max_batch ?queue ?elim ?validate ~layers rt

let report_json t =
  let network =
    match RT.metrics (Core.runtime t) with
    | Some m -> Metrics.to_json ~layers:(Core.layers t) (Metrics.snapshot m)
    | None -> "null"
  in
  Printf.sprintf "{\n\"service\": %s,\n\"network\": %s\n}" (stats_json t)
    (String.trim network)

let shared_counter ?(sessions = 64) t =
  if sessions < 1 then
    invalid_arg "Service.shared_counter: sessions must be at least 1";
  (* Sessions are single-owner (mutable cell, outstanding flag), so two
     processes must never share one: the pool holds one session per
     process id and grows on demand — [sessions] only sizes the
     pre-allocated prefix.  Growth is rare (once per high-water pid),
     so a plain mutex is fine; readers go through the atomic snapshot
     and never lock. *)
  let module A = Cn_runtime.Atomics.Real in
  let pool = A.make (Array.init sessions (fun _ -> session t)) in
  let lock =
    (Mutex.create
    [@atomlint.allow
      "growth-path-only lock: taken once per high-water pid, never on \
       the operation fast path, which reads the atomic pool snapshot"])
      ()
  in
  (* The lock is confined to the miss path: a covered pid costs one
     atomic snapshot read and an array index, never the mutex.  On a
     miss the pool length is re-read under the lock (double-read) so
     racing growers serialize and only the first one actually grows;
     the session is then returned straight from the post-grow
     snapshot — no retry loop, so a grower can never be starved by a
     stream of concurrent misses. *)
  let session_for pid =
    let p = A.get pool in
    if pid < Array.length p then p.(pid)
    else begin
      (Mutex.lock [@atomlint.allow "growth path, see create above"]) lock;
      let p = A.get pool in
      let q =
        if pid < Array.length p then p
        else begin
          let n = max (pid + 1) (2 * Array.length p) in
          let q =
            Array.init n (fun i ->
                if i < Array.length p then p.(i) else session t)
          in
          A.set pool q;
          q
        end
      in
      (Mutex.unlock [@atomlint.allow "growth path, see create above"]) lock;
      q.(pid)
    end
  in
  let rec op f ~pid =
    match f (session_for pid) with
    | Ok v -> v
    | Error Overloaded ->
        Domain.cpu_relax ();
        op f ~pid
    | Error Closed -> failwith "Service.shared_counter: service is closed"
  in
  Cn_runtime.Shared_counter.custom ~name:"service" ~runtime:(Core.runtime t)
    ~next:(fun ~pid -> op increment ~pid)
    ~prev:(fun ~pid -> op decrement ~pid)
    ()

(* ------------------------------------------------------------------ *)
(* Backend profiles: exact network-backed counting vs the Cn_sketch
   approximate tiers, behind one Shared_counter surface. *)

type backend =
  | Exact
  | Hll of { precision : int }
  | Sparse of { counters : int; degree : int }

let backend_of_string = function
  | "exact" -> Ok Exact
  | "hll" -> Ok (Hll { precision = 14 })
  | "sparse" -> Ok (Sparse { counters = 4096; degree = 3 })
  | s -> Error (Printf.sprintf "unknown backend %S (expected exact|hll|sparse)" s)

let backend_name = function
  | Exact -> "exact"
  | Hll _ -> "hll"
  | Sparse _ -> "sparse"

let backend_counter ?sessions t = function
  | Exact -> shared_counter ?sessions t
  | Hll { precision } -> (Cn_sketch.Backend.hll ~precision ()).Cn_sketch.Backend.counter
  | Sparse { counters; degree } ->
      (Cn_sketch.Backend.sparse ~counters ~degree ()).Cn_sketch.Backend.counter
