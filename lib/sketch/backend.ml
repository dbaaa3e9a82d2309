module SC = Cn_runtime.Shared_counter
module PA = Cn_runtime.Padded_atomic

type hll = { counter : SC.t; incs : Hll.t; decs : Hll.t }

let hll ?precision ?(slots = 64) () =
  if slots <= 0 then invalid_arg "Backend.hll: slots must be positive";
  let incs = Hll.create ?precision () in
  let decs = Hll.create ?precision () in
  let seqs = PA.make slots ~init:(fun _ -> 0) in
  let mint ~pid =
    let slot = pid mod slots in
    let seq = PA.fetch_and_add seqs slot 1 in
    (seq * slots) + slot
  in
  (* The hot path is mint + observe only — one slot FAA and a CAS-max
     that almost never retries.  Returning the ticket keeps the
     estimator's O(m) register scan off the operation path; estimates
     are read-side ([Hll.cardinality] on [incs]/[decs]). *)
  let next ~pid =
    let key = mint ~pid in
    Hll.add incs key;
    key
  in
  let prev ~pid =
    let key = mint ~pid in
    Hll.add decs key;
    key
  in
  { counter = SC.custom ~name:"hll" ~next ~prev; incs; decs }

type sparse = { counter : SC.t; sketch : Sparse.t }

let sparse ?(counters = 4096) ?degree () =
  let sketch = Sparse.create ?degree ~counters () in
  let next ~pid =
    Sparse.add sketch pid 1;
    Sparse.estimate sketch pid
  in
  let prev ~pid =
    Sparse.add sketch pid (-1);
    Sparse.estimate sketch pid
  in
  { counter = SC.custom ~name:"sparse" ~next ~prev; sketch }
