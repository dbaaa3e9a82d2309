(* Single OS thread: the "atomicity" of each operation is the absence of
   a yield inside it — the controller interleaves fibers only at the
   [Engine.yield] before each access.  The id gives every atom a
   deterministic (creation-order) identity so values containing atoms
   hash stably across re-executions. *)

type 'a t = { mutable v : 'a; id : int; stat : bool }

let make v =
  let r = { v; id = Engine.fresh_id (); stat = false } in
  Engine.register (fun () -> Engine.enc_obj (Obj.repr r.v));
  r

(* Packing is a memory layout, not a protocol: same atom as [make]. *)
let make_packed = make

let make_stat v = { v; id = Engine.fresh_id (); stat = true }

let get r =
  if r.stat then r.v
  else begin
    Engine.yield ~blocking:false;
    let v = r.v in
    Engine.observe (Obj.repr v);
    v
  end

let set r v =
  if r.stat then r.v <- v
  else begin
    Engine.yield ~blocking:false;
    r.v <- v;
    Engine.wrote ()
  end

let compare_and_set r seen v =
  if r.stat then
    if r.v == seen then begin
      r.v <- v;
      true
    end
    else false
  else begin
    Engine.yield ~blocking:false;
    let ok = r.v == seen in
    if ok then begin
      r.v <- v;
      Engine.wrote ()
    end;
    Engine.observe (Obj.repr ok);
    ok
  end

let fetch_and_add r d =
  if r.stat then begin
    let old = r.v in
    r.v <- old + d;
    old
  end
  else begin
    Engine.yield ~blocking:false;
    let old = r.v in
    r.v <- old + d;
    Engine.wrote ();
    Engine.observe (Obj.repr old);
    old
  end

let incr r = ignore (fetch_and_add r 1)
let sum a = Array.fold_left (fun s r -> s + get r) 0 a
let relax () = Engine.yield ~blocking:true
let nap () = Engine.yield ~blocking:true
