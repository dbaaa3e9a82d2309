(* Spans recorded by the benchmark around its calls into each layer.
   Storage is preallocated: recording writes four ints and a pointer to
   a constant name, and a full store drops further spans instead of
   growing.  One store per recording thread or domain. *)

type t = {
  mutable n : int;
  parent : int array;  (* index of the parent span, -1 for a root *)
  name : string array;
  start_ns : int array;
  end_ns : int array;
}

let create cap =
  {
    n = 0;
    parent = Array.make cap (-1);
    name = Array.make cap "";
    start_ns = Array.make cap 0;
    end_ns = Array.make cap 0;
  }

(* Records a span and returns its index, or -1 when the store is full. *)
let add t ~parent name start stop =
  let i = t.n in
  if i >= Array.length t.parent then -1
  else begin
    t.parent.(i) <- parent;
    t.name.(i) <- name;
    t.start_ns.(i) <- start;
    t.end_ns.(i) <- stop;
    t.n <- i + 1;
    i
  end

(* A root span and the children that tile it, in one call; a root that
   does not fit whole is not recorded at all. *)
let add_tree t root_name start stop children =
  if t.n + 1 + List.length children <= Array.length t.parent then begin
    let root = add t ~parent:(-1) root_name start stop in
    List.iter (fun (name, s, e) -> ignore (add t ~parent:root name s e)) children
  end

type name_summary = { spans : int; total_ns : int; self_ns : int }

type summary = {
  by_name : (string * name_summary) list;  (* first-seen order *)
  roots : int;
  coverage : float;  (* sum of root children / sum of roots *)
  within_5pct : float;  (* share of roots whose children sum within 5% *)
}

let summarize stores =
  let tbl = Hashtbl.create 16 and order = ref [] in
  let roots = ref 0 and root_total = ref 0 and covered = ref 0 and close = ref 0 in
  List.iter
    (fun t ->
      let child_sum = Array.make t.n 0 in
      for i = 0 to t.n - 1 do
        let p = t.parent.(i) in
        if p >= 0 then child_sum.(p) <- child_sum.(p) + (t.end_ns.(i) - t.start_ns.(i))
      done;
      for i = 0 to t.n - 1 do
        let d = t.end_ns.(i) - t.start_ns.(i) in
        let name = t.name.(i) in
        if not (Hashtbl.mem tbl name) then order := name :: !order;
        let s =
          Option.value (Hashtbl.find_opt tbl name) ~default:{ spans = 0; total_ns = 0; self_ns = 0 }
        in
        Hashtbl.replace tbl name
          {
            spans = s.spans + 1;
            total_ns = s.total_ns + d;
            self_ns = s.self_ns + max 0 (d - child_sum.(i));
          };
        if t.parent.(i) < 0 then begin
          incr roots;
          root_total := !root_total + d;
          covered := !covered + child_sum.(i);
          if float_of_int (abs (d - child_sum.(i))) <= 0.05 *. float_of_int d then incr close
        end
      done)
    stores;
  {
    by_name = List.rev_map (fun k -> (k, Hashtbl.find tbl k)) !order;
    roots = !roots;
    coverage = (if !root_total = 0 then 0. else float_of_int !covered /. float_of_int !root_total);
    within_5pct = (if !roots = 0 then 0. else float_of_int !close /. float_of_int !roots);
  }

(* One JSON object per line; span ids are unique across the stores. *)
let write_jsonl path stores =
  Out_channel.with_open_bin path (fun oc ->
      let base = ref 0 in
      List.iter
        (fun t ->
          for i = 0 to t.n - 1 do
            let parent =
              if t.parent.(i) < 0 then "null" else string_of_int (!base + t.parent.(i))
            in
            Printf.fprintf oc
              "{\"id\": %d, \"parent\": %s, \"name\": %S, \"start_ns\": %d, \"end_ns\": %d}\n"
              (!base + i) parent t.name.(i) t.start_ns.(i) t.end_ns.(i)
          done;
          base := !base + t.n)
        stores)
