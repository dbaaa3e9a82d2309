(* Order statistics over measured samples. *)

(* Nearest-rank percentile of an ascending array; [p] in [0, 100]. *)
let percentile_sorted (a : int array) p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1 in
    float_of_int a.(max 0 (min (n - 1) k))

let sort_ints a =
  Array.sort Int.compare a;
  a

(* The highest of p99, p99.9, ... that still has at least ten samples
   beyond it, as (percentile, value); p99 when even that is short. *)
let tail_sorted a =
  let n = float_of_int (Array.length a) in
  let rec pick p best =
    let beyond = n *. (100. -. p) /. 100. in
    if beyond >= 10. && p < 99.9999 then pick (100. -. ((100. -. p) /. 10.)) p else best
  in
  let p = pick 99. 99. in
  (p, percentile_sorted a p)

(* [buckets.(k)] holds the samples of slice k.  For each percentile in
   [ps], its value in every slice that has a sample. *)
let slice_percentiles (buckets : int list array) ps =
  let sorted =
    List.filter_map
      (fun l -> if l = [] then None else Some (sort_ints (Array.of_list l)))
      (Array.to_list buckets)
  in
  List.map (fun p -> Array.of_list (List.map (fun a -> percentile_sorted a p) sorted)) ps

let median xs =
  let d = Array.copy xs in
  Array.sort Float.compare d;
  let n = Array.length d in
  if n = 0 then nan
  else if n land 1 = 1 then d.(n / 2)
  else (d.((n / 2) - 1) +. d.(n / 2)) /. 2.

(* Python's statistics.quantiles(xs, n=4) (method "exclusive"), so the
   spread printed here is the one a Python reader computes from the
   same repeats. *)
let quartiles xs =
  let d = Array.copy xs in
  Array.sort Float.compare d;
  let ld = Array.length d in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

type summary = {
  median : float;
  q1 : float;
  q3 : float;
  min : float;
  max : float;
  iqr : float;
  values : float array;
}

let summarize values =
  let q1, _, q3 = quartiles values in
  {
    median = median values;
    q1;
    q3;
    min = Array.fold_left Float.min infinity values;
    max = Array.fold_left Float.max neg_infinity values;
    iqr = q3 -. q1;
    values;
  }
