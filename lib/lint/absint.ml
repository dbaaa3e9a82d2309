module Topology = Cn_network.Topology
module Balancer = Cn_network.Balancer

module Q = struct
  (* Invariant: den > 0 and gcd (|num|) den = 1.  Sums and comparisons
     go through the lcm of the denominators, never their product, so
     intermediate magnitudes stay within num_max · den_max — safe for
     the path-product denominators this analysis produces. *)
  type t = { num : int; den : int }

  let rec gcd a b = if b = 0 then a else gcd b (a mod b)

  let make num den =
    if den = 0 then invalid_arg "Absint.Q.make: zero denominator";
    let s = if den < 0 then -1 else 1 in
    let num = s * num and den = s * den in
    let g = gcd (abs num) den in
    if g = 0 then { num = 0; den = 1 } else { num = num / g; den = den / g }

  let zero = { num = 0; den = 1 }
  let one = { num = 1; den = 1 }
  let of_int n = { num = n; den = 1 }

  (* A zero operand returns the other, already normalised, operand:
     coefficient vectors are mostly zeros, and this skips their gcds. *)
  let add a b =
    if a.num = 0 then b
    else if b.num = 0 then a
    else begin
      let g = gcd a.den b.den in
      let l = a.den / g * b.den in
      make ((a.num * (l / a.den)) + (b.num * (l / b.den))) l
    end

  let sub a b = add a { b with num = -b.num }

  (* gcd (num + n·den) den = gcd num den = 1, so no renormalization. *)
  let add_int a n = { a with num = a.num + (n * a.den) }

  let div_int a q =
    if q <= 0 then invalid_arg "Absint.Q.div_int: non-positive divisor";
    if a.num = 0 then a else make a.num (a.den * q)

  let compare a b =
    let g = gcd a.den b.den in
    let l = a.den / g * b.den in
    Stdlib.compare (a.num * (l / a.den)) (b.num * (l / b.den))

  let equal a b = a.num = b.num && a.den = b.den
  let leq a b = compare a b <= 0

  let floor a = if a.num >= 0 then a.num / a.den else -((-a.num + a.den - 1) / a.den)
  let to_float a = float_of_int a.num /. float_of_int a.den

  let pp ppf a =
    if a.den = 1 then Format.fprintf ppf "%d" a.num else Format.fprintf ppf "%d/%d" a.num a.den
end

type wire = { coeffs : Q.t array; lo : Q.t; hi : Q.t }

type t = { input_width : int; outs : wire array }

let analyze net =
  let w = Topology.input_width net in
  let n = Topology.size net in
  let bal_out = Array.make n [||] in
  let value_of = function
    | Topology.Net_input i ->
        {
          coeffs = Array.init w (fun j -> if i = j then Q.one else Q.zero);
          lo = Q.zero;
          hi = Q.zero;
        }
    | Topology.Bal_output { bal; port } -> bal_out.(bal).(port)
  in
  Array.iter
    (fun b ->
      let d = Topology.balancer net b in
      let q = d.Balancer.fan_out in
      let init = d.Balancer.init_state in
      let ins = Array.map value_of (Topology.feeds net b) in
      (* Total tokens T seen by the balancer: sum of its input wires. *)
      let total =
        Array.fold_left
          (fun acc v ->
            {
              coeffs = Array.map2 Q.add acc.coeffs v.coeffs;
              lo = Q.add acc.lo v.lo;
              hi = Q.add acc.hi v.hi;
            })
          { coeffs = Array.make w Q.zero; lo = Q.zero; hi = Q.zero }
          ins
      in
      (* Port r emits ⌈(T − d_r)/q⌉ tokens (clamped at 0), with
         d_r = (r − init) mod q; both the exact value and the clamp lie
         in [(T − d_r)/q, (T − d_r + q − 1)/q].  Every port shares the
         one divided coefficient vector T/q. *)
      let coeffs = Array.map (fun c -> Q.div_int c q) total.coeffs in
      bal_out.(b) <-
        Array.init q (fun r ->
            let dr = (((r - init) mod q) + q) mod q in
            {
              coeffs;
              lo = Q.div_int (Q.add_int total.lo (-dr)) q;
              hi = Q.div_int (Q.add_int total.hi (q - 1 - dr)) q;
            }))
    (Topology.topo_order net);
  { input_width = w; outs = Array.map value_of (Topology.outputs net) }

let output a i = a.outs.(i)
let outputs a = Array.copy a.outs

let conserves a =
  let ok = ref true in
  for j = 0 to a.input_width - 1 do
    let s = Array.fold_left (fun acc v -> Q.add acc v.coeffs.(j)) Q.zero a.outs in
    if not (Q.equal s Q.one) then ok := false
  done;
  !ok

let uniform a =
  let t = Array.length a.outs in
  t > 0
  &&
  let share = Q.make 1 t in
  Array.for_all (fun v -> Array.for_all (Q.equal share) v.coeffs) a.outs

let spread_bound a =
  if not (uniform a) then None
  else begin
    let hi = Array.fold_left (fun acc v -> if Q.leq acc v.hi then v.hi else acc) a.outs.(0).hi a.outs in
    let lo = Array.fold_left (fun acc v -> if Q.leq v.lo acc then v.lo else acc) a.outs.(0).lo a.outs in
    Some (Q.sub hi lo)
  end

let smoothness_bound a = Option.map Q.floor (spread_bound a)

let output_difference a i j =
  let vi = a.outs.(i) and vj = a.outs.(j) in
  if Array.for_all2 Q.equal vi.coeffs vj.coeffs then Some (Q.sub vi.lo vj.hi, Q.sub vi.hi vj.lo)
  else None

let half_split_bound a =
  let t = Array.length a.outs in
  if t = 0 || t mod 2 <> 0 then None
  else begin
    let half = t / 2 in
    let sum_coeff from_ j =
      let s = ref Q.zero in
      for i = from_ to from_ + half - 1 do
        s := Q.add !s a.outs.(i).coeffs.(j)
      done;
      !s
    in
    let cancels = ref true in
    for j = 0 to a.input_width - 1 do
      if not (Q.equal (sum_coeff 0 j) (sum_coeff half j)) then cancels := false
    done;
    if not !cancels then None
    else begin
      let sum_lo from_ =
        let s = ref Q.zero in
        for i = from_ to from_ + half - 1 do
          s := Q.add !s a.outs.(i).lo
        done;
        !s
      and sum_hi from_ =
        let s = ref Q.zero in
        for i = from_ to from_ + half - 1 do
          s := Q.add !s a.outs.(i).hi
        done;
        !s
      in
      Some (Q.sub (sum_lo 0) (sum_hi half), Q.sub (sum_hi 0) (sum_lo half))
    end
  end
