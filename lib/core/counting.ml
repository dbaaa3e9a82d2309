open Cn_network

let valid = Params.valid_counting

let rec wires b ~t ins =
  let w = Array.length ins in
  if not (valid ~w ~t) then
    invalid_arg (Printf.sprintf "Counting.wires: invalid parameters w=%d t=%d" w t);
  if w = 2 then Builder.add_balancer b ~fan_out:t ins
  else begin
    let l = Ladder.wires b ins in
    let half = w / 2 in
    let e = Array.sub l 0 half and f = Array.sub l half half in
    let g = wires b ~t:(t / 2) e in
    let h = wires b ~t:(t / 2) f in
    Merging.wires b ~delta:half (g, h)
  end

let network ~w ~t =
  if not (valid ~w ~t) then
    invalid_arg (Printf.sprintf "Counting.network: invalid parameters w=%d t=%d" w t);
  Builder.build ~input_width:w (fun b ins -> wires b ~t ins)

let regular w = network ~w ~t:w

let wide w =
  if w < 4 then
    invalid_arg (Printf.sprintf "Counting.wide: requires w >= 4 (got w=%d)" w);
  network ~w ~t:(w * Params.ilog2 w)

let depth_formula ~w =
  let k = Params.ilog2 w in
  ((k * k) + k) / 2

let rec size_formula ~w ~t =
  if not (valid ~w ~t) then
    invalid_arg (Printf.sprintf "Counting.size_formula: invalid parameters w=%d t=%d" w t);
  if w = 2 then 1
  else (w / 2) + (2 * size_formula ~w:(w / 2) ~t:(t / 2)) + (t / 2 * Params.ilog2 (w / 2))
