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
  let peek = RT.peek
  let quiescent = V.quiescent_runtime
  let net_count = RT.net_count
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
