module Topology = Cn_network.Topology
module Balancer = Cn_network.Balancer
module Rt = Cn_runtime.Network_runtime

(* Mirrors the runtime's destination encoding; the round-trip is pinned
   by the compile → view → check tests. *)
let encode = function
  | Topology.Bal_input { bal; port = _ } -> bal
  | Topology.Net_output i -> -(i + 1)

let pp_dest ppf e = if e >= 0 then Format.fprintf ppf "balancer %d" e else Format.fprintf ppf "output wire %d" (-e - 1)

let check ~subject net (v : Rt.view) =
  let out = ref [] in
  let emit code fmt =
    Format.kasprintf (fun message -> out := Diagnostic.make ~pass:"csr" ~subject code "%s" message :: !out) fmt
  in
  let n = Topology.size net in
  let w = Topology.input_width net in
  let t = Topology.output_width net in
  if v.Rt.v_input_width <> w then
    emit "CSR008" "compiled input width %d but the topology has %d" v.Rt.v_input_width w;
  if v.Rt.v_output_width <> t then
    emit "CSR008" "compiled output width %d but the topology has %d" v.Rt.v_output_width t;
  let offsets = v.Rt.v_offsets in
  let next = v.Rt.v_next in
  (* Structural soundness of the tables themselves (CSR001). *)
  let offsets_ok = ref (Array.length offsets = n + 1) in
  if not !offsets_ok then
    emit "CSR001" "offsets table has %d entries for %d balancers (want %d)" (Array.length offsets)
      n (n + 1);
  if !offsets_ok && offsets.(0) <> 0 then begin
    offsets_ok := false;
    emit "CSR001" "offsets table starts at %d, not 0" offsets.(0)
  end;
  if !offsets_ok then
    for b = 0 to n - 1 do
      if offsets.(b + 1) < offsets.(b) && !offsets_ok then begin
        offsets_ok := false;
        emit "CSR001" "offsets table decreases at balancer %d (%d -> %d)" b offsets.(b)
          offsets.(b + 1)
      end
    done;
  if !offsets_ok && offsets.(n) <> Array.length next then begin
    offsets_ok := false;
    emit "CSR001" "flat jump table has %d entries but offsets end at %d" (Array.length next)
      offsets.(n)
  end;
  if Array.length v.Rt.v_init_states <> n then
    emit "CSR001" "initial-state table has %d entries for %d balancers"
      (Array.length v.Rt.v_init_states) n;
  if Array.length v.Rt.v_fan_out <> n then
    emit "CSR001" "fan-out table has %d entries for %d balancers" (Array.length v.Rt.v_fan_out) n;
  if Array.length v.Rt.v_entry <> w then
    emit "CSR001" "entry table has %d entries for input width %d" (Array.length v.Rt.v_entry) w;
  (* Per-balancer metadata: initial states (CSR007) and row widths /
     port-mask bases (CSR002). *)
  let descriptor = Array.init n (Topology.balancer net) in
  if Array.length v.Rt.v_init_states = n then
    Array.iteri
      (fun b d ->
        if v.Rt.v_init_states.(b) <> d.Balancer.init_state then
          emit "CSR007" "balancer %d compiled with initial state %d, topology says %d" b
            v.Rt.v_init_states.(b) d.Balancer.init_state)
      descriptor;
  if Array.length v.Rt.v_fan_out = n then
    Array.iteri
      (fun b d ->
        if v.Rt.v_fan_out.(b) <> d.Balancer.fan_out then
          emit "CSR002" "balancer %d has port-mask base %d, topology fan-out is %d" b
            v.Rt.v_fan_out.(b) d.Balancer.fan_out)
      descriptor;
  let rows_ok = Array.make n false in
  if !offsets_ok then
    Array.iteri
      (fun b d ->
        let width = offsets.(b + 1) - offsets.(b) in
        if width <> d.Balancer.fan_out then
          emit "CSR002" "CSR row of balancer %d has width %d, topology fan-out is %d" b width
            d.Balancer.fan_out
        else rows_ok.(b) <- true)
      descriptor;
  (* Precompiled routing table (CSR010): the stride-2 route image must
     carry each balancer's CSR row base and its port strategy — the mask
     [fan_out - 1] exactly when the fan-out is a power of two,
     [-fan_out] otherwise.  Expectations are re-derived from the
     topology, independent of the (possibly corrupted) [v_offsets]. *)
  let strategy_of q = if q land (q - 1) = 0 then q - 1 else -q in
  let route = v.Rt.v_route in
  let route_ok = ref (Array.length route = 2 * n) in
  if not !route_ok then
    emit "CSR010" "routing table has %d entries for %d balancers (want %d)" (Array.length route) n
      (2 * n);
  let ex_base = ref 0 in
  Array.iteri
    (fun b d ->
      let q = d.Balancer.fan_out in
      if !route_ok then begin
        if route.(2 * b) <> !ex_base then
          emit "CSR010" "routing base of balancer %d is %d, its CSR row starts at %d" b
            route.(2 * b) !ex_base;
        if route.((2 * b) + 1) <> strategy_of q then
          emit "CSR010" "balancer %d compiled with port strategy %d, fan-out %d wants %d" b
            route.((2 * b) + 1) q (strategy_of q)
      end;
      ex_base := !ex_base + q)
    descriptor;
  (* Destination range (CSR003) and topology diff (CSR006/CSR009).
     [in_range] is against the topology's widths:
     the runtime may only jump to an existing balancer or exit on an
     existing output wire. *)
  let in_range e = e < n && e >= -t in
  let dangling = ref false in
  let check_dest ~where actual =
    if not (in_range actual) then begin
      dangling := true;
      emit "CSR003" "%s jumps to %a, which does not exist" where pp_dest actual;
      false
    end
    else true
  in
  if Array.length v.Rt.v_entry = w then
    for i = 0 to w - 1 do
      let actual = v.Rt.v_entry.(i) in
      let expected = encode (Topology.consumer net (Topology.Net_input i)) in
      if check_dest ~where:(Printf.sprintf "entry of input wire %d" i) actual && actual <> expected
      then
        emit "CSR006" "input wire %d enters at %a, topology says %a" i pp_dest actual pp_dest
          expected
    done;
  for b = 0 to n - 1 do
    if rows_ok.(b) then
      for port = 0 to descriptor.(b).Balancer.fan_out - 1 do
        let expected = encode (Topology.consumer net (Topology.Bal_output { bal = b; port })) in
        let where = Printf.sprintf "port %d of balancer %d" port b in
        let actual = next.(offsets.(b) + port) in
        if check_dest ~where actual && actual <> expected then
          emit "CSR009" "%s jumps to %a, topology says %a" where pp_dest actual pp_dest expected
      done
  done;
  (* Coverage (CSR004): over the in-range targets of the entry table
     and the flat rows, each balancer must be reached on exactly fan-in
     wires and each output wire exactly once.  Skipped entirely when a
     dangling destination was found — the counts would only repeat the
     CSR003 finding. *)
  if (not !dangling) && Array.length v.Rt.v_entry = w && Array.for_all Fun.id rows_ok then begin
    let bal_targets = Array.make n 0 in
    let out_targets = Array.make t 0 in
    let target e = if e >= 0 then bal_targets.(e) <- bal_targets.(e) + 1 else out_targets.(-e - 1) <- out_targets.(-e - 1) + 1 in
    Array.iter target v.Rt.v_entry;
    for b = 0 to n - 1 do
      for port = 0 to descriptor.(b).Balancer.fan_out - 1 do
        target next.(offsets.(b) + port)
      done
    done;
    Array.iteri
      (fun b c ->
        let fan_in = descriptor.(b).Balancer.fan_in in
        if c <> fan_in then
          emit "CSR004" "balancer %d is reached by %d wires, fan-in is %d" b c fan_in)
      bal_targets;
    Array.iteri
      (fun i c ->
        if c <> 1 then emit "CSR004" "output wire %d is reached by %d wires, want exactly 1" i c)
      out_targets
  end;
  List.rev !out
