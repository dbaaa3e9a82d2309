type source = Net_input of int | Bal_output of { bal : int; port : int }
type dest = Bal_input of { bal : int; port : int } | Net_output of int

type wiring = { order : int array; base : int array; next : int array; entry : int array }

type t = {
  input_width : int;
  balancers : Balancer.t array;
  feeds : source array array;
  outputs : source array;
  consumers_net : dest array; (* consumer of each network input wire *)
  consumers_bal : dest array; (* consumer of port p of balancer b, at wiring.base.(b) + p *)
  depths : int array; (* 1-based depth of each balancer *)
  wiring : wiring;
}

let fail fmt = Format.kasprintf invalid_arg fmt

(* Diagnostics name a reference by position; the label is formatted only
   when a check fails, so a valid network builds without formatting. *)
let reference_label ~bal ~index =
  if bal < 0 then Printf.sprintf "network output %d" index
  else Printf.sprintf "feed %d of balancer %d" index bal

(* Checks the source feeding input [index] of balancer [bal], or network
   output [index] when [bal < 0]. *)
let check_source ~input_width ~balancers ~bal ~index s =
  match s with
  | Net_input i ->
      if i < 0 || i >= input_width then
        fail "Topology.create: %s refers to network input %d (width %d)"
          (reference_label ~bal ~index) i input_width
  | Bal_output { bal = b; port } ->
      if b < 0 || b >= Array.length balancers then
        fail "Topology.create: %s refers to unknown balancer %d" (reference_label ~bal ~index) b;
      let q = (balancers.(b) : Balancer.t).fan_out in
      if port < 0 || port >= q then
        fail "Topology.create: %s refers to output port %d of balancer %d (fan-out %d)"
          (reference_label ~bal ~index) port b q

(* The int encoding of [Network_runtime]: a balancer id, or [-(i + 1)]
   for network output wire [i]. *)
let encode = function Bal_input { bal; port = _ } -> bal | Net_output i -> -(i + 1)

(* Placeholder for a wire whose consumer is not yet known; no real
   consumer is physically equal to it. *)
let unconsumed = Net_output (-1)

let create ~input_width ~balancers ~feeds ~outputs =
  if input_width <= 0 then fail "Topology.create: input width must be positive";
  let n = Array.length balancers in
  if Array.length feeds <> n then
    fail "Topology.create: %d balancers but %d feed rows" n (Array.length feeds);
  Array.iteri
    (fun b row ->
      let p = (balancers.(b) : Balancer.t).fan_in in
      if Array.length row <> p then
        fail "Topology.create: balancer %d has fan-in %d but %d feeds" b p (Array.length row))
    feeds;
  if Array.length outputs = 0 then fail "Topology.create: no output wires";
  (* Range-check every reference, then record the unique consumer of every
     wire: each network input and each balancer output port must be
     consumed exactly once. *)
  for b = 0 to n - 1 do
    let row = feeds.(b) in
    for i = 0 to Array.length row - 1 do
      check_source ~input_width ~balancers ~bal:b ~index:i row.(i)
    done
  done;
  for i = 0 to Array.length outputs - 1 do
    check_source ~input_width ~balancers ~bal:(-1) ~index:i outputs.(i)
  done;
  let base = Array.make (n + 1) 0 in
  for b = 0 to n - 1 do
    base.(b + 1) <- base.(b) + (balancers.(b) : Balancer.t).fan_out
  done;
  let consumers_net = Array.make input_width unconsumed in
  let consumers_bal = Array.make base.(n) unconsumed in
  let consume s d =
    match s with
    | Net_input i ->
        if consumers_net.(i) != unconsumed then
          fail "Topology.create: network input %d consumed twice" i;
        consumers_net.(i) <- d
    | Bal_output { bal; port } ->
        let k = base.(bal) + port in
        if consumers_bal.(k) != unconsumed then
          fail "Topology.create: output port %d of balancer %d consumed twice" port bal;
        consumers_bal.(k) <- d
  in
  for b = 0 to n - 1 do
    let row = feeds.(b) in
    for i = 0 to Array.length row - 1 do
      consume row.(i) (Bal_input { bal = b; port = i })
    done
  done;
  for i = 0 to Array.length outputs - 1 do
    consume outputs.(i) (Net_output i)
  done;
  for i = 0 to input_width - 1 do
    if consumers_net.(i) == unconsumed then
      fail "Topology.create: network input %d is never consumed" i
  done;
  for b = 0 to n - 1 do
    for p = 0 to base.(b + 1) - base.(b) - 1 do
      if consumers_bal.(base.(b) + p) == unconsumed then
        fail "Topology.create: output port %d of balancer %d is never consumed" p b
    done
  done;
  let next = Array.map encode consumers_bal in
  (* Kahn's algorithm over the balancer dependency graph: detects cycles
     and yields a topological order in one pass.  The order array doubles
     as the FIFO queue: [order.(head .. filled - 1)] awaits expansion. *)
  let indeg = Array.make n 0 in
  for b = 0 to n - 1 do
    let row = feeds.(b) in
    for i = 0 to Array.length row - 1 do
      match row.(i) with Bal_output _ -> indeg.(b) <- indeg.(b) + 1 | Net_input _ -> ()
    done
  done;
  let order = Array.make n 0 in
  let filled = ref 0 in
  for b = 0 to n - 1 do
    if indeg.(b) = 0 then begin
      order.(!filled) <- b;
      incr filled
    end
  done;
  let head = ref 0 in
  while !head < !filled do
    let b = order.(!head) in
    incr head;
    for k = base.(b) to base.(b + 1) - 1 do
      let c = next.(k) in
      if c >= 0 then begin
        indeg.(c) <- indeg.(c) - 1;
        if indeg.(c) = 0 then begin
          order.(!filled) <- c;
          incr filled
        end
      end
    done
  done;
  if !filled <> n then fail "Topology.create: the balancer graph contains a cycle";
  let depths = Array.make n 0 in
  Array.iter
    (fun b ->
      let row = feeds.(b) in
      let d = ref 0 in
      for i = 0 to Array.length row - 1 do
        match row.(i) with Bal_output { bal; _ } -> d := max !d depths.(bal) | Net_input _ -> ()
      done;
      depths.(b) <- !d + 1)
    order;
  {
    input_width;
    balancers = Array.copy balancers;
    feeds = Array.map Array.copy feeds;
    outputs = Array.copy outputs;
    consumers_net;
    consumers_bal;
    depths;
    wiring = { order; base; next; entry = Array.map encode consumers_net };
  }

let input_width net = net.input_width
let output_width net = Array.length net.outputs
let size net = Array.length net.balancers

let balancer net b =
  if b < 0 || b >= Array.length net.balancers then invalid_arg "Topology.balancer: out of range";
  net.balancers.(b)

let feeds net b =
  if b < 0 || b >= Array.length net.feeds then invalid_arg "Topology.feeds: out of range";
  Array.copy net.feeds.(b)

let outputs net = Array.copy net.outputs

let consumer net = function
  | Net_input i ->
      if i < 0 || i >= net.input_width then invalid_arg "Topology.consumer: input wire out of range";
      net.consumers_net.(i)
  | Bal_output { bal; port } ->
      if bal < 0 || bal >= Array.length net.balancers then
        invalid_arg "Topology.consumer: balancer out of range";
      if port < 0 || port >= net.balancers.(bal).Balancer.fan_out then
        invalid_arg "Topology.consumer: port out of range";
      net.consumers_bal.(net.wiring.base.(bal) + port)

let balancer_depth net b =
  if b < 0 || b >= Array.length net.depths then invalid_arg "Topology.balancer_depth: out of range";
  net.depths.(b)

let depth net = Array.fold_left max 0 net.depths

let layers net =
  let d = depth net in
  let buckets = Array.make d [] in
  (* Collect in reverse id order so each bucket ends up sorted by id. *)
  for b = Array.length net.balancers - 1 downto 0 do
    let i = net.depths.(b) - 1 in
    buckets.(i) <- b :: buckets.(i)
  done;
  Array.map Array.of_list buckets

let is_regular net = Array.for_all Balancer.is_regular net.balancers

let topo_order net = Array.copy net.wiring.order
let wiring net = net.wiring

let shift_source ~bal_offset ~map_input s =
  match s with
  | Net_input i -> map_input i
  | Bal_output { bal; port } -> Bal_output { bal = bal + bal_offset; port }

let cascade a b =
  if output_width a <> input_width b then
    fail "Topology.cascade: output width %d <> input width %d" (output_width a) (input_width b);
  let na = size a in
  let map_b = shift_source ~bal_offset:na ~map_input:(fun i -> a.outputs.(i)) in
  let balancers = Array.append a.balancers b.balancers in
  let feeds =
    Array.append a.feeds (Array.map (fun row -> Array.map map_b row) b.feeds)
  in
  let outputs = Array.map map_b b.outputs in
  create ~input_width:a.input_width ~balancers ~feeds ~outputs

let parallel a b =
  let na = size a and wa = input_width a in
  let map_b = shift_source ~bal_offset:na ~map_input:(fun i -> Net_input (i + wa)) in
  let balancers = Array.append a.balancers b.balancers in
  let feeds =
    Array.append a.feeds (Array.map (fun row -> Array.map map_b row) b.feeds)
  in
  let outputs = Array.append a.outputs (Array.map map_b b.outputs) in
  create ~input_width:(wa + input_width b) ~balancers ~feeds ~outputs

let identity w =
  if w <= 0 then invalid_arg "Topology.identity: non-positive width";
  create ~input_width:w ~balancers:[||] ~feeds:[||]
    ~outputs:(Array.init w (fun i -> Net_input i))

let map_net_inputs f net =
  let map = function Net_input i -> Net_input (f i) | Bal_output _ as s -> s in
  create ~input_width:net.input_width ~balancers:net.balancers
    ~feeds:(Array.map (fun row -> Array.map map row) net.feeds)
    ~outputs:(Array.map map net.outputs)

let permute_inputs pi net =
  if Permutation.size pi <> net.input_width then
    invalid_arg "Topology.permute_inputs: size mismatch";
  map_net_inputs (Permutation.apply_index pi) net

let permute_outputs pi net =
  if Permutation.size pi <> output_width net then
    invalid_arg "Topology.permute_outputs: size mismatch";
  create ~input_width:net.input_width ~balancers:net.balancers ~feeds:net.feeds
    ~outputs:(Permutation.permute pi net.outputs)

let with_init_states f net =
  let balancers =
    Array.mapi
      (fun b (d : Balancer.t) ->
        Balancer.make ~init_state:(f b d) ~fan_in:d.Balancer.fan_in ~fan_out:d.Balancer.fan_out ())
      net.balancers
  in
  create ~input_width:net.input_width ~balancers ~feeds:net.feeds ~outputs:net.outputs

let randomize_states ~seed net =
  let rng = Random.State.make [| seed |] in
  with_init_states (fun _ d -> Random.State.int rng d.Balancer.fan_out) net

let equal a b =
  a.input_width = b.input_width && a.balancers = b.balancers && a.feeds = b.feeds
  && a.outputs = b.outputs

let pp ppf net =
  Format.fprintf ppf "%d -> %d, size %d, depth %d" (input_width net) (output_width net) (size net)
    (depth net)
