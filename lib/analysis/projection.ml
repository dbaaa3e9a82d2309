module Topology = Cn_network.Topology
module Contention = Cn_sim.Contention
module Scheduler = Cn_sim.Scheduler

let default_stall_factor = 8.

type calibration = { crossing_ns : float; stall_factor : float }

let calibrate ?(stall_factor = default_stall_factor) ~crossing_ns () =
  if not (crossing_ns > 0.) then
    invalid_arg "Projection.calibrate: crossing_ns must be positive";
  if not (stall_factor > 0.) then
    invalid_arg "Projection.calibrate: stall_factor must be positive";
  { crossing_ns; stall_factor }

let of_throughput ?stall_factor ~depth ~ops ~seconds () =
  if depth <= 0 then invalid_arg "Projection.of_throughput: depth must be positive";
  if ops <= 0 then invalid_arg "Projection.of_throughput: ops must be positive";
  if not (seconds > 0.) then invalid_arg "Projection.of_throughput: seconds must be positive";
  calibrate ?stall_factor ~crossing_ns:(seconds *. 1e9 /. (float_of_int ops *. float_of_int depth)) ()

let stall_ns c = c.stall_factor *. c.crossing_ns

type point = {
  domains : int;
  stalls_per_token : float;
  token_ns : float;
  ops_per_sec : float;
}

let point c ~domains ~depth ~stalls_per_token =
  let token_ns = (float_of_int depth *. c.crossing_ns) +. (stalls_per_token *. stall_ns c) in
  { domains; stalls_per_token; token_ns; ops_per_sec = float_of_int domains *. 1e9 /. token_ns }

(* The central counter serializes: a token's FAA waits behind every
   other concurrent process at the same word, so stalls/token is [n - 1]
   by the memory-contention accounting of Dwork-Herlihy-Waarts.  As
   [n] grows the projected rate saturates at [1/stall_ns] — the
   hot-spot ceiling Theorem 6.7's O(n·lg w / w) amortized bound is
   measured against. *)
let project_central c ~domains =
  if domains <= 0 then invalid_arg "Projection.project_central: domains must be positive";
  point c ~domains ~depth:1 ~stalls_per_token:(float_of_int (domains - 1))

(* Network stalls/token comes from the stall-counting simulator under a
   fair randomized schedule — the honest-average adversary, not the
   worst case [Contention.worst] reports — at the projected concurrency.
   The projection composes it with the measured crossing cost:
   token time = depth·crossing_ns + stalls/token·stall_ns. *)
let project_network ?(seed = 1) ?(m_per_n = 64) c net ~domains =
  if domains <= 0 then invalid_arg "Projection.project_network: domains must be positive";
  if m_per_n <= 0 then invalid_arg "Projection.project_network: m_per_n must be positive";
  let m = m_per_n * domains in
  let meas = Contention.measure net ~n:domains ~m (Scheduler.Random seed) in
  point c ~domains ~depth:(Topology.depth net) ~stalls_per_token:meas.Contention.per_token

let sweep_central c ~domains_list = List.map (fun n -> project_central c ~domains:n) domains_list

let sweep_network ?seed ?m_per_n c net ~domains_list =
  List.map (fun n -> project_network ?seed ?m_per_n c net ~domains:n) domains_list

(* Smallest concurrency (by doubling then linear scan, capped) at which
   the projected network rate overtakes the projected central rate —
   the projection's answer to the paper's crossover question. *)
let crossover ?seed ?m_per_n ?(max_domains = 1024) c net =
  let rec scan n =
    if n > max_domains then None
    else if
      (project_network ?seed ?m_per_n c net ~domains:n).ops_per_sec
      > (project_central c ~domains:n).ops_per_sec
    then Some n
    else scan (n + max 1 (n / 4))
  in
  scan 1
