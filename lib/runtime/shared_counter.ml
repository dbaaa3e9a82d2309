type custom = {
  cname : string;
  cnext : pid:int -> int;
  cprev : pid:int -> int;
}

type impl =
  | Network of Network_runtime.t
  | Central of int Atomic.t
  | Lock of Mutex.t * int ref
  | Custom of custom

type t = impl

let of_topology ?mode ?metrics net =
  Network (Network_runtime.compile ?mode ?metrics net)

let runtime = function
  | Network rt -> Some rt
  | Central _ | Lock _ | Custom _ -> None

let central_faa () = Central (Atomic.make 0)

let with_lock () = Lock (Mutex.create (), ref 0)

let custom ~name ~next ~prev = Custom { cname = name; cnext = next; cprev = prev }

let next c ~pid =
  if pid < 0 then invalid_arg "Shared_counter.next: negative pid";
  match c with
  | Network rt -> Network_runtime.traverse rt ~wire:(pid mod Network_runtime.input_width rt)
  | Custom c -> c.cnext ~pid
  | Central a -> Atomic.fetch_and_add a 1
  | Lock (m, r) ->
      Mutex.lock m;
      let v = !r in
      r := v + 1;
      Mutex.unlock m;
      v

let prev c ~pid =
  if pid < 0 then invalid_arg "Shared_counter.prev: negative pid";
  match c with
  | Network rt ->
      Network_runtime.traverse_decrement rt ~wire:(pid mod Network_runtime.input_width rt)
  | Custom c -> c.cprev ~pid
  | Central a -> Atomic.fetch_and_add a (-1) - 1
  | Lock (m, r) ->
      Mutex.lock m;
      let v = !r - 1 in
      r := v;
      Mutex.unlock m;
      v

let name = function
  | Network _ -> "network"
  | Central _ -> "central-faa"
  | Lock _ -> "lock"
  | Custom c -> c.cname
