(* Allocation regressions for the token hot path.

   The runtime promises a GC-free traversal: once a runtime exists,
   crossing tokens allocates zero minor-heap words per token — no
   closures, no boxed floats, no tuples — whether a batch walks per
   token or as counts (whose per-domain scratch is made on a domain's
   first count walk).  These tests pin that with [Gc.minor_words]
   deltas: a run of many tokens may cost at most a small constant (the
   boxed float the measurement itself creates), never a per-token
   amount. *)

module RT = Cn_runtime.Network_runtime
module E = Cn_network.Eval

let tc name f = Alcotest.test_case name `Quick f
let net48 () = Cn_core.Counting.network ~w:4 ~t:8
let sink _ _ = ()

(* Warm once (faults in anything lazily created), then measure a long
   run.  The slack of 64 words absorbs the boxed float [Gc.minor_words]
   itself allocates; one word per token would show up as 10_000. *)
let tokens = 10_000

let delta_words run =
  run 64;
  let before = Gc.minor_words () in
  run tokens;
  Gc.minor_words () -. before

let check_gc_free run =
  let d = delta_words run in
  Alcotest.(check bool)
    (Printf.sprintf "allocated %.0f minor words for %d tokens" d tokens)
    true (d < 64.)

let zero_alloc =
  let case name ~mode ~metrics run =
    tc name (fun () ->
        let rt = RT.compile ~mode ~metrics (net48 ()) in
        check_gc_free (run rt))
  in
  let traverse rt n =
    for i = 0 to n - 1 do
      ignore (RT.traverse rt ~wire:(i land 3))
    done
  in
  let traverse_dec rt n =
    for i = 0 to n - 1 do
      ignore (RT.traverse rt ~wire:(i land 3));
      ignore (RT.traverse_decrement rt ~wire:(i land 3))
    done
  in
  let batch rt n = RT.traverse_batch rt ~wire:1 ~n ~f:sink in
  let batch_dec rt n =
    RT.traverse_batch rt ~wire:1 ~n ~f:sink;
    RT.traverse_batch_decrement rt ~wire:1 ~n ~f:sink
  in
  (* [n] tokens, then as many antitokens, in batches of twice the
     crossover: every batch walks as counts. *)
  let k = 2 * RT.batch_crossover (net48 ()) in
  let counted rt n =
    for _ = 1 to max 1 (n / k) do
      RT.traverse_batch rt ~wire:2 ~n:k ~f:sink
    done;
    for _ = 1 to max 1 (n / k) do
      RT.traverse_batch_decrement rt ~wire:1 ~n:k ~f:sink
    done
  in
  let peek rt n =
    RT.traverse_batch rt ~wire:0 ~n:5 ~f:sink;
    for i = 1 to n do
      ignore (Sys.opaque_identity (RT.peek rt ~wire:(i land 3)))
    done
  in
  [
    case "traverse, faa, padded csr" ~mode:RT.Faa ~metrics:false traverse;
    case "traverse, cas, padded csr" ~mode:RT.Cas ~metrics:false traverse;
    case "traverse + antitoken, faa, padded csr" ~mode:RT.Faa ~metrics:false traverse_dec;
    case "batch, faa, padded csr" ~mode:RT.Faa ~metrics:false batch;
    case "batch + batched antitokens, cas, padded csr" ~mode:RT.Cas ~metrics:false batch_dec;
    case "metered traverse, faa, padded csr" ~mode:RT.Faa ~metrics:true traverse;
    case "metered batch, faa, padded csr" ~mode:RT.Faa ~metrics:true batch;
    case "count walk + antitokens, faa" ~mode:RT.Faa ~metrics:false counted;
    case "count walk + antitokens, cas" ~mode:RT.Cas ~metrics:false counted;
    case "metered count walk + antitokens, faa" ~mode:RT.Faa ~metrics:true counted;
    case "metered count walk + antitokens, cas" ~mode:RT.Cas ~metrics:true counted;
    case "peek" ~mode:RT.Faa ~metrics:false peek;
    case "peek, metered cas" ~mode:RT.Cas ~metrics:true peek;
  ]

(* The counter read and the service's run entry, beyond the walks. *)
let read_and_run =
  [
    tc "net_count allocates nothing" (fun () ->
        let rt = RT.compile (Cn_core.Counting.network ~w:16 ~t:16) in
        RT.traverse_batch rt ~wire:3 ~n:100 ~f:sink;
        let sum = ref 0 in
        let d =
          delta_words (fun n ->
              for _ = 1 to n do
                sum := !sum + RT.net_count rt
              done)
        in
        Alcotest.(check int) "value" (100 * (tokens + 64)) !sum;
        Alcotest.(check bool)
          (Printf.sprintf "allocated %.0f minor words for %d reads" d tokens)
          true (d < 64.);
        (* the service's net count and the fabric read built on it *)
        let module Svc = Cn_service.Service in
        let module Fab = Cn_fabric.Fabric in
        let svc = Svc.create (net48 ()) in
        ignore (Svc.run (Svc.session svc) (Array.make 5 Svc.Inc) (Array.make 5 0) ~off:0 ~len:5);
        let fab = Fab.create ~shards:4 (Cn_core.Counting.network ~w:16 ~t:64) in
        ignore (Fab.increment (Fab.session fab));
        List.iter
          (fun (what, read, each) ->
            let sum = ref 0 in
            let d =
              delta_words (fun n ->
                  for _ = 1 to n do
                    sum := !sum + read ()
                  done)
            in
            Alcotest.(check int) (what ^ " value") (each * (tokens + 64)) !sum;
            Alcotest.(check bool)
              (Printf.sprintf "%s allocated %.0f minor words for %d reads" what d tokens)
              true (d < 64.))
          [ ("Service.net", (fun () -> Svc.net svc), 5); ("Fabric.read", (fun () -> Fab.read fab), 1) ]);
    tc "a service run of 32 allocates per run, not per operation" (fun () ->
        let module Svc = Cn_service.Service in
        let svc = Svc.create (net48 ()) in
        let s = Svc.session ~wire:0 svc in
        let ops = Array.init 32 (fun i -> if i mod 3 = 2 then Svc.Dec else Svc.Inc) in
        let vals = Array.make 32 0 in
        let d =
          delta_words (fun n ->
              for _ = 1 to n / 32 do
                match Svc.run s ops vals ~off:0 ~len:32 with
                | Ok () -> ()
                | Error _ -> Alcotest.fail "run refused"
              done)
        in
        Alcotest.(check bool)
          (Printf.sprintf "allocated %.0f minor words for %d runs of 32" d (tokens / 32))
          true (d < 64.));
    tc "Service.create allocates a small constant per submission slot" (fun () ->
        (* 16 lanes of 64 slots (the default queue).  A slot padded onto
           its own cache line costs about 20 words, which puts the whole
           service near 29k; a packed slot costs 2, and the rest (the
           compiled network, per-lane scratch) fits in the same bound. *)
        let net = Cn_core.Counting.network ~w:16 ~t:16 in
        let module Svc = Cn_service.Service in
        ignore (Svc.create net);
        let before = Gc.minor_words () in
        ignore (Sys.opaque_identity (Svc.create net));
        let d = Gc.minor_words () -. before in
        let bound = 12 * 16 * 64 in
        Alcotest.(check bool)
          (Printf.sprintf "allocated %.0f minor words, bound %d" d bound)
          true
          (d <= float_of_int bound));
    tc "a quiescent evaluation allocates per balancer, not per port" (fun () ->
        let net = Cn_core.Counting.network ~w:16 ~t:16 in
        let x = Array.make 16 0 in
        x.(0) <- 1;
        x.(9) <- 1;
        ignore (E.quiescent net x);
        let before = Gc.minor_words () in
        ignore (Sys.opaque_identity (E.quiescent net x));
        let d = Gc.minor_words () -. before in
        let bound = 2 * Cn_network.Topology.size net in
        Alcotest.(check bool)
          (Printf.sprintf "allocated %.0f minor words, bound %d" d bound)
          true
          (d <= float_of_int bound));
    tc "building C(16,16) allocates per balancer, not per label" (fun () ->
        let build () = Cn_core.Counting.network ~w:16 ~t:16 in
        let net = build () in
        let before = Gc.minor_words () in
        ignore (Sys.opaque_identity (build ()));
        let d = Gc.minor_words () -. before in
        let bound = 128 * Cn_network.Topology.size net in
        Alcotest.(check bool)
          (Printf.sprintf "allocated %.0f minor words, bound %d" d bound)
          true
          (d <= float_of_int bound));
    tc "compiling C(16,16) shares the topology's wiring image" (fun () ->
        (* the routing arrays are the topology's wiring image, shared;
           re-deriving them one Topology.consumer query per port costs
           about 41 x size *)
        let net = Cn_core.Counting.network ~w:16 ~t:16 in
        ignore (RT.compile net);
        let before = Gc.minor_words () in
        ignore (Sys.opaque_identity (RT.compile net));
        let d = Gc.minor_words () -. before in
        let bound = 36 * Cn_network.Topology.size net in
        Alcotest.(check bool)
          (Printf.sprintf "allocated %.0f minor words, bound %d" d bound)
          true
          (d <= float_of_int bound));
  ]

(* The wire codec on the hot frames: decoding requests, Overloaded and
   Closed, and encoding a Value into a buffer with room, allocate
   nothing. *)
let codec =
  let module F = Cn_proto.Frame in
  let wire frames =
    let b = Buffer.create 256 in
    List.iter (F.encode b) frames;
    Buffer.to_bytes b
  in
  let decode name frames =
    tc name (fun () ->
        let k = List.length frames in
        let bytes = wire frames and d = F.decoder () in
        let dw =
          delta_words (fun n ->
              for _ = 1 to n / k do
                F.feed d bytes ~off:0 ~len:(Bytes.length bytes);
                for _ = 1 to k do
                  match F.next d with F.Frame _ -> () | _ -> Alcotest.fail "expected a frame"
                done
              done)
        in
        Alcotest.(check bool)
          (Printf.sprintf "allocated %.0f minor words for %d frames" dw tokens)
          true (dw < 64.))
  in
  let requests = F.[| Inc; Dec; Read; Drain; Stats |] in
  [
    decode "decoding a 32-frame read of requests allocates nothing"
      (List.init 32 (fun i -> F.Request requests.(i mod 5)));
    decode "decoding Overloaded and Closed allocates nothing"
      (List.init 32 (fun i -> F.Response (if i land 1 = 0 then F.Overloaded else F.Closed)));
    tc "encoding a Value into a pre-grown buffer allocates nothing" (fun () ->
        let b = Buffer.create 1024 and f = F.Response (F.Value (-12345)) in
        let dw =
          delta_words (fun n ->
              for _ = 1 to n / 32 do
                Buffer.clear b;
                for _ = 1 to 32 do
                  F.encode b f
                done
              done)
        in
        Alcotest.(check string) "wire image" (F.to_string f) (Buffer.sub b 0 15);
        Alcotest.(check bool)
          (Printf.sprintf "allocated %.0f minor words for %d encodes" dw tokens)
          true (dw < 64.));
  ]

let suite =
  [
    ("gcfree.zero_alloc", zero_alloc);
    ("gcfree.read_and_run", read_and_run);
    ("gcfree.codec", codec);
  ]
