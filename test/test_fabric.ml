(* Tests for the elastic sharded counter fabric: the consistent-hash
   router's stability properties, the certification gate, hot-resize
   under concurrent load, elastic rescale, the combining read, and the
   analytic auto-tuner's fabric hooks. *)

module Fab = Cn_fabric.Fabric
module Router = Cn_fabric.Router
module Counting = Cn_core.Counting
module T = Cn_network.Topology
module V = Cn_runtime.Validator
module L = Cn_lint

let tc name f = Alcotest.test_case name `Quick f
let keys = 8192
let ids n = List.init n (fun i -> i)

(* C(4,4) with two output wires swapped: conserves tokens but breaks
   the step property — the certifier refutes it with a counterexample. *)
let broken_counting () =
  let net = Counting.network ~w:4 ~t:4 in
  let swap = Array.init 4 (fun i -> if i = 0 then 3 else if i = 3 then 0 else i) in
  T.permute_outputs (Cn_network.Permutation.of_array swap) net

let router =
  [
    tc "routing is deterministic and total" (fun () ->
        let r = Router.make (ids 4) in
        for k = 0 to 255 do
          let s = Router.route r k in
          Alcotest.(check bool) "in range" true (s >= 0 && s < 4);
          Alcotest.(check int) "stable" s (Router.route r k)
        done);
    tc "growing an n-ring remaps ~1/(n+1) keys, all to the new shard" (fun () ->
        List.iter
          (fun n ->
            let old_r = Router.make (ids n) in
            let new_r = Router.make (ids (n + 1)) in
            let moved = ref 0 in
            for k = 0 to keys - 1 do
              let a = Router.route old_r k and b = Router.route new_r k in
              if a <> b then begin
                incr moved;
                Alcotest.(check int) "moves only to the new shard" n b
              end
            done;
            let frac = float_of_int !moved /. float_of_int keys in
            let ideal = 1. /. float_of_int (n + 1) in
            Alcotest.(check bool)
              (Printf.sprintf "n=%d: fraction %.3f near %.3f" n frac ideal)
              true
              (frac > ideal /. 2.5 && frac < ideal *. 2.5))
          [ 1; 2; 4; 8 ]);
    tc "removing a shard remaps exactly its own keys" (fun () ->
        let full = Router.make (ids 4) in
        let without = Router.make [ 0; 1; 3 ] in
        for k = 0 to keys - 1 do
          let a = Router.route full k in
          let b = Router.route without k in
          if a <> 2 then
            Alcotest.(check int) "survivors keep their keys" a b
          else
            Alcotest.(check bool) "orphans go to survivors" true (b <> 2)
        done);
    tc "ring balances keys across shards" (fun () ->
        let r = Router.make (ids 4) in
        let counts = Array.make 4 0 in
        for k = 0 to keys - 1 do
          let s = Router.route r k in
          counts.(s) <- counts.(s) + 1
        done;
        let ideal = keys / 4 in
        Array.iteri
          (fun s c ->
            Alcotest.(check bool)
              (Printf.sprintf "shard %d holds %d (ideal %d)" s c ideal)
              true
              (c > ideal / 2 && c < ideal * 2))
          counts);
    tc "zipf-weighted remap mass is no worse than the key fraction" (fun () ->
        (* Hot keys are pinned like any other key: growing the ring must
           not preferentially remap the head of a Zipf key distribution.
           The moved probability mass stays in the same ballpark as the
           unweighted remap fraction (ideal 1/5 here). *)
        let alpha = 1.2 in
        let old_r = Router.make (ids 4) in
        let new_r = Router.make (ids 5) in
        let total = ref 0. and moved = ref 0. in
        for k = 0 to 1023 do
          let wgt = float_of_int (k + 1) ** -.alpha in
          total := !total +. wgt;
          if Router.route old_r k <> Router.route new_r k then
            moved := !moved +. wgt
        done;
        let frac = !moved /. !total in
        Alcotest.(check bool)
          (Printf.sprintf "moved mass %.3f" frac)
          true (frac < 0.5));
    tc "hot-key sessions share one shard's value stream" (fun () ->
        (* Two sessions with the same routing key hit the same shard, so
           with elimination off their interleaved increments read one
           duplicate-free counter stream: 0, 1, 2, ... *)
        let fab = Fab.create ~shards:4 ~elim:false (Counting.network ~w:4 ~t:4) in
        let hot = 17 in
        let s1 = Fab.session ~key:hot fab in
        let s2 = Fab.session ~key:hot fab in
        for i = 0 to 9 do
          let s = if i mod 2 = 0 then s1 else s2 in
          match Fab.increment s with
          | Ok v -> Alcotest.(check int) "one stream" i v
          | Error _ -> Alcotest.fail "unexpected error"
        done);
  ]

let certification =
  [
    tc "a broken initial topology is refused at create" (fun () ->
        match Fab.create ~shards:1 (broken_counting ()) with
        | _ -> Alcotest.fail "expected Rejected"
        | exception Fab.Rejected msg ->
            Alcotest.(check bool) "names the subject" true
              (String.length msg > 0));
    tc "a broken resize candidate aborts with no state change" (fun () ->
        let fab = Fab.create ~shards:1 ~elim:false (Counting.network ~w:4 ~t:4) in
        let s = Fab.session ~key:0 fab in
        (match Fab.increment s with
        | Ok 0 -> ()
        | _ -> Alcotest.fail "seed increment");
        (match Fab.resize fab ~shard:0 (broken_counting ()) with
        | Error (Fab.Cert_rejected _) -> ()
        | _ -> Alcotest.fail "expected Cert_rejected");
        Alcotest.(check int) "generation unchanged" 0 (Fab.shard_gen fab 0);
        Alcotest.(check int) "width unchanged" 4
          (T.input_width (Fab.shard_topology fab 0));
        Alcotest.(check int) "value unchanged" 1 (Fab.read fab);
        match Fab.increment s with
        | Ok v -> Alcotest.(check int) "stream continues" 1 v
        | Error _ -> Alcotest.fail "shard must still serve");
    tc "a broken grow target aborts the rescale" (fun () ->
        let fab = Fab.create ~shards:1 (Counting.network ~w:4 ~t:4) in
        (match Fab.set_shard_count ~topo:(broken_counting ()) fab 2 with
        | Error (Fab.Cert_rejected _) -> ()
        | _ -> Alcotest.fail "expected Cert_rejected");
        Alcotest.(check int) "still one shard" 1 (Fab.shard_count fab));
    tc "certify_topology accepts C(16,16) with non-refuted evidence" (fun () ->
        match Fab.certify_topology (Counting.network ~w:16 ~t:16) with
        | Error msg -> Alcotest.failf "unexpected rejection: %s" msg
        | Ok cert -> (
            Alcotest.(check bool) "ok" true (L.Cert.ok cert);
            match cert.L.Cert.evidence with
            | L.Cert.Refuted _ -> Alcotest.fail "refuted evidence"
            | _ -> ()));
  ]

let ops =
  [
    tc "a run is routed once and continues the shard stream across a resize"
      (fun () ->
        let fab = Fab.create ~shards:2 ~elim:false (Counting.network ~w:4 ~t:4) in
        let s = Fab.session ~key:5 fab in
        let sid = Fab.route fab 5 in
        let run n =
          let vals = Array.make n 0 in
          (match Fab.run s (Array.make n Fab.Inc) vals ~off:0 ~len:n with
          | Ok () -> ()
          | Error (k, _) -> Alcotest.failf "run refused from index %d" k);
          Array.to_list vals
        in
        Alcotest.(check (list int)) "first run" (List.init 6 Fun.id) (run 6);
        (match Fab.resize fab ~shard:sid (Counting.network ~w:2 ~t:2) with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "resize failed");
        Alcotest.(check (list int)) "continues from the folded base"
          (List.init 5 (fun i -> 6 + i)) (run 5);
        Alcotest.(check int) "read" 11 (Fab.read fab);
        ignore (Fab.shutdown fab);
        match Fab.run s [| Fab.Inc; Fab.Dec |] (Array.make 2 0) ~off:0 ~len:2 with
        | Error (0, Fab.Closed) -> ()
        | Ok () | Error _ -> Alcotest.fail "expected Error (0, Closed) after shutdown");
    tc "combining read merges shards; rescale conserves it" (fun () ->
        let fab = Fab.create ~shards:4 ~elim:false (Counting.network ~w:4 ~t:4) in
        let total = ref 0 in
        List.iter
          (fun k ->
            let s = Fab.session ~key:k fab in
            for _ = 0 to k mod 5 do
              match Fab.increment s with
              | Ok _ -> incr total
              | Error _ -> Alcotest.fail "unexpected error"
            done)
          (ids 16);
        Alcotest.(check int) "read" !total (Fab.read fab);
        (match Fab.set_shard_count fab 2 with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "shrink failed");
        Alcotest.(check int) "shards after shrink" 2 (Fab.shard_count fab);
        Alcotest.(check int) "read survives the retired fold" !total
          (Fab.read fab);
        (match Fab.set_shard_count fab 3 with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "grow failed");
        Alcotest.(check int) "shards after grow" 3 (Fab.shard_count fab);
        Alcotest.(check int) "read survives the grow" !total (Fab.read fab);
        (* new traffic lands on the rescaled ring and still sums *)
        List.iter
          (fun k ->
            let s = Fab.session ~key:k fab in
            match Fab.increment s with
            | Ok _ -> incr total
            | Error _ -> Alcotest.fail "unexpected error")
          (ids 8);
        Alcotest.(check int) "read after new traffic" !total (Fab.read fab));
    tc "shrink-then-grow bumps the generation; a warm session recovers" (fun () ->
        let fab = Fab.create ~shards:2 ~elim:false (Counting.network ~w:4 ~t:4) in
        let key =
          let rec go k = if Fab.route fab k = 1 then k else go (k + 1) in
          go 0
        in
        let s = Fab.session ~key fab in
        (match Fab.increment s with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "warm-up increment");
        (match Fab.set_shard_count fab 1 with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "shrink failed");
        (match Fab.set_shard_count fab 2 with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "grow failed");
        (* the re-created slot continues, never restarts, the gen
           sequence, so the session's cached pre-shrink (shard, gen)
           pair misses instead of aliasing the shut-down service — the
           retire/respawn ABA the race checker pins *)
        Alcotest.(check int) "generation continues" 1 (Fab.shard_gen fab 1);
        (match Fab.increment s with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "warm session must recover");
        Alcotest.(check int) "count conserved across the cycle" 2 (Fab.read fab));
    tc "decrements flow through the routed shard" (fun () ->
        let fab = Fab.create ~shards:2 ~elim:false (Counting.network ~w:4 ~t:4) in
        let s = Fab.session ~key:3 fab in
        (match Fab.increment s with Ok _ -> () | Error _ -> Alcotest.fail "inc");
        (match Fab.increment s with Ok _ -> () | Error _ -> Alcotest.fail "inc");
        (match Fab.decrement s with Ok _ -> () | Error _ -> Alcotest.fail "dec");
        Alcotest.(check int) "net value" 1 (Fab.read fab));
    tc "shutdown is terminal and freezes the read" (fun () ->
        let fab = Fab.create ~shards:2 ~elim:false (Counting.network ~w:4 ~t:4) in
        let s = Fab.session ~key:0 fab in
        (match Fab.increment s with Ok _ -> () | Error _ -> Alcotest.fail "inc");
        let report = Fab.shutdown fab in
        Alcotest.(check bool) "quiescence validated" true (V.passed report);
        Alcotest.(check bool) "closed" true (Fab.closed fab);
        (match Fab.increment s with
        | Error Fab.Closed -> ()
        | _ -> Alcotest.fail "expected Closed");
        Alcotest.(check int) "frozen read" 1 (Fab.read fab));
    tc "drain merges shard-prefixed reports and re-admits" (fun () ->
        let fab = Fab.create ~shards:2 ~elim:false (Counting.network ~w:4 ~t:4) in
        let s = Fab.session ~key:0 fab in
        (match Fab.increment s with Ok _ -> () | Error _ -> Alcotest.fail "inc");
        let report = Fab.drain fab in
        Alcotest.(check bool) "passed" true (V.passed report);
        List.iter
          (fun prefix ->
            Alcotest.(check bool) (prefix ^ " present") true
              (List.exists
                 (fun (c : V.check) ->
                   String.length c.V.name > String.length prefix
                   && String.sub c.V.name 0 (String.length prefix) = prefix)
                 report.V.checks))
          [ "shard0."; "shard1." ];
        match Fab.increment s with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "drain must re-admit");
    tc "shard_infos reflect dimensions, generation and value" (fun () ->
        let fab = Fab.create ~shards:2 ~elim:false (Counting.network ~w:4 ~t:8) in
        let infos = Fab.shard_infos fab in
        Alcotest.(check int) "two shards" 2 (List.length infos);
        List.iter
          (fun (i : Fab.shard_info) ->
            Alcotest.(check int) "w" 4 i.Fab.width;
            Alcotest.(check int) "t" 8 i.Fab.out_width;
            Alcotest.(check int) "gen" 0 i.Fab.gen;
            Alcotest.(check int) "value" 0 i.Fab.value)
          infos);
  ]

(* The acceptance scenario: a Strict-validated hot-resize from C(8,8)
   to C(16,16) while worker domains hammer the shard.  Every operation
   completes (before the quiescent validation point, or parked and
   replayed on the new service); no token is lost, no value duplicated
   across the base fold. *)
let resize_under_load =
  [
    tc "strict hot-resize C(8,8) -> C(16,16) under concurrent load" (fun () ->
        let fab =
          Fab.create ~shards:1 ~elim:false ~validate:V.Strict
            (Counting.network ~w:8 ~t:8)
        in
        let workers = 4 and per = 2_000 in
        let vals = Array.init workers (fun _ -> Array.make per (-1)) in
        let resize_result = ref (Error Fab.Busy) in
        let doms =
          Array.init (workers + 1) (fun i ->
              Domain.spawn (fun () ->
                  if i = workers then begin
                    (* wait for live traffic, then swap mid-flight *)
                    while Fab.read fab < workers do
                      Domain.cpu_relax ()
                    done;
                    resize_result :=
                      Fab.resize fab ~shard:0 (Counting.network ~w:16 ~t:16)
                  end
                  else begin
                    let s = Fab.session ~key:i fab in
                    for j = 0 to per - 1 do
                      let rec go () =
                        match Fab.increment s with
                        | Ok v -> vals.(i).(j) <- v
                        | Error Fab.Overloaded ->
                            Domain.cpu_relax ();
                            go ()
                        | Error Fab.Closed ->
                            Alcotest.fail "refused while the fabric is open"
                      in
                      go ()
                    done
                  end))
        in
        Array.iter Domain.join doms;
        (match !resize_result with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "resize failed");
        Alcotest.(check int) "generation bumped" 1 (Fab.shard_gen fab 0);
        Alcotest.(check int) "serving C(16,16)" 16
          (T.input_width (Fab.shard_topology fab 0));
        let total = workers * per in
        Alcotest.(check int) "no token lost across the swap" total
          (Fab.read fab);
        let all = Array.to_list (Array.concat (Array.to_list vals)) in
        Alcotest.(check bool) "every operation returned" true
          (List.for_all (fun v -> v >= 0) all);
        Alcotest.(check int) "no value duplicated across the base fold" total
          (List.length (List.sort_uniq compare all));
        (* Strict drain after the dust settles: the swapped-in service
           passes the same quiescence checks the old one validated. *)
        let report = Fab.drain fab in
        Alcotest.(check bool) "post-resize quiescence" true (V.passed report));
    tc "strict shrink under concurrent load conserves every token" (fun () ->
        let fab =
          Fab.create ~shards:4 ~elim:false ~validate:V.Strict
            (Counting.network ~w:4 ~t:4)
        in
        let workers = 4 and per = 1_000 in
        let counted = Array.make workers 0 in
        let rescale_result = ref (Error Fab.Busy) in
        let doms =
          Array.init (workers + 1) (fun i ->
              Domain.spawn (fun () ->
                  if i = workers then begin
                    while Fab.read fab < workers do
                      Domain.cpu_relax ()
                    done;
                    rescale_result := Fab.set_shard_count fab 2
                  end
                  else begin
                    let s = Fab.session ~key:i fab in
                    for _ = 1 to per do
                      let rec go () =
                        match Fab.increment s with
                        | Ok _ -> counted.(i) <- counted.(i) + 1
                        | Error Fab.Overloaded ->
                            Domain.cpu_relax ();
                            go ()
                        | Error Fab.Closed ->
                            Alcotest.fail "refused while the fabric is open"
                      in
                      go ()
                    done
                  end))
        in
        Array.iter Domain.join doms;
        (match !rescale_result with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "shrink failed");
        Alcotest.(check int) "two shards remain" 2 (Fab.shard_count fab);
        Alcotest.(check int) "retired fold conserves the count"
          (Array.fold_left ( + ) 0 counted)
          (Fab.read fab));
  ]

let suite =
  [
    ("fabric.router", router);
    ("fabric.certification", certification);
    ("fabric.ops", ops);
    ("fabric.resize", resize_under_load);
  ]
