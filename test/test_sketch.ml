(* Tests for the approximate counting tier (Cn_sketch): HyperLogLog
   accuracy against the 1.04/sqrt(m) theory, union algebra, the
   sparse-graph counters' peeling decode below the load threshold and
   graceful degradation above it, multi-domain safety of both hot
   paths, and the Shared_counter.Custom adapters. *)

module Hll = Cn_sketch.Hll
module Sparse = Cn_sketch.Sparse
module Backend = Cn_sketch.Backend
module SC = Cn_runtime.Shared_counter

let tc name f = Alcotest.test_case name `Quick f

let rel_err ~truth est = abs_float (est -. truth) /. truth

let hll_accuracy =
  [
    tc "relative error within the 1.04/sqrt m bound on 1e6 keys" (fun () ->
        let t = Hll.create ~precision:14 () in
        let n = 1_000_000 in
        for i = 0 to n - 1 do
          Hll.add t i
        done;
        let err = rel_err ~truth:(float_of_int n) (Hll.cardinality t) in
        (* sigma = 1.04/sqrt(16384) = 0.81%; the estimator is a random
           variable over the hash choice, which is fixed here, so this
           deterministic stream must land within ~1 sigma of truth. *)
        Alcotest.(check bool)
          (Printf.sprintf "err %.4f <= std error %.4f" err (Hll.std_error t))
          true
          (err <= Hll.std_error t));
    tc "linear-counting regime is near exact at small cardinality" (fun () ->
        let t = Hll.create ~precision:12 () in
        for i = 0 to 99 do
          Hll.add t i
        done;
        let err = rel_err ~truth:100. (Hll.cardinality t) in
        Alcotest.(check bool) (Printf.sprintf "err %.4f <= 0.05" err) true (err <= 0.05));
    tc "adds are idempotent" (fun () ->
        let t = Hll.create ~precision:10 () in
        for i = 0 to 999 do
          Hll.add t i
        done;
        let before = Hll.cardinality t in
        for _ = 1 to 3 do
          for i = 0 to 999 do
            Hll.add t i
          done
        done;
        Alcotest.(check (float 0.)) "unchanged" before (Hll.cardinality t));
    tc "error stays within bound across precisions at 1e5 keys" (fun () ->
        List.iter
          (fun p ->
            let t = Hll.create ~precision:p () in
            for i = 0 to 99_999 do
              Hll.add t i
            done;
            let err = rel_err ~truth:1e5 (Hll.cardinality t) in
            (* 2 sigma: the 95% envelope.  Each precision is one fixed
               draw of the hash-induced estimator, and the p=10 draw on
               this stream sits at 1.6 sigma. *)
            Alcotest.(check bool)
              (Printf.sprintf "p=%d: err %.4f <= %.4f" p err (2. *. Hll.std_error t))
              true
              (err <= 2. *. Hll.std_error t))
          [ 10; 12; 14 ]);
    tc "multi-domain adds observe every key" (fun () ->
        let t = Hll.create ~precision:12 () in
        let domains = 4 and per = 50_000 in
        let workers =
          List.init domains (fun d ->
              Domain.spawn (fun () ->
                  for i = d * per to ((d + 1) * per) - 1 do
                    Hll.add t i
                  done))
        in
        List.iter Domain.join workers;
        (* CAS-max never loses a maximum, so the registers — and hence
           the estimate — must be *identical* to a sequential build of
           the same key set, under any interleaving. *)
        let seq = Hll.create ~precision:12 () in
        for i = 0 to (domains * per) - 1 do
          Hll.add seq i
        done;
        Alcotest.(check (float 0.))
          "identical to sequential" (Hll.cardinality seq) (Hll.cardinality t));
  ]

let gen_key_list = QCheck2.Gen.(list_size (int_range 0 400) (int_range 0 5000))

let hll_union =
  [
    Util.qtest "union is commutative (register-exact)" QCheck2.Gen.(pair gen_key_list gen_key_list)
      (fun (ka, kb) ->
        let a = Hll.create ~precision:8 () and b = Hll.create ~precision:8 () in
        List.iter (Hll.add a) ka;
        List.iter (Hll.add b) kb;
        Hll.cardinality (Hll.union a b) = Hll.cardinality (Hll.union b a));
    Util.qtest "union is idempotent" gen_key_list (fun ks ->
        let a = Hll.create ~precision:8 () in
        List.iter (Hll.add a) ks;
        Hll.cardinality (Hll.union a a) = Hll.cardinality a);
    Util.qtest "union absorbs the empty sketch" gen_key_list (fun ks ->
        let a = Hll.create ~precision:8 () in
        List.iter (Hll.add a) ks;
        Hll.cardinality (Hll.union a (Hll.create ~precision:8 ())) = Hll.cardinality a);
    Util.qtest "union = sketch of the concatenated stream" QCheck2.Gen.(pair gen_key_list gen_key_list)
      (fun (ka, kb) ->
        let a = Hll.create ~precision:8 () and b = Hll.create ~precision:8 () in
        let both = Hll.create ~precision:8 () in
        List.iter (Hll.add a) ka;
        List.iter (Hll.add b) kb;
        List.iter (Hll.add both) (ka @ kb);
        Hll.cardinality (Hll.union a b) = Hll.cardinality both);
    tc "union rejects mismatched precision" (fun () ->
        Alcotest.check_raises "precision mismatch"
          (Invalid_argument "Hll.union: precision mismatch") (fun () ->
            ignore (Hll.union (Hll.create ~precision:8 ()) (Hll.create ~precision:10 ()))));
  ]

let sparse_tallies n ~seed =
  let rng = Random.State.make [| seed |] in
  List.init n (fun k -> (k, 1 + Random.State.int rng 1000))

let sparse =
  [
    tc "edges are k distinct in-range counters" (fun () ->
        let t = Sparse.create ~degree:3 ~counters:64 () in
        for key = 0 to 9999 do
          let es = Sparse.edges t key in
          Alcotest.(check int) "degree" 3 (Array.length es);
          Array.iter
            (fun e -> Alcotest.(check bool) "in range" true (e >= 0 && e < 64))
            es;
          let sorted = Array.copy es in
          Array.sort compare sorted;
          Alcotest.(check bool) "distinct" true
            (sorted.(0) <> sorted.(1) && sorted.(1) <> sorted.(2))
        done);
    tc "decode is exact below the peeling threshold" (fun () ->
        (* n = 1000 keys into m = 2048 >= 1.23n counters at k = 3: the
           LMP regime where peeling recovers every tally exactly. *)
        let t = Sparse.create ~degree:3 ~counters:2048 () in
        let tallies = sparse_tallies 1000 ~seed:42 in
        List.iter (fun (k, v) -> Sparse.add t k v) tallies;
        let decoded = Sparse.decode t (List.map fst tallies) in
        List.iter2
          (fun (k, truth) (k', { Sparse.value; exact }) ->
            Alcotest.(check int) "same key" k k';
            Alcotest.(check bool) (Printf.sprintf "key %d exact" k) true exact;
            Alcotest.(check int) (Printf.sprintf "key %d value" k) truth value)
          tallies decoded);
    tc "decode degrades to upper bounds above the threshold" (fun () ->
        (* 4096 keys into 512 counters: far past the 2-core threshold;
           peeling stalls and survivors fall back to min-estimates,
           which must still bound the truth from above. *)
        let t = Sparse.create ~degree:3 ~counters:512 () in
        let tallies = sparse_tallies 4096 ~seed:7 in
        List.iter (fun (k, v) -> Sparse.add t k v) tallies;
        let decoded = Sparse.decode t (List.map fst tallies) in
        let inexact = ref 0 in
        List.iter2
          (fun (_, truth) (_, { Sparse.value; exact }) ->
            if not exact then incr inexact;
            Alcotest.(check bool) "estimate bounds truth" true (value >= truth))
          tallies decoded;
        Alcotest.(check bool) "overload actually degraded some keys" true (!inexact > 0));
    tc "estimate bounds the true tally" (fun () ->
        let t = Sparse.create ~degree:3 ~counters:256 () in
        let tallies = sparse_tallies 500 ~seed:3 in
        List.iter (fun (k, v) -> Sparse.add t k v) tallies;
        List.iter
          (fun (k, truth) ->
            Alcotest.(check bool) "upper bound" true (Sparse.estimate t k >= truth))
          tallies);
    tc "multi-domain FAA updates conserve every edge" (fun () ->
        let t = Sparse.create ~degree:3 ~counters:1024 () in
        let domains = 4 and per_key = 1000 and keys = 64 in
        let workers =
          List.init domains (fun _ ->
              Domain.spawn (fun () ->
                  for _ = 1 to per_key do
                    for k = 0 to keys - 1 do
                      Sparse.add t k 1
                    done
                  done))
        in
        List.iter Domain.join workers;
        (* Quiescent decode must see the exact per-key totals: FAA
           never loses an update. *)
        let decoded = Sparse.decode t (List.init keys (fun k -> k)) in
        List.iter
          (fun (k, { Sparse.value; exact }) ->
            Alcotest.(check bool) (Printf.sprintf "key %d exact" k) true exact;
            Alcotest.(check int) (Printf.sprintf "key %d total" k) (domains * per_key) value)
          decoded);
    tc "memory stays sublinear in keys" (fun () ->
        let t = Sparse.create ~degree:3 ~counters:1024 () in
        for k = 0 to 99_999 do
          Sparse.add t k 1
        done;
        (* 100k keys leave no per-key residue: footprint is the fixed
           counter bank, not the key set. *)
        Alcotest.(check bool) "bounded" true (Sparse.memory_bytes t < 200_000));
  ]

let backends =
  [
    tc "hll backend estimates the increment count" (fun () ->
        let b = Backend.hll ~precision:12 () in
        let n = 20_000 in
        for i = 0 to n - 1 do
          ignore (SC.next b.Backend.counter ~pid:(i mod 8))
        done;
        let err = rel_err ~truth:(float_of_int n) (Hll.cardinality b.Backend.incs) in
        Alcotest.(check bool)
          (Printf.sprintf "err %.4f within 2 sigma" err)
          true
          (err <= 2. *. Hll.std_error b.Backend.incs));
    tc "hll backend nets decrements against increments" (fun () ->
        let b = Backend.hll ~precision:12 () in
        for i = 0 to 9_999 do
          ignore (SC.next b.Backend.counter ~pid:(i mod 4))
        done;
        for i = 0 to 3_999 do
          ignore (SC.prev b.Backend.counter ~pid:(i mod 4))
        done;
        let net =
          Hll.cardinality b.Backend.incs -. Hll.cardinality b.Backend.decs
        in
        (* The net divides the *difference* of two estimates by a
           smaller truth, so its relative error is wider than either
           sketch's: 10% still cleanly separates 6000 from the 10000
           (lost decs) and 2000 (double-counted decs) failure modes. *)
        let err = rel_err ~truth:6_000. net in
        Alcotest.(check bool) (Printf.sprintf "net err %.4f" err) true (err <= 0.10));
    tc "hll backend tickets are unique and slot-monotone" (fun () ->
        let b = Backend.hll ~precision:10 ~slots:8 () in
        let seen = Hashtbl.create 1024 in
        let last = Array.make 8 (-1) in
        for i = 0 to 4_095 do
          let pid = i mod 13 in
          let ticket = SC.next b.Backend.counter ~pid in
          Alcotest.(check bool) "fresh" false (Hashtbl.mem seen ticket);
          Hashtbl.add seen ticket ();
          let slot = pid mod 8 in
          Alcotest.(check bool) "monotone within slot" true (ticket > last.(slot));
          last.(slot) <- ticket
        done);
    tc "hll backend mints unique keys across slot-sharing pids" (fun () ->
        (* pids 3 and 67 share slot 3 of 64; the minted keys must still
           all be distinct, which the estimate reflects. *)
        let b = Backend.hll ~precision:12 ~slots:64 () in
        for _ = 1 to 5_000 do
          ignore (SC.next b.Backend.counter ~pid:3);
          ignore (SC.next b.Backend.counter ~pid:67)
        done;
        (* What this pins is uniqueness, not estimator variance: if
           slot-sharing pids minted colliding keys the estimate would
           collapse toward 5000.  10% rejects that decisively while
           tolerating this stream's 2.6-sigma draw. *)
        let err = rel_err ~truth:10_000. (Hll.cardinality b.Backend.incs) in
        Alcotest.(check bool) (Printf.sprintf "err %.4f" err) true (err <= 0.10));
    tc "sparse backend tallies per-pid flows" (fun () ->
        let b = Backend.sparse ~counters:4096 () in
        for pid = 0 to 7 do
          for _ = 1 to (pid + 1) * 100 do
            ignore (SC.next b.Backend.counter ~pid)
          done
        done;
        (* Only 8 flows in 4096 counters: min-estimates are exact. *)
        let decoded = Sparse.decode b.Backend.sketch (List.init 8 (fun p -> p)) in
        List.iter
          (fun (pid, { Sparse.value; exact }) ->
            Alcotest.(check bool) "exact" true exact;
            Alcotest.(check int) (Printf.sprintf "pid %d" pid) ((pid + 1) * 100) value)
          decoded);
    tc "sparse backend prev retires tokens" (fun () ->
        let b = Backend.sparse ~counters:1024 () in
        for _ = 1 to 500 do
          ignore (SC.next b.Backend.counter ~pid:1)
        done;
        for _ = 1 to 200 do
          ignore (SC.prev b.Backend.counter ~pid:1)
        done;
        Alcotest.(check int) "net flow" 300 (Sparse.estimate b.Backend.sketch 1));
  ]

let suite =
  [
    ("sketch.hll", hll_accuracy);
    ("sketch.hll-union", hll_union);
    ("sketch.sparse", sparse);
    ("sketch.backends", backends);
  ]
