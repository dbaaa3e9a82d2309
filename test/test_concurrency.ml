(* Tests for the counting-network barrier. *)

module Barrier = Cn_runtime.Barrier

let tc name f = Alcotest.test_case name `Quick f

let barrier =
  [
    tc "all parties synchronize across rounds" (fun () ->
        let parties = 6 and rounds = 100 in
        let b = Barrier.create ~parties () in
        let in_round = Array.init rounds (fun _ -> Atomic.make 0) in
        let violations = Atomic.make 0 in
        let body pid () =
          for r = 0 to rounds - 1 do
            Atomic.incr in_round.(r);
            if r > 0 && Atomic.get in_round.(r - 1) < parties then Atomic.incr violations;
            Barrier.await b ~pid
          done
        in
        let handles = Array.init parties (fun pid -> Domain.spawn (body pid)) in
        Array.iter Domain.join handles;
        Alcotest.(check int) "violations" 0 (Atomic.get violations);
        Alcotest.(check int) "rounds" rounds (Barrier.rounds_completed b);
        Alcotest.(check bool) "all arrived" true
          (Array.for_all (fun c -> Atomic.get c = parties) in_round));
    tc "custom network accepted when widths match" (fun () ->
        let net = Cn_core.Counting.network ~w:4 ~t:8 in
        let b = Barrier.create ~network:net ~parties:8 () in
        Alcotest.(check int) "parties" 8 (Barrier.parties b));
    Util.raises_invalid "custom network width mismatch" (fun () ->
        ignore (Barrier.create ~network:(Cn_core.Counting.network ~w:4 ~t:8) ~parties:6 ()));
    Util.raises_invalid "odd parties without network" (fun () ->
        ignore (Barrier.create ~parties:5 ()));
    Util.raises_invalid "fewer than two parties" (fun () ->
        ignore (Barrier.create ~parties:1 ()));
    tc "default network choice covers non-power-of-two parties" (fun () ->
        (* parties = 12: w = 4 (largest power of two dividing 12). *)
        let b = Barrier.create ~parties:12 () in
        let handles =
          Array.init 12 (fun pid ->
              Domain.spawn (fun () ->
                  for _ = 1 to 20 do
                    Barrier.await b ~pid
                  done))
        in
        Array.iter Domain.join handles;
        Alcotest.(check int) "rounds" 20 (Barrier.rounds_completed b));
  ]

let suite = [ ("concurrency.barrier", barrier) ]
