(* Unit and property tests for Cn_network.Balancer. *)

module B = Cn_network.Balancer
module S = Cn_sequence.Sequence

let tc name f = Alcotest.test_case name `Quick f
let check_int = Alcotest.(check int)

let construction =
  [
    tc "make regular" (fun () ->
        let b = B.make ~fan_in:2 ~fan_out:2 () in
        Alcotest.(check bool) "regular" true (B.is_regular b));
    tc "make irregular" (fun () ->
        let b = B.make ~fan_in:2 ~fan_out:6 () in
        Alcotest.(check bool) "regular" false (B.is_regular b));
    tc "fields" (fun () ->
        let b = B.make ~init_state:2 ~fan_in:4 ~fan_out:3 () in
        check_int "p" 4 b.B.fan_in;
        check_int "q" 3 b.B.fan_out;
        check_int "s" 2 b.B.init_state);
    Util.raises_invalid "zero fan_in" (fun () -> B.make ~fan_in:0 ~fan_out:2 ());
    Util.raises_invalid "zero fan_out" (fun () -> B.make ~fan_in:2 ~fan_out:0 ());
    Util.raises_invalid "negative init" (fun () ->
        B.make ~init_state:(-1) ~fan_in:2 ~fan_out:2 ());
    Util.raises_invalid "init too large" (fun () ->
        B.make ~init_state:2 ~fan_in:2 ~fan_out:2 ());
    tc "pp without state" (fun () ->
        Alcotest.(check string) "pp" "(2,4)"
          (Format.asprintf "%a" B.pp (B.make ~fan_in:2 ~fan_out:4 ())));
    tc "pp with state" (fun () ->
        Alcotest.(check string) "pp" "(2,4)@1"
          (Format.asprintf "%a" B.pp (B.make ~init_state:1 ~fan_in:2 ~fan_out:4 ())));
  ]

let routing =
  [
    tc "kth token round robin" (fun () ->
        let b = B.make ~fan_in:2 ~fan_out:3 () in
        check_int "t0" 0 (B.wire_of_kth_token b 0);
        check_int "t1" 1 (B.wire_of_kth_token b 1);
        check_int "t2" 2 (B.wire_of_kth_token b 2);
        check_int "t3" 0 (B.wire_of_kth_token b 3));
    tc "kth token with initial state" (fun () ->
        let b = B.make ~init_state:2 ~fan_in:2 ~fan_out:3 () in
        check_int "t0" 2 (B.wire_of_kth_token b 0);
        check_int "t1" 0 (B.wire_of_kth_token b 1));
    Util.raises_invalid "negative k" (fun () ->
        B.wire_of_kth_token (B.make ~fan_in:2 ~fan_out:2 ()) (-1));
    tc "state_after" (fun () ->
        let b = B.make ~fan_in:2 ~fan_out:4 () in
        check_int "after 6" 2 (B.state_after b ~tokens:6));
    tc "fig1 (4,6)-balancer" (fun () ->
        (* Fig. 1 left: 11 tokens through a (4,6)-balancer leave as
           2,2,2,2,2,1 wait: 11 tokens on 6 wires -> 2,2,2,2,2,1. *)
        let b = B.make ~fan_in:4 ~fan_out:6 () in
        Alcotest.check Util.seq "out" [| 2; 2; 2; 2; 2; 1 |] (B.output_counts b ~tokens:11));
  ]

let output_counts =
  [
    tc "zero tokens" (fun () ->
        let b = B.make ~fan_in:2 ~fan_out:4 () in
        Alcotest.check Util.seq "out" [| 0; 0; 0; 0 |] (B.output_counts b ~tokens:0));
    tc "exact multiple" (fun () ->
        let b = B.make ~fan_in:2 ~fan_out:4 () in
        Alcotest.check Util.seq "out" [| 3; 3; 3; 3 |] (B.output_counts b ~tokens:12));
    tc "remainder on top" (fun () ->
        let b = B.make ~fan_in:2 ~fan_out:4 () in
        Alcotest.check Util.seq "out" [| 4; 3; 3; 3 |] (B.output_counts b ~tokens:13));
    tc "initial state rotates" (fun () ->
        let b = B.make ~init_state:1 ~fan_in:2 ~fan_out:3 () in
        (* Tokens land on wires 1, 2, 0, 1 in order. *)
        Alcotest.check Util.seq "out" [| 1; 2; 1 |] (B.output_counts b ~tokens:4));
    Util.raises_invalid "negative tokens" (fun () ->
        B.output_counts (B.make ~fan_in:2 ~fan_out:2 ()) ~tokens:(-1));
    Util.raises_invalid "one port's count: port past fan_out" (fun () ->
        B.output_count (B.make ~fan_in:2 ~fan_out:3 ()) ~tokens:4 3);
    Util.raises_invalid "one port's net count: negative port" (fun () ->
        B.net_output_count (B.make ~fan_in:2 ~fan_out:3 ()) ~net:(-4) (-1));
  ]

let gen_bal_run =
  QCheck2.Gen.(
    bind (int_range 1 8) (fun q ->
        bind (int_range 0 (q - 1)) (fun s ->
            map (fun m -> (q, s, m)) (int_range 0 500))))

let properties =
  [
    Util.qtest "sum preservation" gen_bal_run (fun (q, s, m) ->
        let b = B.make ~init_state:s ~fan_in:2 ~fan_out:q () in
        S.sum (B.output_counts b ~tokens:m) = m);
    Util.qtest "output is step when init_state is 0"
      QCheck2.Gen.(bind (int_range 1 8) (fun q -> map (fun m -> (q, m)) (int_range 0 500)))
      (fun (q, m) ->
        let b = B.make ~fan_in:2 ~fan_out:q () in
        S.is_step (B.output_counts b ~tokens:m));
    Util.qtest "output is 1-smooth for any init state" gen_bal_run (fun (q, s, m) ->
        let b = B.make ~init_state:s ~fan_in:2 ~fan_out:q () in
        S.is_smooth 1 (B.output_counts b ~tokens:m));
    Util.qtest "counts agree with per-token routing" gen_bal_run (fun (q, s, m) ->
        let b = B.make ~init_state:s ~fan_in:2 ~fan_out:q () in
        let slow = Array.make q 0 in
        for k = 0 to m - 1 do
          let w = B.wire_of_kth_token b k in
          slow.(w) <- slow.(w) + 1
        done;
        S.equal slow (B.output_counts b ~tokens:m));
    Util.qtest "state_after matches token count" gen_bal_run (fun (q, s, m) ->
        let b = B.make ~init_state:s ~fan_in:2 ~fan_out:q () in
        B.state_after b ~tokens:m = (s + m) mod q);
  ]

let suite =
  [
    ("balancer.construction", construction);
    ("balancer.routing", routing);
    ("balancer.output_counts", output_counts);
    ("balancer.properties", properties);
  ]
