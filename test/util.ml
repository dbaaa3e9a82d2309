(* Shared helpers for the test suites. *)

module S = Cn_sequence.Sequence
module T = Cn_network.Topology
module E = Cn_network.Eval

let check_step ?(msg = "output is step") y = Alcotest.(check bool) msg true (S.is_step y)

let seq = Alcotest.testable S.pp S.equal

let random_input ?(max_tokens = 50) rng w =
  Array.init w (fun _ -> Random.State.int rng (max_tokens + 1))

(* Run [trials] random quiescent evaluations and assert a predicate on
   (input, output). *)
let for_random_inputs ?(trials = 100) ?(seed = 0) ?max_tokens net assert_io =
  let rng = Random.State.make [| seed |] in
  let w = T.input_width net in
  for i = 1 to trials do
    let x = random_input ?max_tokens rng w in
    let y = E.quiescent net x in
    assert_io ~trial:i ~x ~y
  done

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let raises_invalid name f =
  Alcotest.test_case name `Quick (fun () ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s: expected Invalid_argument" name)
