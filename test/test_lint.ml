(* Tests for Cn_lint: well-formedness codes, abstract-interpretation
   facts, the certification pipeline, CSR faithfulness, layer-prefix
   extraction, and the pinned mutant battery. *)

module T = Cn_network.Topology
module Raw = Cn_network.Raw
module Iso = Cn_network.Iso
module Rt = Cn_runtime.Network_runtime
module Counting = Cn_core.Counting
module Butterfly = Cn_core.Butterfly
module Blocks = Cn_core.Blocks
module Ladder = Cn_core.Ladder
module L = Cn_lint

let tc name f = Alcotest.test_case name `Quick f
let lg w = Cn_core.Params.ilog2 w

let pass_facts (c : L.Cert.t) name =
  (List.find (fun (p : L.Cert.pass_report) -> p.L.Cert.pass = name) c.L.Cert.passes).L.Cert.facts

let codes_of_violations vs = List.map (fun (v : Raw.violation) -> v.code) vs

(* ---- well-formedness: pinned NET codes on hand-broken raws ---- *)

let raw_of net = Raw.of_topology net

let wellformed_tests =
  [
    tc "valid topologies have no violations" (fun () ->
        List.iter
          (fun net -> Alcotest.(check (list string)) "clean" [] (codes_of_violations (Raw.check (raw_of net))))
          [ Counting.network ~w:8 ~t:8; Butterfly.backward 16; Ladder.network 4 ]);
    tc "NET001 non-positive input width" (fun () ->
        let r = { (raw_of (Ladder.network 2)) with Raw.input_width = 0 } in
        Alcotest.(check bool) "has NET001" true
          (List.mem "NET001" (codes_of_violations (Raw.check r))));
    tc "NET003 init state out of range" (fun () ->
        let r = raw_of (Ladder.network 2) in
        let b = r.Raw.balancers.(0) in
        let r = { r with Raw.balancers = [| { b with Raw.init_state = b.Raw.fan_out } |] } in
        Alcotest.(check bool) "has NET003" true
          (List.mem "NET003" (codes_of_violations (Raw.check r))));
    tc "NET005 dangling balancer reference" (fun () ->
        let r = raw_of (Ladder.network 2) in
        let r = { r with Raw.outputs = [| T.Bal_output { bal = 7; port = 0 } |] } in
        Alcotest.(check bool) "has NET005" true
          (List.mem "NET005" (codes_of_violations (Raw.check r))));
    tc "NET006/NET007 duplicate and unconsumed" (fun () ->
        let r = raw_of (Ladder.network 2) in
        let r = { r with Raw.outputs = [| T.Net_input 0; T.Net_input 0 |] } in
        let cs = codes_of_violations (Raw.check r) in
        Alcotest.(check bool) "has NET006" true (List.mem "NET006" cs);
        Alcotest.(check bool) "has NET007" true (List.mem "NET007" cs));
    tc "validate round-trips clean raws" (fun () ->
        let net = Counting.network ~w:4 ~t:4 in
        match Raw.validate (raw_of net) with
        | Ok net2 -> Alcotest.(check bool) "equal" true (T.equal net net2)
        | Error _ -> Alcotest.fail "expected Ok");
  ]

(* ---- abstract interpretation: sound facts, exact pins ---- *)

let absint_tests =
  [
    tc "counting networks conserve flow and are uniform" (fun () ->
        List.iter
          (fun net ->
            let a = L.Absint.analyze net in
            Alcotest.(check bool) "conserves" true (L.Absint.conserves a);
            Alcotest.(check bool) "uniform" true (L.Absint.uniform a))
          [ Counting.network ~w:4 ~t:4; Counting.network ~w:8 ~t:8; Cn_baselines.Bitonic.network 8 ]);
    tc "abstract smoothness of D(w) re-derives the Lemma 5.2 bound" (fun () ->
        (* The interval envelope grows by at most 1 per layer, so the
           analyzer proves lg w-smoothness symbolically at every width. *)
        List.iter
          (fun w ->
            let a = L.Absint.analyze (Butterfly.forward w) in
            Alcotest.(check (option int))
              (Printf.sprintf "D(%d)" w)
              (Some (lg w))
              (L.Absint.smoothness_bound a))
          [ 2; 4; 8; 16; 32; 64 ]);
    tc "ladder pair difference is exactly [0,1]" (fun () ->
        let a = L.Absint.analyze (Ladder.network 4) in
        match L.Absint.output_difference a 0 2 with
        | Some (lo, hi) ->
            Alcotest.(check bool) "lo=0" true (L.Absint.Q.equal lo L.Absint.Q.zero);
            Alcotest.(check bool) "hi=1" true (L.Absint.Q.equal hi L.Absint.Q.one)
        | None -> Alcotest.fail "expected cancelling difference");
    tc "non-uniform network yields no spread bound" (fun () ->
        (* identity wiring is trivially conservative but not uniform *)
        let a = L.Absint.analyze (T.identity 3) in
        Alcotest.(check bool) "conserves" true (L.Absint.conserves a);
        Alcotest.(check bool) "not uniform" false (L.Absint.uniform a);
        Alcotest.(check bool) "no bound" true (L.Absint.spread_bound a = None));
  ]

(* ---- certification pipeline ---- *)

let cert_tests =
  [
    tc "C(4,4) certifies exhaustively" (fun () ->
        let c =
          L.Cert.certify
            ~reference:(Counting.network ~w:4 ~t:4, "Theorems 4.1/4.2")
            ~expected_depth:(Counting.depth_formula ~w:4)
            ~subject:"C(4,4)" ~expectation:L.Cert.Counting
            (Counting.network ~w:4 ~t:4)
        in
        Alcotest.(check bool) "ok" true (L.Cert.ok c);
        match c.L.Cert.evidence with
        | L.Cert.Exhaustive { max_tokens; vectors } ->
            Alcotest.(check int) "max_tokens" 4 max_tokens;
            Alcotest.(check int) "vectors" 625 vectors
        | _ -> Alcotest.fail "expected exhaustive evidence");
    tc "C(16,16) certifies by construction" (fun () ->
        let c =
          L.Cert.certify
            ~reference:(Counting.network ~w:16 ~t:16, "Theorems 4.1/4.2")
            ~expected_depth:(Counting.depth_formula ~w:16)
            ~subject:"C(16,16)" ~expectation:L.Cert.Counting
            (Counting.network ~w:16 ~t:16)
        in
        Alcotest.(check bool) "ok" true (L.Cert.ok c);
        match c.L.Cert.evidence with
        | L.Cert.By_construction cite -> Alcotest.(check string) "cite" "Theorems 4.1/4.2" cite
        | _ -> Alcotest.fail "expected by-construction evidence");
    tc "E(64) certifies through the Lemma 5.3 mapping" (fun () ->
        let c =
          L.Cert.certify
            ~reference:(Butterfly.forward 64, "Lemma 5.3")
            ~iso_hint:(Butterfly.lemma_5_3_mapping 64)
            ~expected_depth:6 ~subject:"E(64)"
            ~expectation:(L.Cert.Smoothing 6) (Butterfly.backward 64)
        in
        Alcotest.(check bool) "ok" true (L.Cert.ok c);
        match c.L.Cert.evidence with
        | L.Cert.By_isomorphism cite -> Alcotest.(check string) "cite" "Lemma 5.3" cite
        | _ -> Alcotest.fail "expected by-isomorphism evidence");
    tc "depth mismatch reports ABS003" (fun () ->
        let c =
          L.Cert.certify ~expected_depth:5 ~subject:"L(4)"
            ~expectation:L.Cert.Half_split (Ladder.network 4)
        in
        Alcotest.(check bool) "ABS003" true (List.mem "ABS003" (L.Cert.codes c)));
    tc "output swap is refuted with a concrete counterexample" (fun () ->
        let net = Counting.network ~w:4 ~t:4 in
        let swap = Array.init 4 (fun i -> if i = 0 then 3 else if i = 3 then 0 else i) in
        let broken = T.permute_outputs (Cn_network.Permutation.of_array swap) net in
        let c =
          L.Cert.certify ~reference:(net, "Theorems 4.1/4.2")
            ~subject:"swapped" ~expectation:L.Cert.Counting broken
        in
        Alcotest.(check bool) "not ok" false (L.Cert.ok c);
        match c.L.Cert.evidence with
        | L.Cert.Refuted cex ->
            (* the certificate carries a replayable input profile *)
            Alcotest.(check bool) "cex width" true (Cn_sequence.Sequence.length cex = 4)
        | _ -> Alcotest.fail "expected refutation");
    tc "over-budget C(16,16) escalates to the two-token battery" (fun () ->
        (* Past the exhaustive budget and without a reference, only the
           escalate pass can refute a misinitialised balancer. *)
        let net =
          T.with_init_states (fun b _ -> if b = 1 then 1 else 0) (Counting.network ~w:16 ~t:16)
        in
        let c =
          L.Cert.certify ~expected_depth:(Counting.depth_formula ~w:16) ~subject:"escalate"
            ~expectation:L.Cert.Counting net
        in
        Alcotest.(check (list string)) "codes" [ "STEP003" ] (L.Cert.codes c);
        match c.L.Cert.evidence with
        | L.Cert.Refuted cex ->
            Alcotest.(check bool) "two-token load" true (Cn_sequence.Sequence.sum cex <= 2);
            Alcotest.(check bool) "replays" false
              (Cn_sequence.Sequence.is_step (Cn_network.Eval.quiescent net cex))
        | _ -> Alcotest.fail "expected refutation");
    tc "escalation battery has the closed-form size" (fun () ->
        List.iter
          (fun w ->
            Alcotest.(check int)
              (Printf.sprintf "w=%d" w)
              (1 + (2 * w) + (w * (w - 1) / 2))
              (List.length (L.Cert.escalation_loads w)))
          [ 2; 4; 8; 16; 64 ]);
    tc "escalation loads put at most two tokens on at most two wires, once each" (fun () ->
        List.iter
          (fun w ->
            let loads = L.Cert.escalation_loads w in
            List.iter
              (fun load ->
                Alcotest.(check int) "width" w (Cn_sequence.Sequence.length load);
                Alcotest.(check bool) "tokens" true (Cn_sequence.Sequence.sum load <= 2);
                Alcotest.(check bool) "wires" true
                  (Array.fold_left (fun n c -> if c > 0 then n + 1 else n) 0 load <= 2))
              loads;
            Alcotest.(check int)
              (Printf.sprintf "distinct w=%d" w)
              (List.length loads)
              (List.length (List.sort_uniq compare (List.map Array.to_list loads))))
          [ 2; 4; 16 ]);
    tc "a sound over-budget C(16,16) runs the whole battery and stays ok" (fun () ->
        let c =
          L.Cert.certify ~expected_depth:(Counting.depth_formula ~w:16) ~subject:"C(16,16)"
            ~expectation:L.Cert.Counting (Counting.network ~w:16 ~t:16)
        in
        Alcotest.(check (list string)) "codes" [] (L.Cert.codes c);
        Alcotest.(check (option string)) "loads"
          (Some (string_of_int (List.length (L.Cert.escalation_loads 16))))
          (List.assoc_opt "loads" (pass_facts c "escalate")));
    tc "escalate is skipped after a conclusive exhaustive pass" (fun () ->
        let c =
          L.Cert.certify ~subject:"C(4,4)" ~expectation:L.Cert.Counting (Counting.network ~w:4 ~t:4)
        in
        (match c.L.Cert.evidence with
        | L.Cert.Exhaustive _ -> ()
        | _ -> Alcotest.fail "expected exhaustive evidence");
        Alcotest.(check (option string)) "skipped"
          (Some "bounded-exhaustive check was conclusive")
          (List.assoc_opt "skipped" (pass_facts c "escalate")));
    tc "escalate is skipped for the merging contract" (fun () ->
        let c =
          L.Cert.certify ~subject:"M(16,8)" ~expectation:(L.Cert.Merging 8)
            (Cn_core.Merging.network ~t:16 ~delta:8)
        in
        Alcotest.(check bool) "ok" true (L.Cert.ok c);
        Alcotest.(check (option string)) "skipped"
          (Some "merging loads are enumerable within budget")
          (List.assoc_opt "skipped" (pass_facts c "escalate")));
  ]

(* ---- CSR faithfulness ---- *)

let csr_tests =
  [
    tc "faithful compilation in C(8,8) and C(4,12)" (fun () ->
        (* C(4,12) has (2,6) transition balancers: the double-mod port
           strategy next to the power-of-two masks. *)
        List.iter
          (fun (w, t) ->
            let net = Counting.network ~w ~t in
            Alcotest.(check (list string)) "clean" []
              (List.map
                 (fun (d : L.Diagnostic.t) -> d.L.Diagnostic.code)
                 (L.Csr_lint.check ~subject:(Printf.sprintf "C(%d,%d)" w t) net
                    (Rt.view (Rt.compile net)))))
          [ (8, 8); (4, 12) ]);
    tc "output-width corruption is CSR008" (fun () ->
        let net = Counting.network ~w:8 ~t:8 in
        let v = Rt.view (Rt.compile net) in
        let v = { v with Rt.v_output_width = v.Rt.v_output_width + 1 } in
        Alcotest.(check bool) "CSR008" true
          (List.exists
             (fun (d : L.Diagnostic.t) -> d.L.Diagnostic.code = "CSR008")
             (L.Csr_lint.check ~subject:"C(8,8)" net v)));
  ]

(* ---- layer-prefix extraction and block structure (Section 6.4) ---- *)

let slice_tests =
  [
    tc "first lg w layers of C(w,t) are exactly C'(w,t)" (fun () ->
        List.iter
          (fun w ->
            let net = Counting.network ~w ~t:w in
            let pre = L.Slice.prefix net ~layers:(lg w) in
            Alcotest.(check bool)
              (Printf.sprintf "w=%d" w)
              true
              (T.equal pre (Blocks.c_prime ~w ~t:w)))
          [ 4; 8; 16; 32; 64 ]);
    tc "full prefix is the network itself" (fun () ->
        let net = Counting.network ~w:8 ~t:8 in
        let all = L.Slice.prefix net ~layers:(T.depth net) in
        Alcotest.(check bool) "same size" true (T.size all = T.size net));
    tc "zero prefix is the identity wiring" (fun () ->
        let net = Counting.network ~w:4 ~t:4 in
        let z = L.Slice.prefix net ~layers:0 in
        Alcotest.(check int) "no balancers" 0 (T.size z);
        Alcotest.(check int) "outputs = inputs" 4 (T.output_width z));
  ]

(* ---- the pinned mutant table (the lint's own certification) ---- *)

(* Every mutant must be rejected, with exactly these diagnostics.  The
   got-lists are pinned, not just the primary code: a change here means
   the analyzers' coverage shifted and must be reviewed. *)
let pinned_mutants =
  [
    ("drop-balancer", "NET005", [ "NET005"; "NET007" ]);
    ("duplicate-wire", "NET006", [ "NET007"; "NET006" ]);
    ("unconsumed-input", "NET007", [ "NET007" ]);
    ("arity-corrupt", "NET002", [ "NET002" ]);
    ("init-out-of-range", "NET003", [ "NET003" ]);
    ("feeds-truncate", "NET004", [ "NET004"; "NET007" ]);
    ("self-loop", "NET009", [ "NET007"; "NET006"; "NET009" ]);
    ("output-swap", "ABS004", [ "ABS004"; "STEP002"; "STEP001" ]);
    ("wire-flip", "STEP002", [ "ABS004"; "STEP002"; "STEP001" ]);
    ("init-corrupt", "ABS004", [ "ABS004"; "STEP002"; "STEP001" ]);
    ("pad-layer", "ABS003", [ "ABS003"; "STEP001" ]);
    ("escalate-init", "STEP003", [ "STEP003"; "STEP001" ]);
    ("csr-truncate-row", "CSR001", [ "CSR001" ]);
    ("csr-mask-corrupt", "CSR002", [ "CSR002" ]);
    ("csr-dangling", "CSR003", [ "CSR003" ]);
    ("csr-rewire", "CSR009", [ "CSR009" ]);
    ("csr-entry-corrupt", "CSR006", [ "CSR006"; "CSR004" ]);
    ("csr-init-corrupt", "CSR007", [ "CSR007" ]);
    ("csr-width", "CSR008", [ "CSR008" ]);
    ("csr-route-strategy", "CSR010", [ "CSR010" ]);
    ("csr-route-shift", "CSR010", [ "CSR010" ]);
    ("csr-drop-output", "CSR004", [ "CSR009"; "CSR004" ]);
  ]

let mutate_tests =
  [
    tc "every mutant is rejected with its pinned diagnostics" (fun () ->
        let outcomes = L.Mutate.battery () in
        Alcotest.(check int) "battery size" (List.length pinned_mutants) (List.length outcomes);
        Alcotest.(check bool) "all rejected" true (L.Mutate.all_rejected outcomes);
        List.iter
          (fun (o : L.Mutate.outcome) ->
            match List.assoc_opt o.name (List.map (fun (n, e, g) -> (n, (e, g))) pinned_mutants) with
            | None -> Alcotest.failf "unpinned mutant %s" o.name
            | Some (expected, got) ->
                Alcotest.(check string) (o.name ^ " expected") expected o.expected;
                Alcotest.(check (list string)) (o.name ^ " got") got o.got)
          outcomes);
  ]

(* ---- portfolio ---- *)

let portfolio_tests =
  [
    tc "portfolio covers the advertised families" (fun () ->
        let names = List.map (fun (e : L.Portfolio.entry) -> e.L.Portfolio.name) (L.Portfolio.entries ()) in
        List.iter
          (fun n -> Alcotest.(check bool) n true (List.mem n names))
          [ "C(2,2)"; "C(64,384)"; "C'(32,32)"; "D(64)"; "E(64)"; "L(16)";
            "BITONIC(8)"; "PERIODIC(64)"; "DIFF(4)"; "M(64,8)" ]);
    tc "small-width portfolio slice certifies" (fun () ->
        let certs =
          L.Portfolio.entries ()
          |> List.filter (fun (e : L.Portfolio.entry) ->
                 List.mem e.L.Portfolio.name [ "C(4,4)"; "E(16)"; "M(8,2)"; "L(8)" ])
          |> List.map L.Portfolio.certify
        in
        Alcotest.(check int) "count" 4 (List.length certs);
        Alcotest.(check bool) "all ok" true (L.Portfolio.all_ok certs));
  ]

(* ---- well-formedness: the full message of every NET code ---- *)

let messages_tests =
  let b22 = { Raw.fan_in = 2; fan_out = 2; init_state = 0 } in
  let base =
    {
      Raw.input_width = 2;
      balancers = [| b22 |];
      feeds = [| [| T.Net_input 0; T.Net_input 1 |] |];
      outputs = [| T.Bal_output { bal = 0; port = 0 }; T.Bal_output { bal = 0; port = 1 } |];
    }
  in
  let pins name raw expected =
    tc name (fun () ->
        Alcotest.(check (list string)) "violations" expected
          (List.map (Format.asprintf "%a" Raw.pp_violation) (Raw.check raw)))
  in
  [
    pins "NET001" { base with Raw.input_width = 0 }
      [
        "NET001: input width must be positive (got 0)";
        "NET005: feed 0 of balancer 0 refers to missing network input 0";
        "NET005: feed 1 of balancer 0 refers to missing network input 1";
      ];
    pins "NET002" { base with Raw.balancers = [| { b22 with Raw.fan_in = 0 } |] }
      [ "NET002: balancer 0 has invalid arity (0,2)" ];
    pins "NET003" { base with Raw.balancers = [| { b22 with Raw.init_state = 2 } |] }
      [ "NET003: balancer 0 has initial state 2 outside [0, 2)" ];
    pins "NET004 feed rows" { base with Raw.feeds = [||] }
      [
        "NET004: 1 balancers but 0 feed rows";
        "NET007: network input 0 is never consumed";
        "NET007: network input 1 is never consumed";
      ];
    pins "NET004 feed arity" { base with Raw.feeds = [| [| T.Net_input 0 |] |] }
      [
        "NET004: balancer 0 has fan-in 2 but 1 feeds"; "NET007: network input 1 is never consumed";
      ];
    pins "NET005 from a feed"
      { base with Raw.feeds = [| [| T.Net_input 0; T.Bal_output { bal = 3; port = 0 } |] |] }
      [
        "NET005: feed 1 of balancer 0 refers to missing output port 0 of balancer 3";
        "NET007: network input 1 is never consumed";
      ];
    pins "NET005 from an output"
      {
        base with
        Raw.outputs = [| T.Bal_output { bal = 0; port = 0 }; T.Bal_output { bal = 0; port = 5 } |];
      }
      [
        "NET005: network output 1 refers to missing output port 5 of balancer 0";
        "NET007: output port 1 of balancer 0 is never consumed";
      ];
    pins "NET006 on a port"
      {
        base with
        Raw.outputs = [| T.Bal_output { bal = 0; port = 0 }; T.Bal_output { bal = 0; port = 0 } |];
      }
      [
        "NET006: output port 0 of balancer 0 consumed 2 times";
        "NET007: output port 1 of balancer 0 is never consumed";
      ];
    pins "NET006 on an input" { base with Raw.feeds = [| [| T.Net_input 0; T.Net_input 0 |] |] }
      [ "NET006: network input 0 consumed 2 times"; "NET007: network input 1 is never consumed" ];
    pins "NET008" { base with Raw.outputs = [||] }
      [
        "NET008: the network has no output wires";
        "NET007: output port 0 of balancer 0 is never consumed";
        "NET007: output port 1 of balancer 0 is never consumed";
      ];
    pins "NET009"
      {
        base with
        Raw.balancers = [| b22; b22 |];
        feeds =
          [|
            [| T.Net_input 0; T.Bal_output { bal = 1; port = 0 } |];
            [| T.Net_input 1; T.Bal_output { bal = 0; port = 0 } |];
          |];
        outputs = [| T.Bal_output { bal = 0; port = 1 }; T.Bal_output { bal = 1; port = 1 } |];
      }
      [ "NET009: the balancer graph contains a cycle (2 balancers involved)" ];
  ]

(* ---- abstract interpretation is sound on every load ---- *)

(* Every quiescent output lies in its wire's abstract value
   [Σ c_j·x_j + [lo, hi]], on irregular fan-ins and fan-outs, wires
   that skip layers, non-zero initial states and loads with many zero
   entries (where [Q.add] and [Q.div_int] take their zero shortcut and
   ports share one coefficient vector).  Flow conservation is a theorem
   for every balancing network, so [conserves] must hold on each. *)
let absint_soundness_tests =
  let module Q = L.Absint.Q in
  let affine (v : L.Absint.wire) x =
    let acc = ref Q.zero in
    Array.iteri
      (fun j c ->
        for _ = 1 to x.(j) do
          acc := Q.add !acc c
        done)
      v.L.Absint.coeffs;
    !acc
  in
  let case name ~width make =
    Util.qtest ~count:100 ("quiescent outputs lie in their absint wires on " ^ name)
      QCheck2.Gen.(pair (int_range 0 1000) (list_repeat width (int_range 0 12)))
      (fun (seed, x) ->
        let net = make seed and x = Array.of_list x in
        let a = L.Absint.analyze net in
        L.Absint.conserves a
        && Array.for_all Fun.id
             (Array.mapi
                (fun i o ->
                  let v = L.Absint.output a i in
                  let s = affine v x and o = Q.of_int o in
                  Q.leq (Q.add s v.L.Absint.lo) o && Q.leq o (Q.add s v.L.Absint.hi))
                (Cn_network.Eval.quiescent net x)))
  in
  [
    case "irregular nets" ~width:6 (fun seed -> Cn_network.Random_net.irregular ~seed ~layers:4 6);
    case "sparse nets" ~width:8 (fun seed -> Cn_network.Random_net.sparse ~seed ~layers:5 8);
    case "randomized-state C(4,8)" ~width:4 (fun seed ->
        T.randomize_states ~seed (Counting.network ~w:4 ~t:8));
  ]

let suite =
  [
    ("lint.wellformed", wellformed_tests);
    ("lint.absint", absint_tests);
    ("lint.cert", cert_tests);
    ("lint.csr", csr_tests);
    ("lint.slice", slice_tests);
    ("lint.mutate", mutate_tests);
    ("lint.portfolio", portfolio_tests);
    ("lint.messages", messages_tests);
    ("lint.absint_soundness", absint_soundness_tests);
  ]
