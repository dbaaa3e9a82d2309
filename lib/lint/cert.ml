module Topology = Cn_network.Topology
module Raw = Cn_network.Raw
module Eval = Cn_network.Eval
module Iso = Cn_network.Iso
module Permutation = Cn_network.Permutation
module Sequence = Cn_sequence.Sequence
module Verify = Cn_core.Verify
module Rt = Cn_runtime.Network_runtime

type expectation = Counting | Smoothing of int | Merging of int | Half_split

type evidence =
  | Exhaustive of { max_tokens : int; vectors : int }
  | By_construction of string
  | By_isomorphism of string
  | Refuted of Sequence.t
  | Unverified

type pass_report = {
  pass : string;
  facts : (string * string) list;
  diagnostics : Diagnostic.t list;
}

type t = {
  subject : string;
  expectation : expectation;
  passes : pass_report list;
  evidence : evidence;
}

let expectation_string = function
  | Counting -> "counting"
  | Smoothing k -> Printf.sprintf "%d-smoothing" k
  | Merging delta -> Printf.sprintf "merging(delta=%d)" delta
  | Half_split -> "half-split"

let evidence_string = function
  | Exhaustive { max_tokens; vectors } ->
      Printf.sprintf "exhaustive (max_tokens %d, %d loads)" max_tokens vectors
  | By_construction cite -> Printf.sprintf "by construction (%s)" cite
  | By_isomorphism cite -> Printf.sprintf "by isomorphism (%s)" cite
  | Refuted cex -> Printf.sprintf "refuted by load %s" (Sequence.to_string cex)
  | Unverified -> "unverified"

(* The ladder contract, checked on a concrete output profile: outputs i
   and i + w/2 come from the same (2,2)-balancer, so they differ by 0
   or 1 and the halves by at most w/2 (Section 4.1). *)
let half_split_holds out =
  let t = Array.length out in
  t mod 2 = 0
  &&
  let half = t / 2 in
  let pairs_ok = ref true in
  for i = 0 to half - 1 do
    let d = out.(i) - out.(i + half) in
    if d < 0 || d > 1 then pairs_ok := false
  done;
  let d = Sequence.sum (Sequence.first_half out) - Sequence.sum (Sequence.second_half out) in
  !pairs_ok && d >= 0 && d <= half

let property_holds expectation out =
  match expectation with
  | Counting -> Sequence.is_step out
  | Smoothing k -> Sequence.is_smooth k out
  | Merging _ -> Sequence.is_step out
  | Half_split -> half_split_holds out

(* Deterministic probe loads.  A tiny LCG stands in for Random so the
   battery is reproducible and pinnable in cram output. *)
let lcg s = ((s * 48271) + 1) land 0x3FFFFFFF

let probe_loads expectation w =
  match expectation with
  | Merging delta ->
      (* Valid merging inputs only: two step halves x, y with
         0 <= Σx − Σy <= delta. *)
      let half = w / 2 in
      List.map
        (fun (sy, d) ->
          Array.append (Sequence.make_step ~total:(sy + d) ~width:half)
            (Sequence.make_step ~total:sy ~width:half))
        [
          (0, 0);
          (0, delta);
          (3, 1);
          (5, delta);
          (7, delta / 2);
          ((2 * delta) + 1, delta);
          (13, 0);
        ]
  | Counting | Smoothing _ | Half_split ->
      let seeded seed = Array.init w (fun i -> lcg (seed + (31 * i)) mod 7) in
      [
        Array.make w 0;
        Array.make w 1;
        Array.make w 3;
        Array.init w (fun i -> i);
        Array.init w (fun i -> w - 1 - i);
        Array.init w (fun i -> if i = 0 then (3 * w) + 1 else 0);
        seeded 1;
        seeded 2;
        seeded 3;
      ]

(* Bounded-exhaustive plan: largest per-wire bound whose input space
   fits the budget (never above Verify's own 10^7 hard cap). *)
let exhaustive_plan expectation w budget =
  match expectation with
  | Merging delta ->
      let max_half_sum = max ((2 * delta) + 2) 8 in
      let vectors = (max_half_sum + 1) * (delta + 1) in
      if vectors <= budget then Some (`Merging (delta, max_half_sum), vectors) else None
  | Counting | Smoothing _ | Half_split ->
      let space max_tokens =
        let rec go acc i = if i = 0 then acc else if acc > budget then acc else go (acc * (max_tokens + 1)) (i - 1) in
        go 1 w
      in
      let rec pick = function
        | [] -> None
        | mt :: rest ->
            let vectors = space mt in
            if vectors <= budget then Some (`Bounded mt, vectors) else pick rest
      in
      pick [ 4; 3; 2; 1 ]

(* The escalation battery: every load placing at most two tokens on at
   most two input wires.  Sparse low-weight loads are exactly where a
   miswired or misinitialised stage first leaves the step regime (a
   single balancer pair sends both tokens the same way), and the
   battery stays tiny — 1 + 2w + w(w−1)/2 loads — even at w = 64. *)
let escalation_loads w =
  let load pairs =
    let a = Array.make w 0 in
    List.iter (fun (i, n) -> a.(i) <- n) pairs;
    a
  in
  (load []
  :: List.concat_map
       (fun i -> [ load [ (i, 1) ]; load [ (i, 2) ] ])
       (List.init w Fun.id))
  @ List.concat_map
      (fun i ->
        List.filter_map
          (fun j -> if j > i then Some (load [ (i, 1); (j, 1) ]) else None)
          (List.init w Fun.id))
      (List.init w Fun.id)

let certify ?reference ?iso_hint ?expected_depth ?(exhaustive_budget = 20_000)
    ~subject ~expectation net =
  let w = Topology.input_width net in
  let t_out = Topology.output_width net in
  let refuted = ref None in
  let refute cex = if !refuted = None then refuted := Some cex in
  let diag ?severity pass code fmt = Diagnostic.make ?severity ~pass ~subject code fmt in
  (* 1. Well-formedness. *)
  let wellformed =
    {
      pass = "wellformed";
      facts = [];
      diagnostics =
        List.map (Diagnostic.of_violation ~pass:"wellformed" ~subject) (Raw.check (Raw.of_topology net));
    }
  in
  (* 2. Shape. *)
  let shape =
    let depth = Topology.depth net in
    let diags =
      match expected_depth with
      | Some d when d <> depth ->
          [ diag "shape" "ABS003" "depth is %d, the closed form for this family gives %d" depth d ]
      | _ -> []
    in
    {
      pass = "shape";
      facts =
        [
          ("width", Printf.sprintf "%d -> %d" w t_out);
          ("size", string_of_int (Topology.size net));
          ("depth", string_of_int depth);
          ("regular", string_of_bool (Topology.is_regular net));
        ]
      @ (match expected_depth with Some d -> [ ("expected_depth", string_of_int d) ] | None -> []);
      diagnostics = diags;
    }
  in
  (* 3. Abstract interpretation. *)
  let absint =
    let a = Absint.analyze net in
    let facts = ref [] in
    let diags = ref [] in
    let fact k v = facts := (k, v) :: !facts in
    let emit d = diags := d :: !diags in
    let conserves = Absint.conserves a in
    fact "conserves" (string_of_bool conserves);
    if not conserves then
      emit (diag "absint" "ABS001" "flow conservation fails: some input's output coefficients do not sum to 1");
    let uniform = Absint.uniform a in
    fact "uniform" (string_of_bool uniform);
    (match Absint.smoothness_bound a with
    | Some k -> fact "abstract_smoothness" (string_of_int k)
    | None -> ());
    (match expectation with
    | Counting | Smoothing _ ->
        if not uniform then
          emit
            (diag "absint" "ABS005" "outputs do not mix uniformly: some coefficient differs from 1/%d"
               t_out);
        (match (expectation, Absint.smoothness_bound a) with
        | Smoothing k, Some kh when kh > k ->
            emit
              (diag "absint" "ABS002" "abstract smoothness bound is %d, expected at most %d" kh k)
        | _ -> ())
    | Half_split ->
        let half = t_out / 2 in
        let pair_ok = ref true in
        for i = 0 to half - 1 do
          match Absint.output_difference a i (i + half) with
          | Some (lo, hi) ->
              if Absint.Q.compare lo Absint.Q.zero < 0 || Absint.Q.compare hi Absint.Q.one > 0 then
                pair_ok := false
          | None -> pair_ok := false
        done;
        if not !pair_ok then
          emit
            (diag "absint" "ABS006"
               "paired outputs i, i+%d are not confined to a difference in [0, 1]" half)
        else fact "pair_difference" "[0, 1]";
        (match Absint.half_split_bound a with
        | Some (lo, hi)
          when Absint.Q.compare lo Absint.Q.zero >= 0
               && Absint.Q.leq hi (Absint.Q.of_int half) ->
            fact "half_split" (Format.asprintf "[%a, %a]" Absint.Q.pp lo Absint.Q.pp hi)
        | Some (lo, hi) ->
            emit
              (diag "absint" "ABS006" "half sums differ by [%a, %a], expected within [0, %d]"
                 Absint.Q.pp lo Absint.Q.pp hi half)
        | None ->
            emit (diag "absint" "ABS006" "half-sum coefficients do not cancel"))
    | Merging _ -> ());
    { pass = "absint"; facts = List.rev !facts; diagnostics = List.rev !diags }
  in
  (* 4. Deterministic probes. *)
  let probe =
    let loads = probe_loads expectation w in
    let diags = ref [] in
    let checked = ref 0 in
    (try
       List.iter
         (fun load ->
           incr checked;
           let out = Eval.quiescent net load in
           if not (property_holds expectation out) then begin
             refute load;
             diags :=
               [
                 diag "probe" "ABS004" "load %s produces %s, violating the %s property"
                   (Sequence.to_string load) (Sequence.to_string out)
                   (expectation_string expectation);
               ];
             raise Exit
           end)
         loads
     with Exit -> ());
    {
      pass = "probe";
      facts = [ ("loads", string_of_int !checked) ];
      diagnostics = !diags;
    }
  in
  (* 5. Bounded-exhaustive model check. *)
  let exhaustive_evidence = ref None in
  let exhaustive =
    match exhaustive_plan expectation w exhaustive_budget with
    | None ->
        { pass = "exhaustive"; facts = [ ("skipped", "input space exceeds budget") ]; diagnostics = [] }
    | Some (plan, _vectors) ->
        let outcome, max_tokens =
          match plan with
          | `Merging (delta, max_half_sum) ->
              (Verify.merging ~delta ~max_half_sum net, max_half_sum)
          | `Bounded max_tokens -> (
              ( (match expectation with
                | Counting -> Verify.counting ~max_tokens net
                | Smoothing k -> Verify.smoothing ~k ~max_tokens net
                | Half_split ->
                    Verify.forall_inputs ~max_tokens net (fun _in out -> half_split_holds out)
                | Merging _ -> assert false),
                max_tokens ))
        in
        (match outcome with
        | Verify.Verified n ->
            exhaustive_evidence := Some (Exhaustive { max_tokens; vectors = n });
            { pass = "exhaustive"; facts = [ ("loads", string_of_int n) ]; diagnostics = [] }
        | Verify.Counterexample cex ->
            refute cex;
            {
              pass = "exhaustive";
              facts = [];
              diagnostics =
                [
                  diag "exhaustive" "STEP002" "refuted on load %s (checked up to %d tokens per wire)"
                    (Sequence.to_string cex) max_tokens;
                ];
            })
  in
  (* 6. Escalation.  The interval domain is inconclusive for
     order-sensitive properties — for a counting expectation absint
     proves uniform 1/t mixing at best, never the step property — so
     when the bounded-exhaustive pass was skipped over budget the
     certificate would otherwise rest on structural evidence alone, so
     escalate to the directed two-token battery; a violation is a
     concrete replayable counterexample (STEP003). *)
  let escalate =
    let skipped reason =
      { pass = "escalate"; facts = [ ("skipped", reason) ]; diagnostics = [] }
    in
    match expectation with
    | Merging _ -> skipped "merging loads are enumerable within budget"
    | Counting | Smoothing _ | Half_split ->
        if !refuted <> None then skipped "already refuted"
        else if !exhaustive_evidence <> None then skipped "bounded-exhaustive check was conclusive"
        else begin
          let loads = escalation_loads w in
          let diags = ref [] in
          let checked = ref 0 in
          (try
             List.iter
               (fun load ->
                 incr checked;
                 let out = Eval.quiescent net load in
                 if not (property_holds expectation out) then begin
                   refute load;
                   diags :=
                     [
                       diag "escalate" "STEP003"
                         "two-token load %s produces %s, violating the %s property"
                         (Sequence.to_string load) (Sequence.to_string out)
                         (expectation_string expectation);
                     ];
                   raise Exit
                 end)
               loads
           with Exit -> ());
          {
            pass = "escalate";
            facts =
              [ ("battery", "<= 2 tokens on <= 2 wires"); ("loads", string_of_int !checked) ];
            diagnostics = !diags;
          }
        end
  in
  (* 7. Structural certification against the reference construction. *)
  let structural_evidence = ref None in
  let structural =
    match reference with
    | None -> { pass = "structural"; facts = [ ("skipped", "no reference construction") ]; diagnostics = [] }
    | Some (ref_net, cite) ->
        if Topology.equal net ref_net then begin
          structural_evidence := Some (By_construction cite);
          { pass = "structural"; facts = [ ("equal", "reference construction") ]; diagnostics = [] }
        end
        else begin
          (* A constructed mapping (e.g. Lemma 5.3's bit-reversal) is
             validated before falling back to the generic search, which
             exhausts its budget on backward butterflies at w >= 32. *)
          let mapping =
            match iso_hint with
            | Some m when Result.is_ok (Iso.check net ref_net ~mapping:m) -> Some m
            | _ -> Iso.find net ref_net
          in
          match mapping with
          | None ->
              {
                pass = "structural";
                facts = [];
                diagnostics =
                  [
                    diag "structural" "STEP001"
                      "neither structurally equal nor isomorphic to the reference construction (%s)"
                      cite;
                  ];
              }
          | Some mapping -> (
              match Iso.check net ref_net ~mapping with
              | Error reason ->
                  {
                    pass = "structural";
                    facts = [];
                    diagnostics =
                      [ diag "structural" "STEP001" "isomorphism search returned an invalid mapping: %s" reason ];
                  }
              | Ok (_pi_in, pi_out) ->
                  (* Lemma 2.7 transports quiescent outputs along pi_out.
                     Smoothness is invariant under output permutation;
                     the step property is not. *)
                  let order_insensitive =
                    match expectation with Smoothing _ -> true | _ -> false
                  in
                  if order_insensitive || Permutation.is_identity pi_out then begin
                    structural_evidence := Some (By_isomorphism cite);
                    {
                      pass = "structural";
                      facts = [ ("isomorphic", "reference construction (Lemma 2.7)") ];
                      diagnostics = [];
                    }
                  end
                  else
                    {
                      pass = "structural";
                      facts = [];
                      diagnostics =
                        [
                          diag "structural" "STEP001"
                            "isomorphic to the reference only modulo output permutation %a, which does not preserve the %s property"
                            Permutation.pp pi_out
                            (expectation_string expectation);
                        ];
                    })
        end
  in
  (* 8. Compiled-runtime faithfulness. *)
  let csr =
    {
      pass = "csr";
      facts = [];
      diagnostics = Csr_lint.check ~subject net (Rt.view (Rt.compile net));
    }
  in
  let passes = [ wellformed; shape; absint; probe; exhaustive; escalate; structural; csr ] in
  let evidence =
    match !refuted with
    | Some cex -> Refuted cex
    | None -> (
        match !exhaustive_evidence with
        | Some e -> e
        | None -> ( match !structural_evidence with Some e -> e | None -> Unverified))
  in
  { subject; expectation; passes; evidence }

let diagnostics c = List.concat_map (fun p -> p.diagnostics) c.passes

let ok c = not (List.exists Diagnostic.is_error (diagnostics c))

let codes c =
  List.fold_left
    (fun acc (d : Diagnostic.t) -> if List.mem d.Diagnostic.code acc then acc else acc @ [ d.Diagnostic.code ])
    [] (diagnostics c)

let pp_line ppf c =
  Format.fprintf ppf "%-18s %-4s %-18s %s" c.subject
    (if ok c then "ok" else "FAIL")
    (expectation_string c.expectation)
    (evidence_string c.evidence)

let pp ppf c =
  pp_line ppf c;
  List.iter
    (fun p ->
      List.iter (fun (k, v) -> Format.fprintf ppf "@\n  %s/%s: %s" p.pass k v) p.facts;
      List.iter (fun d -> Format.fprintf ppf "@\n  %a" Diagnostic.pp d) p.diagnostics)
    c.passes

let to_json c =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{";
  Buffer.add_string buf (Printf.sprintf "\"subject\":%s," (Diagnostic.json_string c.subject));
  Buffer.add_string buf
    (Printf.sprintf "\"expectation\":%s," (Diagnostic.json_string (expectation_string c.expectation)));
  Buffer.add_string buf (Printf.sprintf "\"ok\":%b," (ok c));
  Buffer.add_string buf
    (Printf.sprintf "\"evidence\":%s," (Diagnostic.json_string (evidence_string c.evidence)));
  Buffer.add_string buf "\"passes\":[";
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "{\"pass\":%s," (Diagnostic.json_string p.pass));
      Buffer.add_string buf "\"facts\":{";
      List.iteri
        (fun j (k, v) ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf "%s:%s" (Diagnostic.json_string k) (Diagnostic.json_string v)))
        p.facts;
      Buffer.add_string buf "},\"diagnostics\":[";
      List.iteri
        (fun j d ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (Diagnostic.to_json d))
        p.diagnostics;
      Buffer.add_string buf "]}")
    c.passes;
  Buffer.add_string buf "]}";
  Buffer.contents buf
