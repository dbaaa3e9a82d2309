(* Tests for the countnetd wire layer (Cn_proto): frame codec under
   arbitrary byte splits, hostile-input rejection, the loopback TCP
   server mapped onto service sessions, and the satellite regressions
   (Workload.session_cdf clamping, Harness calibration overflow,
   busy-time accounting). *)

module F = Cn_proto.Frame
module Server = Cn_proto.Server
module Client = Cn_proto.Client
module Load = Cn_proto.Load
module Svc = Cn_service.Service
module W = Cn_service.Workload
module H = Cn_runtime.Harness
module M = Cn_runtime.Metrics
module V = Cn_runtime.Validator

let tc name f = Alcotest.test_case name `Quick f
let net44 () = Cn_core.Counting.network ~w:4 ~t:4
let net1616 () = Cn_core.Counting.network ~w:16 ~t:16

let frame = Alcotest.testable F.pp ( = )

let sample_frames =
  [
    F.Request F.Inc;
    F.Request F.Dec;
    F.Request F.Read;
    F.Request F.Drain;
    F.Request F.Stats;
    F.Response (F.Value 0);
    F.Response (F.Value 123456789);
    F.Response (F.Value (-42));
    F.Response (F.Value max_int);
    F.Response (F.Value min_int);
    F.Response F.Overloaded;
    F.Response F.Closed;
    F.Response (F.Drained { ok = true; summary = "all checks passed" });
    F.Response (F.Drained { ok = false; summary = "" });
    F.Response (F.Stats_reply "{\"connections\": 3}");
    F.Response (F.Error_reply { code = F.Bad_magic; message = "nope" });
    F.Response (F.Error_reply { code = F.Too_large; message = "" });
  ]

(* Feed [wire] to a fresh decoder in chunks of [chunk] bytes and pull
   everything; returns (frames, leftover event). *)
let decode_chunked ?max_payload wire chunk =
  let d = F.decoder ?max_payload () in
  let out = ref [] in
  let corrupt = ref None in
  let n = String.length wire in
  let off = ref 0 in
  while !off < n && !corrupt = None do
    let len = min chunk (n - !off) in
    F.feed d (Bytes.of_string wire) ~off:!off ~len;
    off := !off + len;
    let draining = ref true in
    while !draining do
      match F.next d with
      | F.Frame f -> out := f :: !out
      | F.Need_more -> draining := false
      | F.Corrupt _ as e ->
          corrupt := Some e;
          draining := false
    done
  done;
  (List.rev !out, !corrupt, d)

let wire_of frames = String.concat "" (List.map F.to_string frames)

let hex s =
  String.to_seq s |> Seq.map (fun c -> Printf.sprintf "%02x" (Char.code c)) |> List.of_seq
  |> String.concat ""

(* The wire image of each of [sample_frames], in order, as
   doc/protocol.md lays it out: u32 length, 0xC7, version 1, opcode,
   body. *)
let golden =
  [
    "00000003c70101";
    "00000003c70102";
    "00000003c70103";
    "00000003c70104";
    "00000003c70105";
    "0000000bc701810000000000000000";
    "0000000bc7018100000000075bcd15";
    "0000000bc70181ffffffffffffffd6";
    "0000000bc701813fffffffffffffff";
    "0000000bc70181c000000000000000";
    "00000003c70182";
    "00000003c70183";
    "00000015c7018401616c6c20636865636b7320706173736564";
    "00000004c7018400";
    "00000015c701857b22636f6e6e656374696f6e73223a20337d";
    "00000008c70186016e6f7065";
    "00000004c7018605";
  ]

let codec =
  [
    tc "every frame kind has its pinned wire image" (fun () ->
        List.iter2
          (fun f want -> Alcotest.(check string) (Format.asprintf "%a" F.pp f) want (hex (F.to_string f)))
          sample_frames golden);
    tc "every frame kind round-trips" (fun () ->
        List.iter
          (fun f ->
            let got, corrupt, _ = decode_chunked (F.to_string f) 4096 in
            Alcotest.(check bool) "no corruption" true (corrupt = None);
            Alcotest.(check (list frame)) "roundtrip" [ f ] got)
          sample_frames);
    tc "pipelined frames come back one next at a time" (fun () ->
        let d = F.decoder () in
        let wire = wire_of sample_frames in
        F.feed d (Bytes.of_string wire) ~off:0 ~len:(String.length wire);
        List.iter
          (fun expect ->
            match F.next d with
            | F.Frame f -> Alcotest.check frame "in order" expect f
            | _ -> Alcotest.fail "expected a frame")
          sample_frames;
        Alcotest.(check bool) "then Need_more" true (F.next d = F.Need_more);
        Alcotest.(check int) "nothing buffered" 0 (F.buffered d));
    tc "decoding is split-invariant at every chunk size" (fun () ->
        let wire = wire_of sample_frames in
        for chunk = 1 to min 64 (String.length wire) do
          let got, corrupt, _ = decode_chunked wire chunk in
          Alcotest.(check bool)
            (Printf.sprintf "chunk %d clean" chunk)
            true (corrupt = None);
          Alcotest.(check (list frame))
            (Printf.sprintf "chunk %d frames" chunk)
            sample_frames got
        done);
    tc "split at every two-chunk boundary" (fun () ->
        let wire = wire_of [ F.Request F.Inc; F.Response (F.Value (-7)) ] in
        let n = String.length wire in
        for cut = 0 to n do
          let d = F.decoder () in
          F.feed d (Bytes.of_string wire) ~off:0 ~len:cut;
          F.feed d (Bytes.of_string wire) ~off:cut ~len:(n - cut);
          (match F.next d with
          | F.Frame f -> Alcotest.check frame "first" (F.Request F.Inc) f
          | _ -> Alcotest.failf "cut %d: expected first frame" cut);
          (match F.next d with
          | F.Frame f -> Alcotest.check frame "second" (F.Response (F.Value (-7))) f
          | _ -> Alcotest.failf "cut %d: expected second frame" cut);
          Alcotest.(check int) "drained" 0 (F.buffered d)
        done);
    tc "truncated frame never yields and never over-reads" (fun () ->
        let wire = F.to_string (F.Response (F.Drained { ok = true; summary = "x" })) in
        for keep = 0 to String.length wire - 1 do
          let d = F.decoder () in
          F.feed d (Bytes.of_string wire) ~off:0 ~len:keep;
          Alcotest.(check bool)
            (Printf.sprintf "prefix %d is Need_more" keep)
            true
            (F.next d = F.Need_more);
          Alcotest.(check int) "buffers only what was fed" keep (F.buffered d)
        done);
    tc "feed range checks" (fun () ->
        let d = F.decoder () in
        let b = Bytes.create 4 in
        List.iter
          (fun (off, len) ->
            match F.feed d b ~off ~len with
            | exception Invalid_argument _ -> ()
            | () -> Alcotest.failf "feed ~off:%d ~len:%d accepted" off len)
          [ (-1, 1); (0, -1); (2, 3); (5, 0) ]);
    Util.raises_invalid "decoder rejects max_payload below the header" (fun () ->
        ignore (F.decoder ~max_payload:2 ()));
  ]

let expect_corrupt ?max_payload name wire code detail =
  tc name (fun () ->
      let got, corrupt, d = decode_chunked ?max_payload wire 4096 in
      Alcotest.(check (list frame)) "no frames accepted" [] got;
      (match corrupt with
      | Some (F.Corrupt { code = c; detail = why }) ->
          Alcotest.(check string)
            "error code" (F.error_code_to_string code) (F.error_code_to_string c);
          Alcotest.(check string) "detail" detail why
      | _ -> Alcotest.fail "expected Corrupt");
      (* Terminal: stays corrupt, drops backlog, ignores later feeds. *)
      (match F.next d with
      | F.Corrupt _ -> ()
      | _ -> Alcotest.fail "poison must be sticky");
      let good = F.to_string (F.Request F.Inc) in
      F.feed d (Bytes.of_string good) ~off:0 ~len:(String.length good);
      (match F.next d with
      | F.Corrupt _ -> ()
      | _ -> Alcotest.fail "poisoned decoder must ignore later input");
      Alcotest.(check int) "backlog dropped" 0 (F.buffered d))

(* Hand-build a wire image: length prefix + raw payload bytes. *)
let raw ~len payload =
  let b = Buffer.create 16 in
  Buffer.add_char b (Char.chr ((len lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((len lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((len lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (len land 0xff));
  Buffer.add_string b payload;
  Buffer.contents b

let hostile =
  let empty_body (op, name) =
    expect_corrupt
      (Printf.sprintf "%s with a body is malformed" name)
      (raw ~len:4 (Printf.sprintf "\xC7\x01%cx" (Char.chr op)))
      F.Bad_body
      (Printf.sprintf "%s body must be 0 bytes, got 1" name)
  in
  [
    expect_corrupt "oversized length prefix is rejected from 4 bytes"
      (raw ~len:(F.default_max_payload + 1) "")
      F.Too_large "payload length 65537 exceeds cap 65536";
    expect_corrupt "huge u32 length cannot force buffering"
      (raw ~len:0xFFFFFFFF "")
      F.Too_large "payload length 4294967295 exceeds cap 65536";
    expect_corrupt "length below the header is rejected" (raw ~len:2 "\xC7\x01") F.Bad_body
      "payload length 2 below the 3-byte header";
    expect_corrupt "garbage magic" (raw ~len:3 "\x00\x01\x01") F.Bad_magic
      "payload starts with 0x00, not 0xc7";
    expect_corrupt "unknown version" (raw ~len:3 "\xC7\x63\x01") F.Bad_version
      "peer speaks version 99, this library 1";
    expect_corrupt "unknown opcode" (raw ~len:3 "\xC7\x01\x7F") F.Bad_opcode
      "unknown opcode 0x7f";
    expect_corrupt "inc with a body is malformed" (raw ~len:4 "\xC7\x01\x01x") F.Bad_body
      "inc body must be 0 bytes, got 1";
    expect_corrupt "value with short body is malformed"
      (raw ~len:7 "\xC7\x01\x81zzzz")
      F.Bad_body "value body must be 8 bytes, got 4";
    expect_corrupt "value with a 9-byte body is malformed"
      (raw ~len:12 "\xC7\x01\x81\x00\x00\x00\x00\x00\x00\x00\x00\x07")
      F.Bad_body "value body must be 8 bytes, got 9";
    expect_corrupt "value 2^62 does not wrap to min_int"
      (raw ~len:11 "\xC7\x01\x81\x40\x00\x00\x00\x00\x00\x00\x00")
      F.Bad_body "value 4611686018427387904 is outside the 63-bit int range";
    expect_corrupt "value -2^63 does not wrap to 0"
      (raw ~len:11 "\xC7\x01\x81\x80\x00\x00\x00\x00\x00\x00\x00")
      F.Bad_body "value -9223372036854775808 is outside the 63-bit int range";
    expect_corrupt "drained ok byte outside {0,1}"
      (raw ~len:4 "\xC7\x01\x84\x02")
      F.Bad_body "drained ok byte must be 0 or 1";
    expect_corrupt "drained without the ok byte" (raw ~len:3 "\xC7\x01\x84") F.Bad_body
      "drained body must carry the ok byte";
    expect_corrupt "error reply with unknown code byte"
      (raw ~len:4 "\xC7\x01\x86\x09")
      F.Bad_body "unknown error code byte";
    expect_corrupt "error reply without the code byte" (raw ~len:3 "\xC7\x01\x86") F.Bad_body
      "error body must carry the code byte";
    expect_corrupt ~max_payload:32 "oversized frame respects a custom cap"
      (raw ~len:64 ("\xC7\x01\x85" ^ String.make 61 'j'))
      F.Too_large "payload length 64 exceeds cap 32";
  ]
  @ List.map empty_body
      [
        (0x02, "dec");
        (0x03, "read");
        (0x04, "drain");
        (0x05, "stats");
        (0x82, "overloaded");
        (0x83, "closed");
      ]

(* Random well-formed frame streams, random split points: the decoder
   must return exactly the encoded frames whatever the chunking. *)
let gen_frames =
  QCheck2.Gen.(
    list_size (int_range 1 12)
      (oneof
         [
           oneofl
             [ F.Request F.Inc; F.Request F.Dec; F.Request F.Read; F.Request F.Stats ];
           map (fun v -> F.Response (F.Value v)) int;
           map
             (fun s -> F.Response (F.Drained { ok = true; summary = s }))
             (string_size ~gen:printable (int_range 0 40));
           map (fun s -> F.Response (F.Stats_reply s)) (string_size (int_range 0 64));
         ]))

let fuzz =
  [
    Util.qtest ~count:300 "fuzz: split-invariant decoding"
      QCheck2.Gen.(pair gen_frames (int_range 1 17))
      (fun (frames, chunk) ->
        let got, corrupt, _ = decode_chunked (wire_of frames) chunk in
        corrupt = None && got = frames);
    Util.qtest ~count:300 "fuzz: random garbage never crashes or blocks"
      QCheck2.Gen.(string_size (int_range 0 200))
      (fun junk ->
        let d = F.decoder () in
        F.feed d (Bytes.of_string junk) ~off:0 ~len:(String.length junk);
        let rec drain n =
          if n > 300 then false (* must reach Need_more or Corrupt *)
          else
            match F.next d with
            | F.Frame _ -> drain (n + 1)
            | F.Need_more | F.Corrupt _ -> true
        in
        drain 0);
    tc "fuzz: split, truncated and flipped streams never raise or over-read" (fun () ->
        let rng = Random.State.make [| 17 |] in
        let all = sample_frames @ sample_frames in
        let wire = wire_of all in
        for _ = 1 to 2000 do
          let b = Bytes.of_string wire in
          let flips = Random.State.int rng 4 in
          for _ = 1 to flips do
            Bytes.set_uint8 b (Random.State.int rng (Bytes.length b)) (Random.State.int rng 256)
          done;
          let n = if Random.State.bool rng then Bytes.length b else Random.State.int rng (Bytes.length b) in
          let d = F.decoder () in
          let fed = ref 0 and got = ref [] in
          while !fed < n do
            let len = min (n - !fed) (1 + Random.State.int rng 24) in
            F.feed d b ~off:!fed ~len;
            fed := !fed + len;
            let rec pull () =
              match F.next d with
              | F.Frame f ->
                  got := f :: !got;
                  pull ()
              | F.Need_more | F.Corrupt _ -> ()
              | exception e -> Alcotest.failf "next raised %s" (Printexc.to_string e)
            in
            pull ();
            if F.buffered d > !fed then
              Alcotest.failf "buffered %d of %d bytes fed" (F.buffered d) !fed
          done;
          (* Unflipped, a stream yields its frames, a truncated one a
             prefix of them. *)
          if flips = 0 then begin
            let got = List.rev !got in
            let k = if n = Bytes.length b then List.length all else List.length got in
            Alcotest.(check (list frame)) "frames" (List.filteri (fun i _ -> i < k) all) got
          end
        done);
  ]

(* ---------------------------------------------------------------- *)
(* Satellite regressions. *)

let satellite =
  [
    Util.qtest ~count:300 "session_cdf: monotone, bounded, ends at exactly 1.0"
      QCheck2.Gen.(
        pair (int_range 1 96)
          (oneof [ return None; map (fun a -> Some (0.05 +. (4. *. a))) (float_bound_inclusive 1.) ]))
      (fun (n, alpha) ->
        let skew = match alpha with None -> W.Uniform | Some a -> W.Zipf a in
        let cdf = W.session_cdf skew n in
        Array.length cdf = n
        && cdf.(n - 1) = 1.0
        && Array.for_all (fun p -> p >= 0. && p <= 1.) cdf
        &&
        let mono = ref true in
        for i = 1 to n - 1 do
          if cdf.(i) < cdf.(i - 1) then mono := false
        done;
        !mono);
    tc "session_cdf: high-alpha Zipf rounding residue is clamped" (fun () ->
        (* Steep exponents concentrate the mass and leave the largest
           float residue on the tail — exactly the case the clamp is
           for; before the fix this could sit strictly below 1.0. *)
        List.iter
          (fun (n, a) ->
            let cdf = W.session_cdf (W.Zipf a) n in
            Alcotest.(check (float 0.)) (Printf.sprintf "w=%d a=%g" n a) 1.0 cdf.(n - 1))
          [ (3, 1.1); (7, 0.9); (33, 2.5); (64, 3.7); (96, 0.3) ]);
    Util.qtest ~count:500 "pick always lands in range and can reach the last session"
      QCheck2.Gen.(pair (int_range 1 32) (int_range 0 10_000))
      (fun (n, seed) ->
        let rng = Random.State.make [| seed |] in
        let cdf = W.session_cdf (W.Zipf 1.2) n in
        let hit_last = ref (n = 1) in
        let ok = ref true in
        (* Enough draws that missing a last session of Zipf weight ~3.5%
           (n = 8) has probability ~e^-72, not ~e^-7 per case. *)
        for _ = 1 to 2000 do
          let i = W.pick rng cdf in
          if i < 0 || i >= n then ok := false;
          if i = n - 1 then hit_last := true
        done;
        !ok && (n > 8 || !hit_last));
    tc "next_calibration_ops: doubles until the cap" (fun () ->
        Alcotest.(check (option int))
          "1 -> 2" (Some 2)
          (H.next_calibration_ops ~domains:4 ~ops_per_domain:1);
        Alcotest.(check (option int))
          "just under the cap still doubles"
          (Some (2 * (H.max_calibration_ops - 1)))
          (H.next_calibration_ops ~domains:1 ~ops_per_domain:(H.max_calibration_ops - 1));
        Alcotest.(check (option int))
          "at the cap stops" None
          (H.next_calibration_ops ~domains:1 ~ops_per_domain:H.max_calibration_ops));
    tc "next_calibration_ops: near max_int nothing overflows" (fun () ->
        (* The old guard computed ops*2 first; ops > max_int/2 made the
           product wrap negative and the comparison nonsense.  Every
           case below must return None, not a wrapped Some. *)
        List.iter
          (fun (domains, ops) ->
            Alcotest.(check (option int))
              (Printf.sprintf "domains=%d ops near max_int" domains)
              None
              (H.next_calibration_ops ~domains ~ops_per_domain:ops))
          [
            (1, max_int); (2, max_int - 1); (1, (max_int / 2) + 1);
            (max_int, 1); (max_int / 2, 4);
          ]);
    tc "next_calibration_ops: overflow-bounded doubling below the cap" (fun () ->
        (* domains large enough that doubling once more would overflow
           the total: must stop rather than wrap. *)
        let domains = max_int / H.max_calibration_ops in
        match H.next_calibration_ops ~domains ~ops_per_domain:(H.max_calibration_ops / 2) with
        | None -> ()
        | Some ops ->
            Alcotest.(check bool)
              "returned total stays representable" true
              (ops > 0 && domains <= max_int / ops));
    tc "workload busy-time accounting separates injected idle" (fun () ->
        let svc = Svc.create (net44 ()) in
        let spec =
          {
            W.default with
            W.domains = 2;
            ops_per_domain = 20;
            arrival = W.Closed 0.002;
          }
        in
        let st = W.run svc spec in
        ignore (Svc.shutdown ~policy:V.Off svc);
        Alcotest.(check bool)
          "slept time excluded" true
          (st.W.busy_seconds < st.W.seconds);
        Alcotest.(check bool)
          "busy rate at least the wall rate" true
          (st.W.busy_ops_per_sec >= st.W.ops_per_sec);
        Alcotest.(check bool) "busy_seconds nonnegative" true (st.W.busy_seconds >= 0.));
    tc "reservoir: keeps everything under capacity, caps over it" (fun () ->
        let r = M.Reservoir.create ~capacity:8 () in
        for i = 1 to 5 do
          M.Reservoir.add r i
        done;
        Alcotest.(check int) "observed" 5 (M.Reservoir.observed r);
        Alcotest.(check int) "kept" 5 (M.Reservoir.kept r);
        for i = 6 to 1000 do
          M.Reservoir.add r i
        done;
        Alcotest.(check int) "observed all" 1000 (M.Reservoir.observed r);
        Alcotest.(check int) "kept capacity" 8 (M.Reservoir.kept r);
        match M.reservoir_summary [ r ] with
        | None -> Alcotest.fail "summary expected"
        | Some l ->
            Alcotest.(check int) "summary observed" 1000 l.M.observed;
            Alcotest.(check int) "summary kept" 8 l.M.kept;
            Alcotest.(check bool) "percentiles within range" true
              (l.M.p50 >= 1. && l.M.max <= 1000.));
    Util.raises_invalid "reservoir rejects capacity 0" (fun () ->
        ignore (M.Reservoir.create ~capacity:0 ()));
  ]

(* ---------------------------------------------------------------- *)
(* Loopback server. *)

let with_server ?(net = net44) ?queue f =
  let svc = Svc.create ?queue ~validate:V.Strict (net ()) in
  let server = Server.start svc in
  Fun.protect
    ~finally:(fun () ->
      match Server.stop ~policy:V.Off server with
      | _ -> ()
      | exception _ -> ())
    (fun () -> f server)

let connect server = Client.connect ~port:(Server.port server) ()

(* A bare socket, for byte-exact traffic the blocking client cannot
   send: pipelined bursts, garbage, half-close. *)
let raw_connect server =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
  fd

let write_string fd s =
  let off = ref 0 in
  while !off < String.length s do
    off := !off + Unix.write_substring fd s !off (String.length s - !off)
  done

(* Decode replies until [upto] frames have arrived or the server ends
   the connection; returns the frames in arrival order and whether the
   connection ended. *)
let read_frames ?(upto = max_int) fd =
  let d = F.decoder () in
  let buf = Bytes.create 4096 in
  let rec go acc count =
    if count = upto then (List.rev acc, false)
    else
      match F.next d with
      | F.Frame f -> go (f :: acc) (count + 1)
      | F.Corrupt { detail; _ } -> Alcotest.fail ("corrupt reply stream: " ^ detail)
      | F.Need_more -> (
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 | (exception Unix.Unix_error (Unix.ECONNRESET, _, _)) -> (List.rev acc, true)
          | k ->
              F.feed d buf ~off:0 ~len:k;
              go acc count)
  in
  go [] 0

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let incs n = List.init n (fun _ -> F.Request F.Inc)
let values lo n = List.init n (fun i -> F.Response (F.Value (lo + i)))

(* Every number following [key] in a JSON document — the fabric's stats
   nest one service report per shard. *)
let json_numbers json key =
  let needle = Printf.sprintf "\"%s\": " key in
  let nl = String.length needle and hl = String.length json in
  let rec go i acc =
    if i + nl > hl then List.rev acc
    else if String.sub json i nl = needle then begin
      let j = ref (i + nl) in
      while !j < hl && String.contains "0123456789.-e" json.[!j] do
        incr j
      done;
      go !j (float_of_string (String.sub json (i + nl) (!j - i - nl)) :: acc)
    end
    else go (i + 1) acc
  in
  go 0 []

(* 32 Inc/Dec frames and a Stats in one write: the handler hands the
   frames to the backend as one run, so the combiner sees a batch and
   pairs off tokens with antitokens. *)
let run_batches_and_eliminates server =
  let fd = raw_connect server in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let ops = List.init 32 (fun i -> F.Request (if i mod 2 = 0 then F.Inc else F.Dec)) in
  write_string fd (wire_of (ops @ [ F.Request F.Stats ]));
  match read_frames ~upto:33 fd with
  | got, _ when List.length got = 33 -> (
      List.iteri
        (fun i f ->
          match f with
          | F.Response (F.Value _) when i < 32 -> ()
          | F.Response (F.Stats_reply _) when i = 32 -> ()
          | _ -> Alcotest.failf "reply %d is not what request %d asked for" i i)
        got;
      match List.nth got 32 with
      | F.Response (F.Stats_reply json) ->
          let max_of key = List.fold_left Float.max 0. (json_numbers json key) in
          Alcotest.(check bool) "mean_batch above 1" true (max_of "mean_batch" > 1.);
          Alcotest.(check bool) "pairs eliminated" true (max_of "eliminated_pairs" > 0.)
      | _ -> assert false)
  | got, _ -> Alcotest.failf "%d replies for 33 requests" (List.length got)

let server_tests =
  [
    tc "inc/dec/read over the wire" (fun () ->
        with_server (fun server ->
            let c = connect server in
            Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
            for expect = 0 to 9 do
              match Client.increment c with
              | Ok v -> Alcotest.(check int) "fetch&inc" expect v
              | Error _ -> Alcotest.fail "unexpected refusal"
            done;
            Alcotest.(check int) "read sees the tokens" 10 (Client.read c);
            (match Client.decrement c with
            | Ok v -> Alcotest.(check bool) "dec hands back a taken value" true (v >= 0 && v < 10)
            | Error _ -> Alcotest.fail "unexpected refusal");
            Alcotest.(check int) "net count after dec" 9 (Client.read c)));
    tc "concurrent clients count without duplicates" (fun () ->
        with_server ~net:net1616 (fun server ->
            let per = 50 and threads = 4 in
            let got = Array.make (per * threads) 0 in
            let ts =
              Array.init threads (fun _ ->
                  Thread.create
                    (fun () ->
                      let c = connect server in
                      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
                      for _ = 1 to per do
                        match Client.increment c with
                        | Ok v -> got.(v) <- got.(v) + 1
                        | Error _ -> ()
                      done)
                    ())
            in
            Array.iter Thread.join ts;
            (* Quiescently consistent Fetch&Increment: all handed-out
               values distinct, forming exactly 0..n-1. *)
            Alcotest.(check bool)
              "every value handed out exactly once" true
              (Array.for_all (fun k -> k = 1) got)));
    tc "drain over the wire validates and re-admits" (fun () ->
        with_server (fun server ->
            let c = connect server in
            Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
            for _ = 1 to 5 do
              ignore (Client.increment c)
            done;
            let ok, summary = Client.drain c in
            Alcotest.(check bool) ("drain verdict: " ^ summary) true ok;
            (match Client.increment c with
            | Ok _ -> ()
            | Error _ -> Alcotest.fail "service must re-admit after drain")));
    tc "stats reply is JSON with server and service sections" (fun () ->
        with_server (fun server ->
            let c = connect server in
            Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
            ignore (Client.increment c);
            let json = Client.stats c in
            List.iter
              (fun needle ->
                Alcotest.(check bool)
                  (Printf.sprintf "stats carries %S" needle)
                  true (contains json needle))
              [
                "\"server\"";
                "\"connections\"";
                "\"polled_reads\"";
                "\"parked_reads\"";
                "\"value\"";
                "\"report\"";
              ]));
    tc "a framing error gets an error reply and only kills that connection" (fun () ->
        with_server (fun server ->
            let good = connect server in
            Fun.protect ~finally:(fun () -> Client.close good) @@ fun () ->
            ignore (Client.increment good);
            (* Hand-roll a bad frame on a second connection. *)
            let fd = raw_connect server in
            write_string fd (raw ~len:3 "\x00\x01\x01");
            (* The server answers Error_reply then closes. *)
            (match read_frames fd with
            | [ F.Response (F.Error_reply { code = F.Bad_magic; _ }) ], true -> ()
            | _ -> Alcotest.fail "expected a Bad_magic error reply, then EOF");
            Unix.close fd;
            (* The well-behaved connection is unaffected. *)
            match Client.increment good with
            | Ok _ -> ()
            | Error _ -> Alcotest.fail "good connection must survive"));
    tc "pipelined burst in one write: replies in request order" (fun () ->
        with_server (fun server ->
            let fd = raw_connect server in
            Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
            write_string fd (wire_of (incs 64 @ [ F.Request F.Read ]));
            let got, _ = read_frames ~upto:65 fd in
            Alcotest.(check (list frame)) "Value 0..63, then Read = 64" (values 0 65) got));
    tc "a pipelined Inc/Dec run is combined and eliminated" (fun () ->
        with_server run_batches_and_eliminates);
    tc "a pipelined Inc/Dec run is combined and eliminated on the fabric" (fun () ->
        let fab = Cn_fabric.Fabric.create ~shards:2 (net44 ()) in
        let server = Server.start_fabric fab in
        Fun.protect
          ~finally:(fun () -> ignore (Server.stop ~policy:V.Strict server))
          (fun () -> run_batches_and_eliminates server));
    tc "a Read ends the run: Inc x5, Read, Inc x5 in request order" (fun () ->
        with_server (fun server ->
            let fd = raw_connect server in
            Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
            write_string fd (wire_of (incs 5 @ [ F.Request F.Read ] @ incs 5));
            let got, _ = read_frames ~upto:11 fd in
            Alcotest.(check (list frame))
              "Value 0..4, Read = 5, Value 5..9"
              (values 0 5 @ [ F.Response (F.Value 5) ] @ values 5 5)
              got));
    tc "max_batch 4 serves a 32-frame run in order" (fun () ->
        let svc = Svc.create ~max_batch:4 ~validate:V.Strict (net44 ()) in
        let server = Server.start svc in
        Fun.protect
          ~finally:(fun () -> ignore (Server.stop ~policy:V.Strict server))
          (fun () ->
            let fd = raw_connect server in
            Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
            write_string fd (wire_of (incs 32 @ [ F.Request F.Read ]));
            let got, _ = read_frames ~upto:33 fd in
            Alcotest.(check (list frame)) "Value 0..31, then Read = 32" (values 0 33) got));
    tc "more pipelining connections than lanes: distinct values, exact read" (fun () ->
        (* C(2,2) has 2 lanes and 4 connections pipeline bursts on them,
           so a run can find its lane's combining flag busy and be
           published as one entry for another connection's combiner. *)
        with_server ~net:(fun () -> Cn_core.Counting.network ~w:2 ~t:2) (fun server ->
            let conns = 4 and bursts = 20 and burst = 32 in
            let got = Array.make conns [] in
            let ts =
              Array.init conns (fun c ->
                  Thread.create
                    (fun () ->
                      let fd = raw_connect server in
                      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
                      for _ = 1 to bursts do
                        write_string fd (wire_of (incs burst));
                        let frames, _ = read_frames ~upto:burst fd in
                        got.(c) <- frames @ got.(c)
                      done)
                    ())
            in
            Array.iter Thread.join ts;
            let vals =
              List.concat_map
                (List.map (function
                  | F.Response (F.Value v) -> v
                  | _ -> Alcotest.fail "an Inc was refused"))
                (Array.to_list got)
            in
            let n = conns * bursts * burst in
            Alcotest.(check (list int))
              "every value 0..n-1 exactly once" (List.init n Fun.id)
              (List.sort compare vals);
            let c = connect server in
            Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
            Alcotest.(check int) "read equals the Inc count" n (Client.read c)));
    tc "slow reader with a small receive buffer: every reply, in order" (fun () ->
        (* The client shrinks its receive buffer and reads a few bytes at
           a time while a writer thread pipelines a burst whose replies
           are far larger than that buffer: the handler's writes block
           and resume piecewise as the peer drains them. *)
        let svc = Svc.create ~validate:V.Strict (net44 ()) in
        let server = Server.start svc in
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt_int fd Unix.SO_RCVBUF 4096;
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
        let n = 20_000 in
        let writer = Thread.create (fun () -> write_string fd (wire_of (incs n))) () in
        let d = F.decoder () in
        let buf = Bytes.create 5 in
        let next = ref 0 in
        while !next < n do
          (match F.next d with
          | F.Frame f ->
              Alcotest.check frame "reply in request order" (F.Response (F.Value !next)) f;
              incr next
          | F.Corrupt { detail; _ } -> Alcotest.fail ("corrupt reply stream: " ^ detail)
          | F.Need_more -> (
              match Unix.read fd buf 0 (Bytes.length buf) with
              | 0 -> Alcotest.failf "EOF after %d of %d replies" !next n
              | k -> F.feed d buf ~off:0 ~len:k));
          ()
        done;
        Thread.join writer;
        let result = ref None in
        ignore
          (Thread.create
             (fun () ->
               result := Some (try Ok (Server.stop ~policy:V.Strict server) with e -> Error e))
             ());
        let deadline = Unix.gettimeofday () +. 10. in
        while !result = None && Unix.gettimeofday () < deadline do
          Thread.delay 0.01
        done;
        Unix.close fd;
        match !result with
        | None -> Alcotest.fail "stop did not return within 10 s"
        | Some (Error e) -> Alcotest.failf "stop raised %s" (Printexc.to_string e)
        | Some (Ok report) -> Alcotest.(check bool) "strict drain passed" true (V.passed report));
    tc "garbage after pipelined frames: replies, error, EOF" (fun () ->
        with_server (fun server ->
            let good = connect server in
            Fun.protect ~finally:(fun () -> Client.close good) @@ fun () ->
            let fd = raw_connect server in
            Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
            write_string fd (wire_of (incs 5) ^ raw ~len:3 "\x00\x01\x01" ^ "trailing junk");
            (match read_frames fd with
            | got, true ->
                (match List.rev got with
                | F.Response (F.Error_reply { code = F.Bad_magic; _ }) :: rest ->
                    Alcotest.(check (list frame)) "Inc replies first, in order" (values 0 5)
                      (List.rev rest)
                | _ -> Alcotest.fail "expected a terminal Bad_magic error reply")
            | _ -> Alcotest.fail "expected EOF after the error reply");
            match Client.increment good with
            | Ok v -> Alcotest.(check int) "other connection unaffected" 5 v
            | Error _ -> Alcotest.fail "good connection must survive"));
    tc "half-close: every reply, then EOF" (fun () ->
        with_server (fun server ->
            let fd = raw_connect server in
            Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
            write_string fd (wire_of (incs 12));
            Unix.shutdown fd Unix.SHUTDOWN_SEND;
            let got, eof = read_frames fd in
            Alcotest.(check (list frame)) "all replies" (values 0 12) got;
            Alcotest.(check bool) "then EOF" true eof));
    tc "stats burst past the flush threshold: every reply, in order" (fun () ->
        with_server (fun server ->
            let fd = raw_connect server in
            Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
            let pairs = 400 in
            write_string fd
              (wire_of (List.concat (List.init pairs (fun _ -> [ F.Request F.Inc; F.Request F.Stats ]))));
            let got, _ = read_frames ~upto:(2 * pairs) fd in
            let bytes = ref 0 in
            List.iteri
              (fun i f ->
                bytes := !bytes + String.length (F.to_string f);
                match (i mod 2, f) with
                | 0, F.Response (F.Value v) -> Alcotest.(check int) "inc value" (i / 2) v
                | 1, F.Response (F.Stats_reply json) ->
                    (* Each Stats sees exactly the Incs before it. *)
                    let needle = Printf.sprintf "\"value\": %d }" ((i / 2) + 1) in
                    if not (contains json needle) then
                      Alcotest.failf "stats reply %d lacks %s" i needle
                | _ -> Alcotest.failf "reply %d out of order" i)
              got;
            Alcotest.(check int) "every reply" (2 * pairs) (List.length got);
            Alcotest.(check bool) "replies exceed one flush" true (!bytes > 65536)));
    tc "a peer that never reads cannot hang a Strict stop" (fun () ->
        let svc = Svc.create ~validate:V.Strict (net44 ()) in
        let server = Server.start svc in
        (* The replies to 4 MiB of Inc frames, about 9 MiB, cannot all
           fit in the socket buffers (Linux grows a send buffer up to
           4 MiB by default, and a receive buffer grows only as its owner
           reads): the handler ends up blocked writing. *)
        let fd = raw_connect server in
        let sent = (4 lsl 20) / 7 in
        let writer =
          Thread.create
            (fun () -> try write_string fd (wire_of (incs sent)) with Unix.Unix_error _ -> ())
            ()
        in
        (* Wait for the wedge: the counter stops moving short of the burst. *)
        let probe = connect server in
        let rec stalled last tries =
          Thread.delay 0.05;
          let v = Client.read probe in
          if v = last || tries = 0 then v else stalled v (tries - 1)
        in
        let wedged_at = stalled (-1) 100 in
        Client.close probe;
        Alcotest.(check bool) "handler blocked before the burst was served" true (wedged_at < sent);
        let result = ref None in
        ignore
          (Thread.create
             (fun () ->
               result := Some (try Ok (Server.stop ~policy:V.Strict server) with e -> Error e))
             ());
        let deadline = Unix.gettimeofday () +. 10. in
        while !result = None && Unix.gettimeofday () < deadline do
          Thread.delay 0.01
        done;
        (match !result with
        | None -> Alcotest.fail "stop did not return within 10 s"
        | Some (Error e) -> Alcotest.failf "stop raised %s" (Printexc.to_string e)
        | Some (Ok report) -> Alcotest.(check bool) "strict drain passed" true (V.passed report));
        Alcotest.(check int) "every handler joined" 0 (Server.connections server);
        (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        Thread.join writer;
        Unix.close fd);
    tc "connection churn: sessions outnumber connections harmlessly" (fun () ->
        with_server ~net:net1616 (fun server ->
            for _ = 1 to 30 do
              let c = connect server in
              ignore (Client.increment c);
              Client.close c
            done;
            let c = connect server in
            Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
            Alcotest.(check int) "value survived the churn" 30 (Client.read c);
            Alcotest.(check bool) "accepted counts churn" true (Server.accepted server >= 31)));
    tc "graceful stop: Strict quiescent drain, clients see EOF" (fun () ->
        let svc = Svc.create ~validate:V.Strict (net44 ()) in
        let server = Server.start svc in
        let c = connect server in
        for _ = 1 to 8 do
          ignore (Client.increment c)
        done;
        Server.request_stop server;
        let report = Server.stop ~policy:V.Strict server in
        Alcotest.(check bool) "strict drain passed" true (V.passed report);
        (match Client.increment c with
        | exception Client.Disconnected -> ()
        | Ok _ -> Alcotest.fail "server gone; increment cannot succeed"
        | Error `Closed -> ()
        | Error `Overloaded -> Alcotest.fail "unexpected Overloaded");
        Client.close c;
        (* stop is idempotent and returns the memoized report. *)
        let again = Server.stop ~policy:V.Strict server in
        Alcotest.(check bool) "same verdict" (V.passed report) (V.passed again));
    tc "load rig against a live server, with decrements" (fun () ->
        with_server ~net:net1616 (fun server ->
            let spec =
              {
                Load.default with
                Load.clients = 2;
                conns_per_client = 2;
                ops_per_client = 150;
                dec_ratio = 0.3;
                skew = W.Zipf 1.1;
              }
            in
            let st = Load.run ~port:(Server.port server) spec in
            Alcotest.(check int) "nothing lost" 300 st.Load.completed;
            Alcotest.(check int) "no disconnects" 0 st.Load.disconnects;
            Alcotest.(check int)
              "inc/dec split covers everything" 300
              (st.Load.increments + st.Load.decrements);
            (match st.Load.latency with
            | Some l ->
                Alcotest.(check bool) "latency sane" true (l.M.p50 > 0. && l.M.p99 >= l.M.p50);
                Alcotest.(check int) "every op observed" 300 l.M.observed
            | None -> Alcotest.fail "expected a latency summary");
            let c = connect server in
            Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
            Alcotest.(check int)
              "token conservation over the wire"
              (st.Load.increments - st.Load.decrements)
              (Client.read c)));
    tc "bursty arrivals over the wire: every op served, pauses off the busy time" (fun () ->
        with_server ~net:net1616 (fun server ->
            let spec =
              {
                Load.default with
                Load.clients = 2;
                conns_per_client = 2;
                ops_per_client = 256;
                dec_ratio = 0.4;
                arrival = W.Bursty { burst = 64; pause = 0.0005 };
              }
            in
            let st = Load.run ~port:(Server.port server) spec in
            Alcotest.(check int) "every op completed" 512 st.Load.completed;
            Alcotest.(check int) "no disconnects" 0 st.Load.disconnects;
            Alcotest.(check bool) "some decrements" true (st.Load.decrements > 0);
            Alcotest.(check bool)
              (Printf.sprintf "busy %.6f s < wall %.6f s" st.Load.busy_seconds st.Load.seconds)
              true
              (st.Load.busy_seconds < st.Load.seconds);
            let c = connect server in
            Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
            Alcotest.(check int)
              "read = increments - decrements"
              (st.Load.increments - st.Load.decrements)
              (Client.read c)));
    tc "mid-load stop: rig survives, drain stays quiescent" (fun () ->
        let svc = Svc.create ~validate:V.Strict (net1616 ()) in
        let server = Server.start svc in
        let spec =
          {
            Load.default with
            Load.clients = 2;
            conns_per_client = 2;
            ops_per_client = 5_000;
            arrival = W.Closed 0.0002;
          }
        in
        let stats = ref None in
        let rig = Thread.create (fun () -> stats := Some (Load.run ~port:(Server.port server) spec)) () in
        Thread.delay 0.05;
        let report = Server.stop ~policy:V.Strict server in
        Thread.join rig;
        Alcotest.(check bool) "strict mid-load drain passed" true (V.passed report);
        match !stats with
        | None -> Alcotest.fail "rig must return stats"
        | Some st ->
            Alcotest.(check bool) "rig observed the shutdown" true
              (st.Load.disconnects > 0 || st.Load.closed > 0);
            Alcotest.(check bool) "rig made progress first" true (st.Load.completed > 0));
    tc "a connect that fails for any reason counts as a disconnect" (fun () ->
        (* A malformed host fails in address parsing, not with a
           Unix_error; every connection slot must still be counted and
           every client thread must return. *)
        let spec = { Load.default with Load.clients = 2; conns_per_client = 3 } in
        let st = Load.run ~host:"999.1.1.1" ~port:1 spec in
        Alcotest.(check int) "nothing completed" 0 st.Load.completed;
        Alcotest.(check int) "every connect counted" 6 st.Load.disconnects);
  ]

(* ---------------------------------------------------------------- *)
(* Poll before parking: every test runs on a lone connection, where
   the handler polls, unless it says otherwise. *)

let increment_ok c =
  match Client.increment c with Ok v -> v | Error _ -> Alcotest.fail "unexpected refusal"

(* [f ()] on a thread of its own; [Some result] once it returned within
   [seconds], [None] if it has not. *)
let within seconds f =
  let result = ref None in
  ignore (Thread.create (fun () -> result := Some (try Ok (f ()) with e -> Error e)) ());
  let deadline = Unix.gettimeofday () +. seconds in
  while !result = None && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  !result

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let poll_tests =
  [
    tc "a request past the poll budget is served through the blocking read" (fun () ->
        with_server (fun server ->
            let c = connect server in
            Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
            let parked = Server.parked_reads server in
            (* 5 ms gaps, a hundred budgets each: the handler has parked
               before the next request lands. *)
            let got =
              List.init 5 (fun _ ->
                  let v = increment_ok c in
                  Thread.delay 0.005;
                  v)
            in
            Alcotest.(check (list int)) "every request served" (List.init 5 Fun.id) got;
            Alcotest.(check bool) "some read parked" true
              (Server.parked_reads server > parked)));
    tc "a half-close during the poll: every reply, then EOF" (fun () ->
        with_server (fun server ->
            let fd = raw_connect server in
            Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
            write_string fd (wire_of (incs 4));
            let first, _ = read_frames ~upto:4 fd in
            (* The handler is polling now: the next burst and the FIN
               land inside its budget. *)
            write_string fd (wire_of (incs 8));
            Unix.shutdown fd Unix.SHUTDOWN_SEND;
            let rest, eof = read_frames fd in
            Alcotest.(check (list frame)) "all replies" (values 0 12) (first @ rest);
            Alcotest.(check bool) "then EOF" true eof));
    tc "stop right after a reply returns within 1 s" (fun () ->
        let svc = Svc.create ~validate:V.Strict (net44 ()) in
        let server = Server.start svc in
        let c = connect server in
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        ignore (increment_ok c);
        (match within 1. (fun () -> Server.stop ~policy:V.Strict server) with
        | None -> Alcotest.fail "stop did not return within 1 s"
        | Some (Error e) -> Alcotest.failf "stop raised %s" (Printexc.to_string e)
        | Some (Ok report) -> Alcotest.(check bool) "strict drain passed" true (V.passed report));
        Alcotest.(check int) "every handler joined" 0 (Server.connections server));
    tc "an idle connected client costs no spinning CPU" (fun () ->
        with_server (fun server ->
            let c = connect server in
            Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
            ignore (increment_ok c);
            let cpu0 = cpu_seconds () in
            Thread.delay 0.3;
            let cpu = cpu_seconds () -. cpu0 in
            if cpu >= 0.03 then Alcotest.failf "%.3f s of CPU over 0.3 s idle" cpu;
            Alcotest.(check int) "still served" 1 (increment_ok c)));
    tc "a second live connection turns the poll off" (fun () ->
        with_server (fun server ->
            let a = connect server and b = connect server in
            Fun.protect
              ~finally:(fun () ->
                Client.close a;
                Client.close b)
            @@ fun () ->
            while Server.connections server < 2 do
              Thread.delay 0.001
            done;
            (* let a poll begun while [a] was alone run out *)
            Thread.delay 0.01;
            let polled = Server.polled_reads server and parked = Server.parked_reads server in
            for _ = 1 to 20 do
              ignore (increment_ok a);
              ignore (increment_ok b)
            done;
            Alcotest.(check int) "no polled read" polled (Server.polled_reads server);
            Alcotest.(check int) "every read parked" (parked + 40) (Server.parked_reads server)));
  ]

let suite =
  [
    ("proto codec", codec);
    ("proto hostile input", hostile);
    ("proto fuzz", fuzz);
    ("proto satellites", satellite);
    ("proto server", server_tests @ poll_tests);
  ]
