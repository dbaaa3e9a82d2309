(* Wire format: | u32 BE payload length | 0xC7 | version | opcode | body |.

   The decoder validates each frame in place on a sliding buffer.  Two
   properties the tests pin down:

   - it consumes input independently of how the bytes were split
     (kernel reads can land anywhere, including inside the length
     prefix), and
   - validation is front-loaded: a hostile length prefix is refused
     from the 4 length bytes alone, so a peer cannot make the server
     buffer more than [max_payload] bytes per frame, and a bad header
     poisons the decoder before any body is interpreted. *)

let magic = '\xC7'
let version = 1
let default_max_payload = 65536
let header_bytes = 3

type request = Inc | Dec | Read | Drain | Stats

type error_code = Bad_magic | Bad_version | Bad_opcode | Bad_body | Too_large

type response =
  | Value of int
  | Overloaded
  | Closed
  | Drained of { ok : bool; summary : string }
  | Stats_reply of string
  | Error_reply of { code : error_code; message : string }

type frame = Request of request | Response of response

let error_code_to_string = function
  | Bad_magic -> "bad-magic"
  | Bad_version -> "bad-version"
  | Bad_opcode -> "bad-opcode"
  | Bad_body -> "bad-body"
  | Too_large -> "too-large"

let pp ppf = function
  | Request Inc -> Format.pp_print_string ppf "inc"
  | Request Dec -> Format.pp_print_string ppf "dec"
  | Request Read -> Format.pp_print_string ppf "read"
  | Request Drain -> Format.pp_print_string ppf "drain"
  | Request Stats -> Format.pp_print_string ppf "stats"
  | Response (Value v) -> Format.fprintf ppf "value %d" v
  | Response Overloaded -> Format.pp_print_string ppf "overloaded"
  | Response Closed -> Format.pp_print_string ppf "closed"
  | Response (Drained { ok; _ }) -> Format.fprintf ppf "drained ok=%b" ok
  | Response (Stats_reply _) -> Format.pp_print_string ppf "stats-reply"
  | Response (Error_reply { code; _ }) ->
      Format.fprintf ppf "error %s" (error_code_to_string code)

(* Opcodes: requests are < 0x80, responses have the high bit set.  The
   encoder and the decoder below each spell the table out once, as the
   arms of a match; the golden wire images in the tests pin both. *)

let error_code_byte = function
  | Bad_magic -> 1
  | Bad_version -> 2
  | Bad_opcode -> 3
  | Bad_body -> 4
  | Too_large -> 5

let error_code_of_byte = function
  | 1 -> Some Bad_magic
  | 2 -> Some Bad_version
  | 3 -> Some Bad_opcode
  | 4 -> Some Bad_body
  | 5 -> Some Too_large
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Encoding, straight into the caller's buffer: no per-frame body. *)

let add_header buf opcode ~body =
  let len = header_bytes + body in
  Buffer.add_uint16_be buf ((len lsr 16) land 0xffff);
  Buffer.add_uint16_be buf (len land 0xffff);
  Buffer.add_char buf magic;
  Buffer.add_uint8 buf version;
  Buffer.add_uint8 buf opcode

let add_tagged buf opcode tag s =
  add_header buf opcode ~body:(1 + String.length s);
  Buffer.add_uint8 buf tag;
  Buffer.add_string buf s

let encode buf = function
  | Request Inc -> add_header buf 0x01 ~body:0
  | Request Dec -> add_header buf 0x02 ~body:0
  | Request Read -> add_header buf 0x03 ~body:0
  | Request Drain -> add_header buf 0x04 ~body:0
  | Request Stats -> add_header buf 0x05 ~body:0
  | Response (Value v) ->
      add_header buf 0x81 ~body:8;
      Buffer.add_int64_be buf (Int64.of_int v)
  | Response Overloaded -> add_header buf 0x82 ~body:0
  | Response Closed -> add_header buf 0x83 ~body:0
  | Response (Drained { ok; summary }) ->
      add_tagged buf 0x84 (Bool.to_int ok) summary
  | Response (Stats_reply json) ->
      add_header buf 0x85 ~body:(String.length json);
      Buffer.add_string buf json
  | Response (Error_reply { code; message }) ->
      add_tagged buf 0x86 (error_code_byte code) message

let to_string f =
  let b = Buffer.create 32 in
  encode b f;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Incremental decoder. *)

type event =
  | Frame of frame
  | Need_more
  | Corrupt of { code : error_code; detail : string }

type decoder = {
  max_payload : int;
  mutable buf : Bytes.t;  (* fed-but-unconsumed bytes, [lo, hi) *)
  mutable lo : int;
  mutable hi : int;
  mutable poisoned : event option;  (* a Corrupt, sticky once set *)
}

let decoder ?(max_payload = default_max_payload) () =
  if max_payload < header_bytes then
    invalid_arg
      (Printf.sprintf "Frame.decoder: max_payload must be >= %d" header_bytes);
  { max_payload; buf = Bytes.create 256; lo = 0; hi = 0; poisoned = None }

let buffered d = d.hi - d.lo

let feed d src ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Frame.feed: range out of bounds";
  if d.poisoned = None && len > 0 then begin
    let used = buffered d in
    if used + len > Bytes.length d.buf - d.lo then begin
      (* Compact, growing only when the live region itself outgrows the
         buffer.  The payload cap bounds growth at 4 + max_payload plus
         whatever one feed call delivered. *)
      let need = used + len in
      let cap = max (Bytes.length d.buf) 256 in
      let cap = if need > cap then max need (2 * cap) else cap in
      let nbuf = if cap > Bytes.length d.buf then Bytes.create cap else d.buf in
      Bytes.blit d.buf d.lo nbuf 0 used;
      d.buf <- nbuf;
      d.lo <- 0;
      d.hi <- used
    end;
    Bytes.blit src off d.buf d.hi len;
    d.hi <- d.hi + len
  end

let poison d code detail =
  let e = Corrupt { code; detail } in
  d.poisoned <- Some e;
  (* Drop the backlog: nothing after a framing error is trustworthy. *)
  d.lo <- 0;
  d.hi <- 0;
  e

let peek_u32 b i = (Bytes.get_uint16_be b i lsl 16) lor Bytes.get_uint16_be b (i + 2)

(* Consume the frame whose payload is [len] bytes and yield [ev]. *)
let accept d len ev =
  d.lo <- d.lo + 4 + len;
  if d.lo = d.hi then begin
    d.lo <- 0;
    d.hi <- 0
  end;
  ev

(* The body-less frames yield constant events, which the compiler
   allocates statically: decoding them allocates nothing. *)
let empty d len name ev =
  let n = len - header_bytes in
  if n = 0 then accept d len ev
  else poison d Bad_body (Printf.sprintf "%s body must be 0 bytes, got %d" name n)

(* Validate the body of a frame whose header checked out, in place on
   [d.buf]: [at] is its first byte, [len] the payload length.  Only the
   frames carrying a string copy anything out of the buffer. *)
let body d ~opcode ~at len =
  let n = len - header_bytes in
  match opcode with
  | 0x01 -> empty d len "inc" (Frame (Request Inc))
  | 0x02 -> empty d len "dec" (Frame (Request Dec))
  | 0x03 -> empty d len "read" (Frame (Request Read))
  | 0x04 -> empty d len "drain" (Frame (Request Drain))
  | 0x05 -> empty d len "stats" (Frame (Request Stats))
  | 0x81 ->
      if n <> 8 then
        poison d Bad_body (Printf.sprintf "value body must be 8 bytes, got %d" n)
      else
        let x = Bytes.get_int64_be d.buf at in
        let v = Int64.to_int x in
        if Int64.equal (Int64.of_int v) x then accept d len (Frame (Response (Value v)))
        else
          poison d Bad_body
            (Printf.sprintf "value %Ld is outside the %d-bit int range" x Sys.int_size)
  | 0x82 -> empty d len "overloaded" (Frame (Response Overloaded))
  | 0x83 -> empty d len "closed" (Frame (Response Closed))
  | 0x84 -> (
      if n < 1 then poison d Bad_body "drained body must carry the ok byte"
      else
        match Bytes.get d.buf at with
        | ('\000' | '\001') as ok ->
            let summary = Bytes.sub_string d.buf (at + 1) (n - 1) in
            accept d len (Frame (Response (Drained { ok = ok = '\001'; summary })))
        | _ -> poison d Bad_body "drained ok byte must be 0 or 1")
  | 0x85 -> accept d len (Frame (Response (Stats_reply (Bytes.sub_string d.buf at n))))
  | 0x86 -> (
      if n < 1 then poison d Bad_body "error body must carry the code byte"
      else
        match error_code_of_byte (Bytes.get_uint8 d.buf at) with
        | None -> poison d Bad_body "unknown error code byte"
        | Some code ->
            let message = Bytes.sub_string d.buf (at + 1) (n - 1) in
            accept d len (Frame (Response (Error_reply { code; message }))))
  | _ -> poison d Bad_opcode (Printf.sprintf "unknown opcode 0x%02x" opcode)

let next d =
  match d.poisoned with
  | Some e -> e
  | None ->
      if buffered d < 4 then Need_more
      else begin
        let len = peek_u32 d.buf d.lo in
        if len > d.max_payload then
          poison d Too_large
            (Printf.sprintf "payload length %d exceeds cap %d" len
               d.max_payload)
        else if len < header_bytes then
          poison d Bad_body
            (Printf.sprintf "payload length %d below the %d-byte header" len
               header_bytes)
        else if buffered d < 4 + len then Need_more
        else begin
          let p = d.lo + 4 in
          let m = Bytes.get d.buf p and v = Bytes.get_uint8 d.buf (p + 1) in
          if m <> magic then
            poison d Bad_magic
              (Printf.sprintf "payload starts with 0x%02x, not 0x%02x"
                 (Char.code m) (Char.code magic))
          else if v <> version then
            poison d Bad_version
              (Printf.sprintf "peer speaks version %d, this library %d" v
                 version)
          else body d ~opcode:(Bytes.get_uint8 d.buf (p + 2)) ~at:(p + 3) len
        end
      end
