(** The countnetd wire format: length-prefixed binary frames.

    Every frame on the wire is a 4-byte big-endian payload length
    followed by the payload itself:

    {v
      +--------------+--------------------------------------+
      | length (u32) | payload (length bytes)               |
      +--------------+--------------------------------------+
      payload = | magic 0xC7 | version u8 | opcode u8 | body |
    v}

    The 3-byte header (magic, protocol {!version}, opcode) is part of
    the payload so a single length read bounds everything that follows;
    the body layout depends on the opcode (see [doc/protocol.md] for
    the normative table).  Request opcodes occupy [0x01..0x7f],
    response opcodes [0x81..0xff], so a peer can reject a frame sent in
    the wrong direction without tracking conversation state.

    Integers ride as 8-byte big-endian two's complement.  Every OCaml
    [int] fits; a received [Value] outside [[min_int, max_int]] is
    rejected as {!Bad_body}, never wrapped.

    {2 Decoding}

    {!decoder} is a push-based incremental decoder: {!feed} it raw
    bytes exactly as they came off the socket — at any split, one byte
    at a time if the kernel so delivers — and pull parsed frames with
    {!next}.  It never blocks (it has no I/O), never reads past the
    frame the length prefix promised, and never yields a frame that
    failed validation: an oversized length prefix is rejected the
    moment the 4 length bytes are visible (the body is never
    buffered), and a garbage header or malformed body poisons the
    decoder terminally — the only safe continuation of a framing error
    is to drop the connection. *)

val magic : char
(** First payload byte of every frame, [0xC7]. *)

val version : int
(** Protocol version this library speaks, [1]. *)

val default_max_payload : int
(** Default decoder cap on the payload length, [65536] bytes.  Frames
    longer than the cap are rejected as {!Too_large} without buffering. *)

val header_bytes : int
(** Payload bytes occupied by the header (magic, version, opcode): 3. *)

type request =
  | Inc  (** one [Fetch&Increment] through the connection's session *)
  | Dec  (** one [Fetch&Decrement] *)
  | Read
      (** current counter value (net tokens handed out), without
          traversing; quiescently consistent, exact at quiescence *)
  | Drain
      (** quiesce the network and validate (step property + token
          conservation), then re-admit; replies {!Drained} *)
  | Stats  (** server + service + network counters as JSON *)

type error_code =
  | Bad_magic  (** first payload byte was not {!magic} *)
  | Bad_version  (** peer speaks an unknown protocol version *)
  | Bad_opcode  (** unknown opcode, or a frame sent in the wrong direction *)
  | Bad_body  (** body length or content does not match what the opcode requires *)
  | Too_large  (** length prefix exceeds the decoder's payload cap *)

type response =
  | Value of int  (** result of [Inc]/[Dec]/[Read] *)
  | Overloaded
      (** the session's combining lane had no free submission slot —
          the service's bounded-queue backpressure, surfaced on the
          wire; retry, shed, or back off *)
  | Closed  (** the service is draining or stopped *)
  | Drained of { ok : bool; summary : string }
      (** outcome of a [Drain]: [ok] iff every quiescence check
          passed; [summary] is the validator's one-line report *)
  | Stats_reply of string  (** JSON document *)
  | Error_reply of { code : error_code; message : string }
      (** terminal protocol error; the sender closes the connection
          after this frame *)

type frame = Request of request | Response of response

val pp : Format.formatter -> frame -> unit
val error_code_to_string : error_code -> string

(** {2 Encoding} *)

val encode : Buffer.t -> frame -> unit
(** Append the complete wire image (length prefix included) of a frame.
    Writes straight into the buffer: once the buffer has room, encoding
    allocates nothing. *)

val to_string : frame -> string
(** The wire image as a fresh string. *)

(** {2 Incremental decoding} *)

type decoder

val decoder : ?max_payload:int -> unit -> decoder
(** A fresh decoder.  [?max_payload] (default {!default_max_payload})
    bounds accepted payload lengths; it must be at least
    {!header_bytes}.
    @raise Invalid_argument if [max_payload < header_bytes]. *)

val feed : decoder -> bytes -> off:int -> len:int -> unit
(** [feed d buf ~off ~len] appends [len] bytes at [off] to the
    decoder's input.  The bytes are copied; the caller may reuse
    [buf].  Feeding a poisoned decoder is allowed and ignored.
    @raise Invalid_argument on a negative or out-of-bounds range. *)

type event =
  | Frame of frame  (** one complete, validated frame *)
  | Need_more  (** no complete frame buffered; feed more bytes *)
  | Corrupt of { code : error_code; detail : string }
      (** framing error; terminal — every later {!next} returns it *)

val next : decoder -> event
(** Pull the next event.  Consumes exactly the bytes of the frame it
    returns; pipelined frames in one [feed] come back one {!next} at a
    time.

    Frames are validated in place on the decoder's buffer.  The
    body-less frames — every {!request}, {!Overloaded} and {!Closed} —
    and {!Need_more} come back as constant events: pulling them
    allocates nothing.  A {!Value} allocates only its event; {!Drained},
    {!Stats_reply} and {!Error_reply} also copy their string. *)

val buffered : decoder -> int
(** Bytes fed but not yet consumed by {!next} — for tests asserting the
    decoder never over-reads. *)
