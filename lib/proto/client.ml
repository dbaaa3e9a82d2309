exception Disconnected
exception Protocol_error of string

type t = {
  fd : Unix.file_descr;
  dec : Frame.decoder;
  buf : Bytes.t;
  out : Buffer.t;  (* the request being sent, reused across requests *)
  mutable closed : bool;
}

let connect ?(host = "127.0.0.1") ~port () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  {
    fd;
    dec = Frame.decoder ();
    buf = Bytes.create 4096;
    out = Buffer.create 64;
    closed = false;
  }

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let write_all t s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  try
    while !off < n do
      let k = Unix.write t.fd b !off (n - !off) in
      if k = 0 then raise Disconnected;
      off := !off + k
    done
  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
    raise Disconnected

let rec read_frame t =
  match Frame.next t.dec with
  | Frame.Frame f -> f
  | Frame.Corrupt { code; detail } ->
      raise
        (Protocol_error
           (Printf.sprintf "%s: %s" (Frame.error_code_to_string code) detail))
  | Frame.Need_more ->
      let n =
        try Unix.read t.fd t.buf 0 (Bytes.length t.buf)
        with Unix.Unix_error ((Unix.ECONNRESET | Unix.EBADF), _, _) ->
          raise Disconnected
      in
      if n = 0 then raise Disconnected;
      Frame.feed t.dec t.buf ~off:0 ~len:n;
      read_frame t

let request t req =
  if t.closed then raise Disconnected;
  Buffer.clear t.out;
  Frame.encode t.out (Frame.Request req);
  write_all t (Buffer.contents t.out);
  match read_frame t with
  | Frame.Response r -> r
  | Frame.Request _ ->
      raise (Protocol_error "server sent a request frame as a reply")

let op t req =
  match request t req with
  | Frame.Value v -> Ok v
  | Frame.Overloaded -> Error `Overloaded
  | Frame.Closed -> Error `Closed
  | r ->
      raise
        (Protocol_error
           (Format.asprintf "unexpected reply %a" Frame.pp (Frame.Response r)))

let increment t = op t Frame.Inc
let decrement t = op t Frame.Dec

let read t =
  match request t Frame.Read with
  | Frame.Value v -> v
  | r ->
      raise
        (Protocol_error
           (Format.asprintf "unexpected reply %a" Frame.pp (Frame.Response r)))

let drain t =
  match request t Frame.Drain with
  | Frame.Drained { ok; summary } -> (ok, summary)
  | r ->
      raise
        (Protocol_error
           (Format.asprintf "unexpected reply %a" Frame.pp (Frame.Response r)))

let stats t =
  match request t Frame.Stats with
  | Frame.Stats_reply json -> json
  | r ->
      raise
        (Protocol_error
           (Format.asprintf "unexpected reply %a" Frame.pp (Frame.Response r)))
