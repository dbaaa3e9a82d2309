(** A blocking countnetd client: one TCP connection, one outstanding
    request at a time (the load rig runs many connections instead of
    pipelining one).

    Failure surfaces as exceptions rather than results because every
    one of them is connection-fatal: [Disconnected] when the peer
    closed (a drained server closing sockets lands here),
    [Protocol_error] when the byte stream stopped being the protocol.
    Application-level outcomes ([Overloaded], [Closed]) are values —
    see {!Frame.response}. *)

type t

exception Disconnected
(** The peer closed the connection (or the socket died mid-exchange). *)

exception Protocol_error of string
(** The reply stream failed frame validation, or a request frame
    arrived where a response belonged.  The connection is unusable. *)

val connect : ?host:string -> port:int -> unit -> t
(** TCP-connect to a countnetd ([?host] default ["127.0.0.1"]).
    @raise Unix.Unix_error when the connection is refused.
    @raise Failure when [host] is not a numeric IPv4 address. *)

val request : t -> Frame.request -> Frame.response
(** Send one request and block for its reply.
    @raise Disconnected / [Protocol_error] as above. *)

val close : t -> unit
(** Close the connection.  Idempotent. *)

(** {2 Convenience wrappers} *)

val increment : t -> (int, [ `Overloaded | `Closed ]) result
val decrement : t -> (int, [ `Overloaded | `Closed ]) result
(** [Inc]/[Dec] with the service-style result shape: [Ok value], or the
    backpressure/lifecycle refusal.
    @raise Protocol_error on a reply that fits neither. *)

val read : t -> int
(** Current counter value. *)

val drain : t -> bool * string
(** Ask the server to drain + validate; the validator's verdict and
    its summary line. *)

val stats : t -> string
(** The server's stats JSON. *)
