(** The matching client for {!Server}: connect over the Unix socket or
    TCP, send one JSON request per line, read one JSON response per
    line. *)

type addr =
  | Unix_sock of string  (** a Unix-domain socket path *)
  | Tcp of string * int  (** host, port *)

val addr_of_string : string -> (addr, string) result
(** ["tcp:HOST:PORT"] (empty host means 127.0.0.1) parses as {!Tcp};
    anything else is a {!Unix_sock} path.  Matches the addresses
    [tmx serve] prints at startup.  Malformed tcp addresses (missing,
    empty, non-numeric or out-of-range port) and scheme-looking
    prefixes other than [tcp:] (e.g. ["udp:...]"]) are errors rather
    than socket paths — a path containing [:] is fine as long as it
    starts with [/] or [.]. *)

val addr_to_string : addr -> string
(** Inverse of {!addr_of_string} (Unix paths render bare). *)

type conn

val connect : ?wait_s:float -> addr -> (conn, string) result
(** Connect to the address.  [wait_s] retries the connection for up to
    that many seconds (the server may still be binding — cram tests
    background [tmx serve] and race it). *)

val close : conn -> unit

val roundtrip : conn -> Tmx_json.t -> (Tmx_json.t, string) result
(** Send one request, read its response line. *)

val roundtrip_raw : conn -> Tmx_json.t -> (string, string) result
(** As {!roundtrip} but returns the raw response line unparsed — the
    loadgen byte-identity oracle compares these verbatim. *)

val request :
  ?wait_s:float -> addr:addr -> Tmx_json.t -> (Tmx_json.t, string) result
(** One-shot: connect, {!roundtrip}, close.  Within the [wait_s]
    budget a dead peer mid-roundtrip (the connect raced a server
    shutting down: accepted from the old listener's backlog, then
    EPIPE/reset/EOF) is treated like a refused connect and the whole
    exchange is retried against the new listener. *)
