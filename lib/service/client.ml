type addr = Unix_sock of string | Tcp of string * int

(* a scheme-looking prefix (letters/digits/+/-/., starting with a
   letter) that isn't "tcp" is almost surely a typo for one — treated
   as a socket path it would only surface later as a confusing ENOENT.
   Paths starting with '/' or '.' are never mistaken for schemes. *)
let scheme_like s =
  String.length s >= 2
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '+' | '-' | '.' -> true
         | _ -> false)
       s

let addr_of_string s =
  match String.index_opt s ':' with
  | Some _ when String.length s >= 4 && String.sub s 0 4 = "tcp:" -> (
      let rest = String.sub s 4 (String.length s - 4) in
      match String.rindex_opt rest ':' with
      | None -> Error (Printf.sprintf "tcp address %S has no port" s)
      | Some i -> (
          let host = String.sub rest 0 i in
          let port = String.sub rest (i + 1) (String.length rest - i - 1) in
          match int_of_string_opt port with
          | Some p when p >= 0 && p < 65536 ->
              Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
          | _ -> Error (Printf.sprintf "bad port in tcp address %S" s)))
  | Some i when scheme_like (String.sub s 0 i) ->
      Error
        (Printf.sprintf
           "unknown scheme in address %S (use tcp:HOST:PORT, or a socket \
            path starting with / or .)"
           s)
  | _ -> Ok (Unix_sock s)

let addr_to_string = function
  | Unix_sock path -> path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let sockaddr_of = function
  | Unix_sock path -> Ok (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Tcp (host, port) -> (
      match Unix.getaddrinfo host (string_of_int port)
              [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM; Unix.AI_FAMILY Unix.PF_INET ]
      with
      | { Unix.ai_addr; _ } :: _ -> Ok (Unix.PF_INET, ai_addr)
      | [] -> Error (Printf.sprintf "cannot resolve %s:%d" host port)
      | exception _ -> Error (Printf.sprintf "cannot resolve %s:%d" host port))

type conn = { fd : Unix.file_descr; mutable pending : string }

(* set on the first connect, not at module init: only processes that
   actually open client connections should trade SIGPIPE death for
   EPIPE errors (a plain CLI run keeps the usual quiet exit when its
   stdout pipe closes) *)
let ignore_sigpipe =
  lazy (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ())

let connect ?(wait_s = 0.) addr =
  Lazy.force ignore_sigpipe;
  (* monotonic: a wall-clock step while we poll must not stretch or
     collapse the connect window *)
  let deadline = Tmx_runtime.Clock.now_s () +. wait_s in
  let rec go () =
    match sockaddr_of addr with
    | Error _ as e -> e
    | Ok (domain, sockaddr) -> (
        let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
        match
          Unix.connect fd sockaddr;
          (match addr with
          | Tcp _ -> ( try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ())
          | Unix_sock _ -> ())
        with
        | () -> Ok { fd; pending = "" }
        | exception Unix.Unix_error (e, _, _) ->
            (try Unix.close fd with _ -> ());
            if Tmx_runtime.Clock.now_s () < deadline then (
              Unix.sleepf 0.02;
              go ())
            else
              Error
                (Printf.sprintf "cannot connect to %s: %s" (addr_to_string addr)
                   (Unix.error_message e)))
  in
  go ()

let close c = try Unix.close c.fd with _ -> ()

(* as on the server side: a signal mid-write resumes where it left off
   instead of truncating the request *)
let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          (try ignore (Unix.select [] [ fd ] [] 0.25)
           with Unix.Unix_error (Unix.EINTR, _, _) -> ());
          go off
  in
  go 0

let read_line c =
  let chunk = Bytes.create 4096 in
  let rec go () =
    match String.index_opt c.pending '\n' with
    | Some i ->
        let line = String.sub c.pending 0 i in
        c.pending <-
          String.sub c.pending (i + 1) (String.length c.pending - i - 1);
        Ok line
    | None -> (
        match Unix.read c.fd chunk 0 (Bytes.length chunk) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error (e, _, _) ->
            Error (Unix.error_message e)
        | 0 -> Error "server closed the connection"
        | n ->
            c.pending <- c.pending ^ Bytes.sub_string chunk 0 n;
            go ())
  in
  go ()

let roundtrip_raw c req =
  match write_all c.fd (Tmx_json.to_string req ^ "\n") with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | () -> read_line c

let roundtrip c req =
  match roundtrip_raw c req with
  | Error e -> Error e
  | Ok line -> (
      match Tmx_json.of_string line with
      | Ok j -> Ok j
      | Error e -> Error (Printf.sprintf "bad response: %s" e))

(* a connect can succeed against a server already on its way down: the
   kernel completes the handshake out of the dying listener's backlog,
   the process exits, and the first write or read then sees a dead
   peer.  Within a wait budget those are "not up yet", same as a
   refused connect — retry the whole connect+roundtrip. *)
let dead_peer_error e =
  e = "server closed the connection"
  || e = Unix.error_message Unix.EPIPE
  || e = Unix.error_message Unix.ECONNRESET

let request ?(wait_s = 0.) ~addr req =
  let deadline = Tmx_runtime.Clock.now_s () +. wait_s in
  let rec go () =
    let budget = Float.max 0. (deadline -. Tmx_runtime.Clock.now_s ()) in
    match connect ~wait_s:budget addr with
    | Error e -> Error e
    | Ok c -> (
        match
          Fun.protect ~finally:(fun () -> close c) (fun () -> roundtrip c req)
        with
        | Error e when dead_peer_error e && Tmx_runtime.Clock.now_s () < deadline
          ->
            Unix.sleepf 0.02;
            go ()
        | r -> r)
  in
  go ()
