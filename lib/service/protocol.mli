(** The wire protocol of [tmx serve]: one JSON object per line in each
    direction (NDJSON).

    Request fields: ["verb"] (required — ping, check, races, outcomes,
    lint, batch, stats, shutdown); ["name"] (a catalog litmus name) or
    ["program"] (litmus source text) for the program-taking verbs;
    ["model"] (default ["pm"]); ["deadline_ms"]; ["id"] (any JSON
    value, echoed verbatim in the response); and for batch,
    ["requests"], an array of non-batch requests.

    Responses always carry ["ok"] (bool), ["verb"], the echoed ["id"]
    when one was given, and on failure ["error"]. *)

type request = {
  id : Tmx_json.t option;
  verb : string;
  name : string option;
  program : string option;
  model : string;
  deadline_ms : int option;
  subrequests : request list;  (** nonempty only for [batch] *)
}

val of_line : string -> (request, string) result

val to_json : request -> Tmx_json.t
(** The client-side encoder; [of_line (to_string (to_json r)) = Ok r]. *)

val ok :
  ?id:Tmx_json.t -> verb:string -> (string * Tmx_json.t) list -> Tmx_json.t
val error : ?id:Tmx_json.t -> verb:string -> string -> Tmx_json.t

val overloaded : ?id:Tmx_json.t -> verb:string -> unit -> Tmx_json.t
(** The structured shed response: [ok = false], [error = "overloaded"],
    and a distinguishing ["overloaded": true] field so clients can
    retry-with-backoff instead of treating it as a hard failure. *)

val response_ok : Tmx_json.t -> bool
(** The ["ok"] field of a response (false when absent). *)

val response_overloaded : Tmx_json.t -> bool
(** Was this response a shed (["overloaded"] field, false when absent)? *)
