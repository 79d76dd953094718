(** The one JSON codec of the project.  Every JSON value tmx reads or
    writes goes through it: the [lint]/[repair]/[fuzz] reports and the
    SARIF log, the cache's on-disk entries, the serve/client wire
    protocol, the benchmark records and [tmx bench-compare].  It sits
    below the analysis layer and depends on nothing but [fmt], so every
    library can build values of {!t} instead of JSON strings.

    Self-contained by design — the project deliberately avoids external
    runtime dependencies.  Numbers are parsed as floats, which is
    exact for every integer the program produces (well below 2{^53}). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val of_string : string -> (t, string) result
(** Parse one JSON value; trailing garbage is an error. *)

val to_string : t -> string
(** Compact single-line rendering (objects keep field order); the
    NDJSON framing relies on the absence of raw newlines.  Control
    characters in strings are escaped.  A non-integer number prints in
    the shortest of [%.15g]/[%.16g]/[%.17g] that reads back as the same
    float, so [of_string (to_string v) = Ok v] for finite numbers. *)

(** {1 Builders} *)

val int : int -> t
val str : string -> t
val bool : bool -> t

(** {1 Accessors} — [None] on shape mismatch, never an exception. *)

val mem : string -> t -> t option
val to_int : t -> int option
val to_float_opt : t -> float option
val to_str : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option
