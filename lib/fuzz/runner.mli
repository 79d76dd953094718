(** The fuzz campaign driver behind [tmx fuzz].

    One run replays the crash corpus first, then the seed corpus, then
    generates fresh programs from [(seed, index)] until [count] is
    reached or the time budget expires.  Every program is checked
    against every selected oracle; failures are minimized with
    {!Shrink.minimize} against the oracle that failed and written to
    the crash corpus. *)

open Tmx_lang

type options = {
  seed : int;
  count : int;  (** fresh programs to generate *)
  time_budget : float;  (** seconds; [0.] means unlimited *)
  oracles : Oracle.t list;
  jobs : int;  (** the N of the jobs-determinism oracle *)
  gen_config : Gen.config;
  corpus_dir : string option;  (** [None] skips corpus replay *)
  crashes_dir : string option;
      (** [None] skips crash replay and disables saving minimized
          failures *)
  minimize : bool;
  max_failures : int;  (** stop the campaign after this many failures *)
  enumerate :
    (Tmx_exec.Enumerate.config ->
    Tmx_core.Model.t ->
    Ast.program ->
    Tmx_exec.Enumerate.result)
    option;
      (** oracle-side enumeration override, threaded into
          {!Oracle.ctx.run} ([tmx fuzz --cache] plugs the verdict cache
          in); the jobs-det oracle bypasses it by design *)
}

val default_options : options
(** seed 0, count 100, no budget, all stock oracles, jobs 2, the
    {!Gen.mixed} distribution, the default corpus directories,
    minimization on, stop after 5 failures. *)

type failure = {
  oracle : string;
  detail : string;
  origin : string;  (** ["generated:<index>"], ["corpus:<file>"], … *)
  program : Ast.program;
  minimized : Ast.program option;
  shrink_steps : int;
  saved : string option;  (** crash-corpus path, when saving is enabled *)
}

type report = {
  seed : int;
  jobs : int;
  generated : int;
  corpus_replayed : int;
  crashes_replayed : int;
  corpus_skipped : int;  (** unparseable corpus/crash files (warned, not fatal) *)
  corpus_deduped : int;
      (** replay seeds dropped because another file had the same
          {!Tmx_lang.Canon} digest *)
  skipped_files : (string * string) list;
      (** the [(file, error)] pairs behind [corpus_skipped] *)
  checks : int;  (** oracle invocations *)
  per_oracle : (string * int) list;
  failures : failure list;
  elapsed : float;
  budget_exhausted : bool;
}

val ok : report -> bool

val run : options -> report

val minimize_program :
  options -> Oracle.t -> Ast.program -> (failure, string) result
(** Minimize one explicit program against one oracle ([tmx fuzz
    --minimize FILE]).  [Error] when the oracle passes on the input. *)

val pp_report : report Fmt.t
val report_to_json : report -> Tmx_json.t
