(** The static mixed-race analyzer behind [tmx lint].

    [lint] classifies every location (tx-only / plain-only / mixed) and
    reports every pair of static accesses that clashes on a location,
    involves a write and a plain access, and is not ordered by the
    static happens-before abstraction ({!Order.pair}) — with a source
    path and a suggested fix on each finding.  No enumeration happens on
    this path; a lint is linear-ish in the program size (quadratic in
    its access count).

    Soundness (the direction the property suite pins against the
    exhaustive enumerator): if [race_free] holds, no consistent
    execution of the program has an L-race or mixed race under any
    model.  Precision is measured, not promised — findings are candidate
    races, to be confirmed with [tmx races]. *)

open Tmx_lang

type severity =
  | High  (** no static protection at all *)
  | Medium  (** one-sided quiescence-fence protection (HBCQ/HBQB) *)
  | Low  (** guarded-publication / privatization idiom (HBww-shaped) *)
  | Info
      (** both a fence and a guard protection — every known one-sided
          ordering device is present, the residual risk is minimal *)

val pp_severity : severity Fmt.t
val severity_rank : severity -> int
(** [High] is 0; larger is less severe. *)

type kind =
  | Mixed_race  (** transactional write vs plain write (§5) *)
  | L_race  (** any other unordered conflicting pair (§4) *)

val pp_kind : kind Fmt.t

type fix =
  | Insert_fence of { fence_loc : string; before : string }
      (** privatization-shaped: the plain access follows an atomic block
          in its thread, so a quiescence fence (as inserted wholesale by
          {!Tmx_opt.Fenceify}) is the idiomatic repair *)
  | Wrap_atomic of string list
      (** wrap the named accesses in [atomic { }], making the pair
          transactional and hence race-free by definition *)

val pp_fix : fix Fmt.t

type finding = {
  kind : kind;
  loc : string;  (** the clashing location (most specific name) *)
  a : Access.t;
  b : Access.t;
  protections : Order.protection list;
  severity : severity;
  fix : fix;
}

type report = {
  program : Ast.program;
  summaries : Access.summary list;
  findings : finding list;  (** sorted most severe first *)
}

val lint : Ast.program -> report
val race_free : report -> bool
val mixed_count : report -> int

val covers : report -> string -> bool
(** Is the location covered by some finding?  Wildcard findings
    ([z\[*\]]) cover every cell of the array; used by the
    enumeration-backed soundness oracles (the fuzzer's and the test
    suite's) to tie dynamic races back to static findings. *)

val pp_finding : finding Fmt.t
val pp_report : report Fmt.t

val pp_verdict : report Fmt.t
(** One-line verdict: ["race-free"] or ["N candidate races (M mixed)"]. *)

val to_json : report -> Tmx_json.t

val sarif_of_reports : report list -> Tmx_json.t
(** A SARIF 2.1.0 log with one run and one result per finding, across
    all the given reports — what `tmx lint --sarif` emits so findings
    can annotate PRs.  Program name and access path land in logical
    locations (the litmus language has no physical files/lines);
    severities map to SARIF levels (high → error, medium → warning,
    low/info → note). *)
