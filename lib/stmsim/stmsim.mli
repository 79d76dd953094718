(** Operational STM simulator (§3 made executable).

    Four commit protocols over a sequentially consistent host memory,
    with an exhaustively explored fine-grained scheduler:

    - [Eager]: undo-log, in-place writes, rollback on abort.
    - [Lazy]: TL2-style redo log, per-location commit locks, commit-time
      write-back.
    - [Partial]: [Lazy] plus partial aborts — a checkpoint is taken
      before each of the first [checkpoints] memory reads, and a
      commit-time validation failure rolls back only to the oldest
      invalidated read, retaining the still-valid prefix
      (READ_SET_BOUND-style budget; [checkpoints = 0] is exactly
      [Lazy]).
    - [Norec]: value-based revalidation against one global commit
      counter and no per-location ownership.  Writer commits serialize
      on the counter's sequence lock, so the lazy privatization anomaly
      is gone by construction; plain accesses still interleave with
      write-back.

    Commit write-back and rollback are sequences of individually
    scheduled steps, so plain accesses interleave with them — exactly
    the mixed-mode windows §3 discusses.  The quiescence fence blocks
    until no other thread has an in-flight transaction (waiting only for
    transactions that already touched the fenced location is unsound:
    WF12 constrains the whole transaction span). *)

open Tmx_exec

type strategy = Eager | Lazy | Partial | Norec

val strategy_name : strategy -> string

type config = {
  strategy : strategy;
  fuel : int;  (** loop unrolling bound *)
  max_retries : int;  (** validation-failure retries (full or partial) *)
  checkpoints : int;  (** partial: READ_SET_BOUND-style checkpoint budget *)
  atomic_commit : bool;  (** publish lazy buffers in one indivisible step *)
  max_paths : int;
}

val default_config : config

type result = {
  outcomes : Outcome.t list;
  paths : int;  (** complete schedules explored *)
  fuel_exhausted : bool;  (** loop-unrolling fuel ran out on some path *)
  retries_exhausted : bool;  (** abort/retry budget ran out on some path *)
  truncated : bool;  (** [fuel_exhausted || retries_exhausted] *)
  capped : bool;
}

val run : ?config:config -> Tmx_lang.Ast.program -> result

val anomalies : ?sc_config:Sc.config -> result -> Tmx_lang.Ast.program -> Outcome.t list
(** [anomalies r p]: the outcomes of [r], a {!run} of [p], that the atomic
    reference semantics ({!Sc}) does not exhibit.  Taking the run lets a
    caller that also prints it simulate once. *)
