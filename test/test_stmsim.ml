open Tmx_exec
open Tmx_stmsim

let lazy_cfg = Stmsim.default_config
let eager_cfg = { lazy_cfg with Stmsim.strategy = Stmsim.Eager }
let partial_cfg = { lazy_cfg with Stmsim.strategy = Stmsim.Partial }
let norec_cfg = { lazy_cfg with Stmsim.strategy = Stmsim.Norec }
let program name = (Option.get (Tmx_litmus.Catalog.find name)).Tmx_litmus.Litmus.program
let parse src = (Tmx_litmus.Parse.parse src).Tmx_litmus.Litmus.program

let has_outcome outcomes cond = List.exists cond outcomes

let test_lazy_privatization_anomaly () =
  let r = Stmsim.run ~config:lazy_cfg (program "privatization") in
  Alcotest.(check bool) "delayed write-back loses the plain write" true
    (has_outcome r.outcomes (fun o -> Outcome.mem o "x" = 1))

let test_fence_repairs_privatization () =
  let r = Stmsim.run ~config:lazy_cfg (program "privatization_fence") in
  Alcotest.(check bool) "no x=1 with the quiescence fence" false
    (has_outcome r.outcomes (fun o -> Outcome.mem o "x" = 1));
  Alcotest.(check bool) "still completes" true (r.outcomes <> [])

let test_atomic_commit_repairs_privatization () =
  let cfg = { lazy_cfg with Stmsim.atomic_commit = true } in
  let r = Stmsim.run ~config:cfg (program "privatization") in
  Alcotest.(check bool) "indivisible commit avoids the anomaly" false
    (has_outcome r.outcomes (fun o -> Outcome.mem o "x" = 1))

let test_fence_repairs_eager_privatization () =
  (* quiescence must cover in-flight transactions that have not yet
     touched the fenced location: an eager transaction that has read the
     flag may still write x later *)
  let r = Stmsim.run ~config:eager_cfg (program "privatization_fence") in
  Alcotest.(check bool) "no x=1 under eager with the fence" false
    (has_outcome r.outcomes (fun o -> Outcome.mem o "x" = 1))

let test_eager_speculative_lost_update () =
  (* Ex 3.4 / Shpeisman Fig 3a: the rollback of the aborted eager
     transaction loses the plain write x:=2 (q=0), which the paper's
     model forbids — naive eager versioning does not implement it *)
  let r = Stmsim.run ~config:eager_cfg (program "ex3_4") in
  Alcotest.(check bool) "speculative lost update exhibited" true
    (has_outcome r.outcomes (fun o -> Outcome.reg o 1 "q" = 0))

let test_lazy_no_lost_update () =
  let r = Stmsim.run ~config:lazy_cfg (program "ex3_4") in
  Alcotest.(check bool) "lazy versioning never loses the plain write" false
    (has_outcome r.outcomes (fun o -> Outcome.reg o 1 "q" = 0))

let test_eager_dirty_read () =
  (* App D.3: a plain reader observes the eager transaction's in-place
     write before the rollback *)
  let r = Stmsim.run ~config:eager_cfg (program "d3_dirty_reads") in
  Alcotest.(check bool) "dirty read exhibited" true
    (has_outcome r.outcomes (fun o -> Outcome.mem o "x" = 0 && Outcome.mem o "w" = 1))

let test_lazy_serializable_on_txn_only () =
  (* on fully transactional programs the lazy STM is serializable: its
     outcomes are within the atomic reference semantics *)
  List.iter
    (fun name ->
      let p = program name in
      let anomalies = Stmsim.anomalies (Stmsim.run ~config:lazy_cfg p) p in
      Alcotest.(check int) (name ^ " anomaly-free") 0 (List.length anomalies))
    [ "opacity_iriw"; "d1_opaque_writes" ]

let test_publication_needs_no_fence () =
  (* the publication idiom works on the lazy STM as-is (§5: direct
     dependencies are ordered by the transactional machinery) *)
  let p = program "publication" in
  let anomalies = Stmsim.anomalies (Stmsim.run ~config:lazy_cfg p) p in
  Alcotest.(check int) "publication anomaly-free" 0 (List.length anomalies)

(* -- partial aborts ---------------------------------------------------- *)

let test_partial_privatization_anomaly () =
  (* partial is lazy plus checkpoint-restore: it must not hide the
     delayed-write-back anomaly the lazy protocol has *)
  let r = Stmsim.run ~config:partial_cfg (program "privatization") in
  Alcotest.(check bool) "partial preserves the lazy anomaly" true
    (has_outcome r.outcomes (fun o -> Outcome.mem o "x" = 1))

let test_partial_zero_checkpoints_is_lazy () =
  (* with no checkpoint budget every partial abort degenerates to a full
     abort: the outcome sets must coincide exactly with lazy's *)
  let cfg = { partial_cfg with Stmsim.checkpoints = 0 } in
  List.iter
    (fun name ->
      let p = program name in
      let pr = Stmsim.run ~config:cfg p in
      let lr = Stmsim.run ~config:lazy_cfg p in
      Alcotest.(check bool)
        (name ^ ": partial(checkpoints=0) = lazy") true
        (Outcome.diff pr.outcomes lr.outcomes = []
        && Outcome.diff lr.outcomes pr.outcomes = []))
    [ "privatization"; "publication"; "ex3_4"; "d3_dirty_reads" ]

(* -- norec ------------------------------------------------------------- *)

let test_norec_privatization_safe () =
  (* NOrec writer commits serialize on the global sequence lock and a
     reader revalidates when the counter moves, so the privatization
     idiom is safe without a fence — the headline NOrec property *)
  let r = Stmsim.run ~config:norec_cfg (program "privatization") in
  Alcotest.(check bool) "norec commits indivisibly enough for privatization"
    false
    (has_outcome r.outcomes (fun o -> Outcome.mem o "x" = 1));
  Alcotest.(check bool) "still completes" true (r.outcomes <> [])

let test_norec_no_lost_update () =
  (* no in-place speculative writes, so no §3.4 lost update either *)
  let r = Stmsim.run ~config:norec_cfg (program "ex3_4") in
  Alcotest.(check bool) "norec never loses the plain write" false
    (has_outcome r.outcomes (fun o -> Outcome.reg o 1 "q" = 0))

(* -- budget flags ------------------------------------------------------- *)

let conflict_incr_src =
  {|
name conflict_incr
locs x

thread 0:
  atomic { r := x; x := r + 1 }

thread 1:
  atomic { s := x; x := s + 1 }
|}

let spin_src = {|
name spin
locs x

thread 0:
  while 1 { r := x; x := r + 1 }
|}

let test_retry_budget_flag () =
  (* two conflicting increments with no retry budget: some schedule
     aborts past the budget, and the flag must name the retry budget,
     not the fuel *)
  let cfg = { lazy_cfg with Stmsim.max_retries = 0 } in
  let r = Stmsim.run ~config:cfg (parse conflict_incr_src) in
  Alcotest.(check bool) "retry budget fired" true r.retries_exhausted;
  Alcotest.(check bool) "fuel untouched" false r.fuel_exhausted;
  Alcotest.(check bool) "truncated = either flag" true r.truncated;
  (* with the default budget the same program completes cleanly *)
  let r' = Stmsim.run ~config:lazy_cfg (parse conflict_incr_src) in
  Alcotest.(check bool) "no budget fired with defaults" false r'.truncated;
  Alcotest.(check bool) "both increments land" true
    (has_outcome r'.outcomes (fun o -> Outcome.mem o "x" = 2))

let test_fuel_budget_flag () =
  (* an unbounded loop burns fuel on every path and never conflicts: the
     flag must name the fuel, not the retry budget *)
  let r = Stmsim.run ~config:lazy_cfg (parse spin_src) in
  Alcotest.(check bool) "fuel fired" true r.fuel_exhausted;
  Alcotest.(check bool) "retry budget untouched" false r.retries_exhausted;
  Alcotest.(check bool) "truncated = either flag" true r.truncated

(* Cross-validation of two independently built components: every outcome
   the lazy STM exhibits is admitted by the axiomatic implementation
   model (the sense in which TL2-style STMs "realize the implementation
   model", §5/§7) — while naive eager versioning escapes even that model
   on ex3_4 (the §3.4 anomaly). *)
let realizes_implementation_model config () =
  List.iter
    (fun name ->
      let p = program name in
      let stm = Stmsim.run ~config p in
      let model =
        Tmx_exec.Enumerate.outcomes
          (Tmx_exec.Enumerate.run Tmx_core.Model.implementation p)
      in
      List.iter
        (fun o ->
          Alcotest.(check bool)
            (Fmt.str "%s: stm outcome %a admitted by im" name Outcome.pp o)
            true
            (List.exists (Outcome.equal o) model))
        stm.outcomes)
    [ "privatization"; "publication"; "sb"; "ex3_4"; "ex3_5"; "d1_opaque_writes";
      "d3_dirty_reads" ]

let test_lazy_realizes_implementation_model = realizes_implementation_model lazy_cfg

let test_partial_realizes_implementation_model =
  realizes_implementation_model { partial_cfg with Stmsim.checkpoints = 2 }

let test_norec_realizes_implementation_model =
  realizes_implementation_model norec_cfg

let test_eager_escapes_implementation_model () =
  let p = program "ex3_4" in
  let stm = Stmsim.run ~config:eager_cfg p in
  let model =
    Tmx_exec.Enumerate.outcomes
      (Tmx_exec.Enumerate.run Tmx_core.Model.implementation p)
  in
  Alcotest.(check bool) "naive eager exhibits model-forbidden outcomes" true
    (List.exists
       (fun o -> not (List.exists (Outcome.equal o) model))
       stm.outcomes)

let test_paths_explored () =
  let r = Stmsim.run ~config:lazy_cfg (program "privatization") in
  Alcotest.(check bool) "explores many schedules" true (r.paths > 100);
  Alcotest.(check bool) "not capped" false r.capped

let suite =
  [
    Alcotest.test_case "lazy privatization anomaly" `Quick test_lazy_privatization_anomaly;
    Alcotest.test_case "quiescence fence repairs it" `Quick test_fence_repairs_privatization;
    Alcotest.test_case "fence repairs eager too" `Quick test_fence_repairs_eager_privatization;
    Alcotest.test_case "atomic commit repairs it" `Quick test_atomic_commit_repairs_privatization;
    Alcotest.test_case "eager speculative lost update" `Quick test_eager_speculative_lost_update;
    Alcotest.test_case "lazy has no lost update" `Quick test_lazy_no_lost_update;
    Alcotest.test_case "eager dirty reads" `Quick test_eager_dirty_read;
    Alcotest.test_case "partial preserves privatization anomaly" `Quick
      test_partial_privatization_anomaly;
    Alcotest.test_case "partial with zero checkpoints is lazy" `Quick
      test_partial_zero_checkpoints_is_lazy;
    Alcotest.test_case "norec privatization-safe" `Quick
      test_norec_privatization_safe;
    Alcotest.test_case "norec has no lost update" `Quick
      test_norec_no_lost_update;
    Alcotest.test_case "retry-budget flag" `Quick test_retry_budget_flag;
    Alcotest.test_case "fuel-budget flag" `Quick test_fuel_budget_flag;
    Alcotest.test_case "lazy serializable when transactional-only" `Slow
      test_lazy_serializable_on_txn_only;
    Alcotest.test_case "publication needs no fence" `Quick test_publication_needs_no_fence;
    Alcotest.test_case "lazy STM realizes the implementation model" `Slow
      test_lazy_realizes_implementation_model;
    Alcotest.test_case "partial STM realizes the implementation model" `Slow
      test_partial_realizes_implementation_model;
    Alcotest.test_case "norec STM realizes the implementation model" `Slow
      test_norec_realizes_implementation_model;
    Alcotest.test_case "naive eager escapes the implementation model" `Quick
      test_eager_escapes_implementation_model;
    Alcotest.test_case "schedule coverage" `Quick test_paths_explored;
  ]
