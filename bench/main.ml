(* The paper tables.

   The paper is a theory paper: its "tables and figures" are the verdict
   annotations on its example executions, the theorem statements, and the
   §6 compilation/fencing discussion.  This program regenerates each of
   them (EXPERIMENTS.md maps experiment ids to the sections below):

   part 1 — the verdict matrix across the model design space (§1–§3, §5,
            App D), i.e. every figure's allowed/forbidden annotation;
   part 2 — the theorem checks (§4, §5): SC-LTRF, Thm 4.2, Lemma 5.1;
   part 3 — the STM-design table (§3): which anomalies each operational
            STM strategy exhibits, and what repairs them; part 3b, the
            §6 fence-insertion table.

   Timings live in the one benchmark, perfbench/ (see BENCHMARK.json). *)

open Tmx_core
open Tmx_exec

let catalog name = (Option.get (Tmx_litmus.Catalog.find name)).Tmx_litmus.Litmus.program

(* ------------------------------------------------------------------ *)
(* part 1: verdict matrix                                              *)
(* ------------------------------------------------------------------ *)

(* The part-1 probes: a program and the outcome its figure annotates. *)
let matrix_probes : (string * string * (Outcome.t -> bool)) list =
  [
      ("privatization", "x=1", fun o -> Outcome.mem o "x" = 1);
      ("publication", "z=0", fun o -> Outcome.mem o "z" = 0);
      ("ex2_2", "x=2", fun o -> Outcome.mem o "x" = 2);
      ("lb", "r=q=1", fun o -> Outcome.reg o 0 "r" = 1 && Outcome.reg o 1 "q" = 1);
      ("sb", "r=q=0", fun o -> Outcome.reg o 0 "r" = 0 && Outcome.reg o 1 "q" = 0);
      ("ex3_1", "r=q=0", fun o -> Outcome.reg o 0 "r" = 0 && Outcome.reg o 1 "q" = 0);
      ("ex3_2", "r=q=0", fun o -> Outcome.reg o 0 "r" = 0 && Outcome.reg o 1 "q" = 0);
      ("ex3_3", "q=0", fun o -> Outcome.mem o "q" = 0);
      ("ex3_4", "q=0", fun o -> Outcome.reg o 1 "q" = 0);
      ("ex3_5", "r1<>r2", fun o -> Outcome.reg o 0 "r1" <> Outcome.reg o 0 "r2");
      ("impl_reorder", "ry=0,r=0", fun o -> Outcome.reg o 0 "ry" = 0 && Outcome.reg o 1 "r" = 0);
      ("privatization_fence", "x=1", fun o -> Outcome.mem o "x" = 1);
      ("d1_opaque_writes", "r=1", fun o -> Outcome.reg o 1 "r" = 1);
      ("d2_race_free_speculation", "r<>2", fun o -> Outcome.reg o 2 "r" <> 2);
      ("d3_dirty_reads", "x=0,w=1", fun o -> Outcome.mem o "x" = 0 && Outcome.mem o "w" = 1);
      ("d4_no_overlapped_writes", "r=0", fun o -> Outcome.mem o "r" = 0);
    ]

let verdict_matrix () =
  Fmt.pr "@.=== part 1: verdict matrix (paper figures, all models) ===@.@.";
  Fmt.pr "%-26s %-9s" "program" "outcome";
  List.iter (fun (m : Model.t) -> Fmt.pr " %-6s" m.name) Model.all;
  Fmt.pr "@.";
  List.iter
    (fun (name, what, cond) ->
      Fmt.pr "%-26s %-9s" name what;
      List.iter
        (fun model ->
          let allowed = Enumerate.allowed (Enumerate.run model (catalog name)) cond in
          Fmt.pr " %-6s" (if allowed then "yes" else "no"))
        Model.all;
      Fmt.pr "@.")
    matrix_probes

let shapes_summary () =
  Fmt.pr "@.=== shape families (plain/transactional site matrix) ===@.@.";
  let results = Tmx_litmus.Shapes.run_all () in
  let families =
    List.sort_uniq compare
      (List.map (fun (r : Tmx_litmus.Shapes.result) -> r.case.family) results)
  in
  List.iter
    (fun family ->
      let mine =
        List.filter (fun (r : Tmx_litmus.Shapes.result) -> r.case.family = family) results
      in
      let ok = List.length (List.filter (fun (r : Tmx_litmus.Shapes.result) -> r.ok) mine) in
      Fmt.pr "%-8s %d/%d combinations match the model-derived oracle" family ok
        (List.length mine);
      let forbidden =
        List.filter_map
          (fun (r : Tmx_litmus.Shapes.result) ->
            if r.observed_forbidden then Some r.case.name else None)
          mine
      in
      Fmt.pr "  (forbidden: %a)@." Fmt.(list ~sep:sp string) forbidden)
    families

let litmus_summary () =
  Fmt.pr "@.=== litmus expectations (every paper verdict) ===@.@.";
  let pass = ref 0 and total = ref 0 in
  List.iter
    (fun l ->
      incr total;
      let report = Tmx_litmus.Litmus.run l in
      if Tmx_litmus.Litmus.passed report then incr pass
      else Fmt.pr "%a@." Tmx_litmus.Litmus.pp_report report)
    Tmx_litmus.Catalog.all;
  Fmt.pr "%d/%d litmus tests match the paper@." !pass !total

(* ------------------------------------------------------------------ *)
(* part 2: theorems                                                    *)
(* ------------------------------------------------------------------ *)

let theorem_table () =
  Fmt.pr "@.=== part 2: theorem checks (§4, §5) ===@.@.";
  Fmt.pr "%-26s %-28s %-8s %-14s@." "program" "SC-LTRF (racy/weak/seq)" "Thm 4.2"
    "Lemma 5.1";
  List.iter
    (fun (l : Tmx_litmus.Litmus.t) ->
      let sc = Verdict.check_sc_ltrf Model.programmer l.program in
      let t42 = Verdict.check_theorem_4_2 Model.programmer l.program in
      let l51 = Verdict.check_lemma_5_1 l.program in
      Fmt.pr "%-26s %-4s (%b/%b/%b)%14s %-8s %s (%d/%d)@." l.name
        (if sc.theorem_holds then "ok" else "FAIL")
        sc.sc_racy sc.weak_exists sc.outcomes_contained ""
        (if t42 then "ok" else "FAIL")
        (if l51.holds then "ok" else "FAIL")
        l51.pm_consistent l51.mixed_race_free)
    Tmx_litmus.Catalog.all

(* ------------------------------------------------------------------ *)
(* part 3: STM design table (§3)                                       *)
(* ------------------------------------------------------------------ *)

let stm_design_table () =
  Fmt.pr "@.=== part 3: operational STM anomalies (§3, exhaustive schedules) ===@.@.";
  let open Tmx_stmsim in
  let configs =
    [
      ("lazy", Stmsim.default_config);
      ("lazy+atomic-commit", { Stmsim.default_config with atomic_commit = true });
      ("eager", { Stmsim.default_config with strategy = Stmsim.Eager });
    ]
  in
  let programs =
    [ "privatization"; "privatization_fence"; "publication"; "ex3_4"; "d3_dirty_reads" ]
  in
  Fmt.pr "%-22s" "program";
  List.iter (fun (n, _) -> Fmt.pr " %-20s" n) configs;
  Fmt.pr "@.";
  List.iter
    (fun name ->
      Fmt.pr "%-22s" name;
      List.iter
        (fun (_, config) ->
          let p = catalog name in
          let anomalies = Stmsim.anomalies (Stmsim.run ~config p) p in
          Fmt.pr " %-20s"
            (if anomalies = [] then "serializable"
             else Fmt.str "%d anomalies" (List.length anomalies)))
        configs;
      Fmt.pr "@.")
    programs

let fence_table () =
  Fmt.pr "@.=== part 3b: §6 fence insertion (realizing pm on an im STM) ===@.@.";
  Fmt.pr "%-18s %-22s %-22s@." "program" "targeted policy" "conservative policy";
  List.iter
    (fun name ->
      let p = catalog name in
      let show policy =
        let r = Tmx_opt.Fenceify.realizes ~policy p in
        Fmt.str "%d fences, %s" r.fences (if r.realizes then "realizes" else "FAILS")
      in
      Fmt.pr "%-18s %-22s %-22s@." name
        (show `After_transactions)
        (show `Every_mixed_access))
    [ "privatization"; "publication"; "ex2_2"; "impl_reorder"; "ldrf_example" ]

let () =
  verdict_matrix ();
  shapes_summary ();
  litmus_summary ();
  theorem_table ();
  stm_design_table ();
  fence_table ();
  Fmt.pr "@.done.@."
