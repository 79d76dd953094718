(* catalog: what a user of `tmx litmus`, `lint`, `repair` and `arch`
   runs.  Per program: Parse -> Canon.digest -> Litmus.run (enumeration
   through its ~enumerate hook) -> Lint.lint -> Repair.run -> Diff.rows.
   The frontier programs skip Repair.run and Diff.rows: those take about
   69 s and 117 s per frontier program on a 2-vCPU Xeon VM, so a pass
   would no longer fit a run.  Closed loop, one domain. *)

open Tmx_core
open Tmx_exec
open Tmx_litmus

type kind = Catalog of Litmus.t | File | Frontier of string list

type input = { name : string; text : string; kind : kind }

let frontier_dir = "perfbench/frontier"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let litmus_files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | a ->
      Array.sort compare a;
      List.filter_map
        (fun f ->
          if Filename.check_suffix f ".litmus" then Some (Filename.concat dir f)
          else None)
        (Array.to_list a)

let outcome_key o = Fmt.str "%a" Outcome.pp o
let outcome_set r = List.sort_uniq compare (List.map outcome_key (Enumerate.outcomes r))
let expected_file name = Filename.concat frontier_dir (name ^ ".expected")

let read_lines path =
  String.split_on_char '\n' (read_file path) |> List.filter (fun l -> l <> "")

let inputs () =
  let catalog =
    List.map
      (fun (l : Litmus.t) ->
        { name = l.name; text = Export.program_to_string l.program; kind = Catalog l })
      Catalog.all
  in
  let files =
    List.map
      (fun f -> { name = f; text = read_file f; kind = File })
      (litmus_files "litmus" @ litmus_files "fuzz/corpus")
  in
  let frontier =
    List.map
      (fun f ->
        let name = Filename.remove_extension (Filename.basename f) in
        { name; text = read_file f; kind = Frontier (read_lines (expected_file name)) })
      (litmus_files frontier_dir)
  in
  if List.length files < 13 || List.length frontier < 2 then
    failwith "catalog: input files missing (run from the repository root)";
  catalog @ files @ frontier

(* programs without written checks still get one: some consistent
   execution exists, which makes Litmus.run enumerate them *)
let exists_check model =
  Litmus.Outcome_check
    { model; descr = "some execution"; cond = (fun _ -> true); expect = Litmus.Allowed }

let arch_config = { Enumerate.default_config with reduction = Enumerate.No_reduction }

(* what a pass keeps of one enumeration: counts, not the executions *)
type enum_stat = { graphs : int; explored : int; undecided : bool; ns : int }

type program_result = {
  enums : enum_stat list;
  frontier_ns : int;
  op_ns : int;
  repair : (int * int) option;  (* candidates, oracle calls *)
  gap : bool;  (* some architecture needed fences *)
  rows_imprecise : int;
  rows : int;
}

let run_program b inp =
  let t0 = Bench.now_ns () in
  let fail = ref [] in
  let expect ok what = if not ok then fail := what :: !fail in
  let parsed = Span.with_ "litmus.parse" (fun () -> Parse.parse inp.text) in
  let p = parsed.program in
  let digest = Span.with_ "lang.digest" (fun () -> Tmx_lang.Canon.digest p) in
  let target =
    match inp.kind with
    | Catalog l ->
        expect (digest = Tmx_lang.Canon.digest l.program) "text round trip changed the digest";
        l
    | (Frontier _ | File) when parsed.checks = [] ->
        { parsed with checks = [ exists_check Model.programmer ] }
    | Frontier _ | File -> parsed
  in
  let enums = ref [] in
  let enumerate ~config model prog =
    let r, ns =
      Bench.time (fun () ->
          Span.with_ "exec.enumerate" (fun () -> Enumerate.run ~config model prog))
    in
    enums := (r, ns) :: !enums;
    r
  in
  let report = Span.with_ "litmus.run" (fun () -> Litmus.run ~enumerate target) in
  expect (Litmus.passed report) "verdict differs from the written expectation";
  let frontier_ns =
    match inp.kind with
    | Frontier expected ->
        let r, ns = List.hd !enums in
        expect (outcome_set r = expected) "frontier outcome set differs from the stored one";
        ns
    | _ -> 0
  in
  ignore (Span.with_ "analysis.lint" (fun () -> Tmx_analysis.Lint.lint p));
  let repair, gap, rows_imprecise, rows =
    match inp.kind with
    | Frontier _ -> (None, false, 0, 0)
    | _ ->
        let repair =
          match
            Span.with_ "analysis.repair" (fun () ->
                Tmx_analysis.Repair.run Model.implementation p)
          with
          | Ok r -> Some (r.candidates, r.oracle_calls)
          | Error e ->
              expect false ("no repair: " ^ e);
              None
        in
        let rows = Span.with_ "arch.rows" (fun () -> Tmx_arch.Diff.rows ~config:arch_config p) in
        let gap = ref false and imprecise = ref 0 in
        List.iter
          (fun (r : Tmx_arch.Diff.row) ->
            if r.imprecise then incr imprecise;
            match (r.arch, r.gap_fences) with
            | _, None -> ()
            | Tmx_arch.Arch.Armv8, Some (Some _) ->
                gap := true;
                (* the paper's section 6: on the catalog, lb is armv8's only gap *)
                (match inp.kind with
                | Catalog _ -> expect (inp.name = "lb") "armv8 gap outside lb"
                | _ -> ())
            | Tmx_arch.Arch.Armv8, Some None -> expect false "armv8 gap no fence set closes"
            | a, Some _ ->
                expect false (Tmx_arch.Arch.name a ^ " needs fences for the strongest variant"))
          rows;
        (repair, !gap, !imprecise, List.length rows)
  in
  (match inp.kind with
  | Catalog _ when inp.name = "lb" -> expect gap "armv8 does not escape lb"
  | _ -> ());
  List.iter
    (fun ((r : Enumerate.result), _) ->
      if r.capped || r.truncated then
        Bench.cap b
          (Printf.sprintf "%s: enumeration %s" inp.name
             (if r.capped then "capped" else "truncated")))
    !enums;
  Bench.check b (!fail = [])
    (Printf.sprintf "%s: %s" inp.name (String.concat "; " !fail));
  let stat ((r : Enumerate.result), ns) =
    { graphs = r.graphs; explored = r.explored; undecided = r.capped || r.truncated; ns }
  in
  { enums = List.rev_map stat !enums; frontier_ns; op_ns = Bench.now_ns () - t0; repair; gap; rows_imprecise; rows }

let pass b inputs () = List.map (run_program b) inputs

let run (b : Bench.t) =
  let inputs = Bench.setup ~times:9 inputs in
  let ps = Bench.passes b (pass b inputs) in
  let results (_, _, _, r) = r in
  let enums_of p = List.concat_map (fun r -> r.enums) (results p) in
  let un = Bench.untraced ps in
  (* end to end, untraced *)
  Stats.med "wall_s" "s" (List.map Bench.wall un);
  let decided p =
    let rs = results p in
    let e = enums_of p in
    let total = List.length e + List.fold_left (fun n r -> n + r.rows) 0 rs in
    let undecided =
      List.length (List.filter (fun e -> e.undecided) e)
      + List.fold_left (fun n r -> n + r.rows_imprecise) 0 rs
    in
    Stats.ratio (float_of_int (total - undecided)) (float_of_int total)
  in
  Stats.med "decided_share" "fraction" (List.map decided un);
  Stats.count "peak_rss_mb" "MB" (Stats.peak_rss_mb 0);
  Stats.pass_pair ~p50:"txn_p50_us" ~p99:"txn_p99_us" "us"
    (List.map (fun p -> List.map (fun e -> Stats.us_of_ns e.ns) (enums_of p)) un);
  Stats.med "commits_per_s" "1/s"
    (List.map (fun p -> float_of_int (List.length (enums_of p)) /. Bench.wall p) un);
  Stats.pass_pair ~p50:"p50_ms" ~p99:"p99_ms" "ms"
    (List.map (fun p -> List.map (fun r -> Stats.ms_of_ns r.op_ns) (results p)) un);
  Stats.med "max_rate_rps" "1/s"
    (List.map (fun p -> float_of_int (List.length (results p)) /. Bench.wall p) un);
  (* per layer, traced *)
  if b.trace then begin
    let tr = Bench.traced ps in
    Bench.overhead ~untraced:(Stats.median (List.map Bench.wall un))
      ~traced:(Stats.median (List.map Bench.wall tr));
    Stats.lat "litmus.parse_us" "us" (List.map (( *. ) 1e6) (Bench.span_durations tr "litmus.parse"));
    Stats.lat "lang.digest_us" "us" (List.map (( *. ) 1e6) (Bench.span_durations tr "lang.digest"));
    Stats.lat "analysis.lint_us" "us" (List.map (( *. ) 1e6) (Bench.span_durations tr "analysis.lint"));
    let per f = Bench.per_traced ps f in
    Stats.count "exec.enumerate_s" "s" (per (fun p -> Bench.span_total p "exec.enumerate"));
    let esum f p = float_of_int (List.fold_left (fun n e -> n + f e) 0 (enums_of p)) in
    let graphs = per (esum (fun e -> e.graphs)) in
    let explored = per (esum (fun e -> e.explored)) in
    Stats.count "exec.graphs" "count" graphs;
    Stats.count "exec.explored" "count" explored;
    Stats.count "exec.explored_ratio" "fraction" (Stats.ratio explored graphs);
    Stats.count "exec.frontier_s" "s"
      (per (fun p -> Stats.s_of_ns (List.fold_left (fun n r -> n + r.frontier_ns) 0 (results p))));
    Stats.count "exec.capped" "count"
      (per (esum (fun e -> if e.undecided then 1 else 0)));
    Stats.count "analysis.repair_s" "s" (per (fun p -> Bench.span_total p "analysis.repair"));
    let rsum f p =
      float_of_int
        (List.fold_left (fun n r -> match r.repair with Some x -> n + f x | None -> n) 0 (results p))
    in
    Stats.count "analysis.repair_candidates" "count" (per (rsum fst));
    Stats.count "analysis.repair_oracle_calls" "count" (per (rsum snd));
    Stats.count "arch.rows_s" "s" (per (fun p -> Bench.span_total p "arch.rows"));
    Stats.count "arch.gap_programs" "count"
      (per (fun p -> float_of_int (List.length (List.filter (fun r -> r.gap) (results p)))));
    (* the service layer answering these programs over the network *)
    ignore (Wserve.layers b ~pool:(Wserve.make_pool ()))
  end

(* Regenerate the stored frontier outcome sets from the unreduced
   reference enumerator (run once, by hand, when a frontier program
   changes). *)
let write_expected () =
  List.iter
    (fun f ->
      let name = Filename.remove_extension (Filename.basename f) in
      let l = Parse.parse (read_file f) in
      let r =
        Enumerate.run
          ~config:{ Enumerate.default_config with reduction = Enumerate.No_reduction }
          Model.programmer l.program
      in
      let set = outcome_set r in
      let oc = open_out (expected_file name) in
      List.iter (fun k -> output_string oc (k ^ "\n")) set;
      close_out oc;
      Printf.printf "%s: %d outcomes\n" name (List.length set))
    (litmus_files frontier_dir)
