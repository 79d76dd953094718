(* simulate: the operational layers.  A pass is the `tmx stm --all`
   sweep: every catalog program under the four Stmsim strategies, with
   Sc as the anomaly reference and the enumerator's im outcomes as the
   soundness reference, plus Machine.run.  After the passes, a seeded
   draw of Gen.mixed programs goes through the stmsim-enum,
   machine-enum and enum-naive oracles.  Their cost spans four orders
   of magnitude from one program to the next (1 ms to 55 s on a 2-vCPU
   Xeon VM), so they are checked in every run and timed in the traced
   run, but kept out of wall_s, which must not depend on the seed.
   Closed loop, one domain. *)

open Tmx_core
open Tmx_exec
open Tmx_litmus
module S = Tmx_stmsim.Stmsim

let strategies = S.[ Lazy; Eager; Partial; Norec ]
let generated_count = 4

(* the generated-program checks stop this long after the run started *)
let budget_ns = 160_000_000_000
let oracle_names = [ "enum-naive"; "stmsim-enum"; "machine-enum" ]

type sim = { strategy : S.strategy; result : S.result; sim_ns : int }

(* what a pass keeps: counts and flags, not the executions *)
type program_result = {
  enum : Enumerate.result;  (* executions dropped *)
  sims : sim list;
  machine : Tmx_machine.Machine.result;
  sc_truncated : bool;
  runs_ns : int list;  (* every bounded run of the program *)
  op_ns : int;
  anomalies : (S.strategy * int) list;
}

let timed name f =
  Bench.time (fun () -> Span.with_ name f)

let run_program b (l : Litmus.t) =
  (* each program starts from a compacted heap, so its timings do not
     carry the garbage of a capped run before it *)
  Gc.compact ();
  let t0 = Bench.now_ns () in
  let p = l.program in
  let fail = ref [] in
  let expect ok what = if not ok then fail := what :: !fail in
  let enum, enum_ns =
    timed "exec.enumerate" (fun () -> Enumerate.run Model.implementation p)
  in
  let im = Enumerate.outcomes enum in
  let sc, sc_ns = timed "exec.sc" (fun () -> Sc.run p) in
  let sc_outcomes = Sc.outcomes sc in
  let sims =
    List.map
      (fun strategy ->
        let config = { S.default_config with strategy } in
        let result, sim_ns =
          timed ("stmsim.run." ^ S.strategy_name strategy) (fun () -> S.run ~config p)
        in
        (* eager is documented unsound (Example 3.4): not held to im *)
        if strategy <> S.Eager then
          expect (Outcome.subset result.outcomes im)
            (S.strategy_name strategy ^ " outcome outside the axiomatic im");
        { strategy; result; sim_ns })
      strategies
  in
  let machine, machine_ns = timed "machine.run" (fun () -> Tmx_machine.Machine.run p) in
  expect (Outcome.subset machine.outcomes im) "machine outcome outside the axiomatic im";
  if not (machine.capped || machine.truncated || enum.capped || enum.truncated) then
    expect (Outcome.subset im machine.outcomes) "axiomatic im outcome unreachable by the machine";
  let undecided what = Bench.cap b (Printf.sprintf "%s: %s" l.name what) in
  if enum.capped || enum.truncated then undecided "enumeration capped or truncated";
  if sc.truncated then undecided "sc truncated";
  if machine.capped then undecided "machine capped";
  if machine.truncated then undecided "machine truncated";
  List.iter
    (fun s ->
      let n = S.strategy_name s.strategy in
      if s.result.capped then
        undecided (Printf.sprintf "stmsim %s capped at %d schedules" n s.result.paths);
      if s.result.fuel_exhausted then undecided (Printf.sprintf "stmsim %s fuel_exhausted" n);
      if s.result.retries_exhausted then
        undecided (Printf.sprintf "stmsim %s retries_exhausted" n))
    sims;
  Bench.check b (!fail = []) (Printf.sprintf "%s: %s" l.name (String.concat "; " !fail));
  {
    enum = { enum with executions = [] };
    sims;
    machine;
    sc_truncated = sc.truncated;
    runs_ns = enum_ns :: sc_ns :: machine_ns :: List.map (fun s -> s.sim_ns) sims;
    op_ns = Bench.now_ns () - t0;
    anomalies =
      List.map
        (fun s -> (s.strategy, List.length (Outcome.diff s.result.outcomes sc_outcomes)))
        sims;
  }

let decided r =
  let bad = ref 0 in
  if r.enum.capped || r.enum.truncated then incr bad;
  if r.sc_truncated then incr bad;
  if r.machine.capped || r.machine.truncated then incr bad;
  List.iter (fun s -> if s.result.capped || s.result.truncated then incr bad) r.sims;
  (List.length r.runs_ns - !bad, List.length r.runs_ns)

let generate seed =
  List.init generated_count (fun i ->
      Span.with_ "fuzz.gen" (fun () ->
          Tmx_fuzz.Gen.program
            ~name:(Printf.sprintf "gen%d" i)
            Tmx_fuzz.Gen.mixed
            (Tmx_fuzz.Gen.state_of_seed ~seed ~index:i)))

(* bytes from [fd] until end of file or the deadline (monotonic ns) *)
let read_until fd ~deadline =
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec go () =
    let left = Stats.s_of_ns (deadline - Bench.now_ns ()) in
    if left <= 0.0 then `Timeout
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> `Timeout
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> `Eof
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              go ())
  in
  let r = go () in
  (r, Buffer.contents buf)

(* The oracles run in a child process per program, so a program whose
   checks outlast the run's time budget is stopped and listed as
   inconclusive instead of stalling the run.  Each check reports back
   one line: oracle, nanoseconds, verdict. *)
let check_generated b programs ~deadline =
  let oracle_ns = Hashtbl.create 3 in
  List.iter
    (fun (p : Tmx_lang.Ast.program) ->
      let r, w = Unix.pipe ~cloexec:true () in
      flush_all ();
      match Unix.fork () with
      | 0 ->
          Unix.close r;
          let ctx = Tmx_fuzz.Oracle.make_ctx ~jobs:2 ~seed:b.Bench.seed () in
          let oc = Unix.out_channel_of_descr w in
          List.iter
            (fun name ->
              let o = Option.get (Tmx_fuzz.Oracle.by_name name) in
              let v, ns = Bench.time (fun () -> o.check ctx p) in
              Printf.fprintf oc "%s %d %s\n%!" name ns
                (match v with Tmx_fuzz.Oracle.Pass -> "pass" | Fail m -> "FAIL " ^ m))
            oracle_names;
          Unix._exit 0
      | pid ->
          Unix.close w;
          let outcome, text = read_until r ~deadline in
          Unix.close r;
          if outcome = `Timeout then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid);
          let lines = String.split_on_char '\n' text |> List.filter (( <> ) "") in
          let seen =
            List.map
              (fun line ->
                Scanf.sscanf line "%s %d %[^\n]" (fun name ns verdict ->
                    Printf.printf "generated %s %-12s %8.3f s %s\n" p.name name
                      (Stats.s_of_ns ns) verdict;
                    Hashtbl.replace oracle_ns name
                      (ns + Option.value ~default:0 (Hashtbl.find_opt oracle_ns name));
                    Bench.check b (verdict = "pass")
                      (Printf.sprintf "%s: oracle %s: %s" p.name name verdict);
                    name))
              lines
          in
          List.iter
            (fun name ->
              if not (List.mem name seen) then
                Bench.cap b (Printf.sprintf "%s: oracle %s stopped at the run's time budget" p.name name))
            oracle_names)
    programs;
  oracle_ns

let run (b : Bench.t) =
  Span.enabled := b.trace;
  (* set-up: draw the programs, then warm up on the sweep's two
     references for every catalog program *)
  let generated =
    Bench.setup ~times:9 (fun () ->
        List.iter
          (fun (l : Litmus.t) ->
            ignore (Sc.run l.program);
            ignore (Enumerate.run Model.implementation l.program))
          Catalog.all;
        generate b.seed)
  in
  Span.enabled := false;
  let ps = Bench.passes b (fun () -> List.map (run_program b) Catalog.all) in
  let results (_, _, _, r) = r in
  (* the anomaly table of the first pass, as `tmx stm --all` prints it *)
  (match ps with
  | (_, _, _, rs) :: _ ->
      List.iter
        (fun s ->
          let with_anomalies =
            List.filter (fun r -> List.assoc s r.anomalies > 0) rs |> List.length
          in
          Printf.printf "stmsim %-7s programs with anomalies vs sc: %d of %d\n"
            (S.strategy_name s) with_anomalies (List.length rs))
        strategies
  | [] -> ());
  let oracle_ns, gen_ns =
    Bench.time (fun () -> check_generated b generated ~deadline:(b.started + budget_ns))
  in
  Printf.printf "generated programs: %d, oracle time %.3f s\n" generated_count
    (Stats.s_of_ns gen_ns);
  let un = Bench.untraced ps in
  Stats.med "wall_s" "s" (List.map Bench.wall un);
  Stats.med "decided_share" "fraction"
    (List.map
       (fun p ->
         let d, t =
           List.fold_left
             (fun (d, t) r ->
               let d', t' = decided r in
               (d + d', t + t'))
             (0, 0) (results p)
         in
         Stats.ratio (float_of_int d) (float_of_int t))
       un);
  Stats.count "peak_rss_mb" "MB" (Stats.peak_rss_mb 0);
  let runs p = List.concat_map (fun r -> r.runs_ns) (results p) in
  Stats.pass_pair ~p50:"txn_p50_us" ~p99:"txn_p99_us" "us"
    (List.map (fun p -> List.map Stats.us_of_ns (runs p)) un);
  Stats.med "commits_per_s" "1/s"
    (List.map (fun p -> float_of_int (List.length (runs p)) /. Bench.wall p) un);
  Stats.pass_pair ~p50:"p50_ms" ~p99:"p99_ms" "ms"
    (List.map (fun p -> List.map (fun r -> Stats.ms_of_ns r.op_ns) (results p)) un);
  Stats.med "max_rate_rps" "1/s"
    (List.map (fun p -> float_of_int (List.length (results p)) /. Bench.wall p) un);
  if b.trace then begin
    let tr = Bench.traced ps in
    Bench.overhead ~untraced:(Stats.median (List.map Bench.wall un))
      ~traced:(Stats.median (List.map Bench.wall tr));
    let per f = Bench.per_traced ps f in
    let count name f =
      Stats.count name "count"
        (per (fun p -> float_of_int (List.fold_left (fun n r -> n + f r) 0 (results p))))
    in
    List.iter
      (fun s ->
        let n = S.strategy_name s in
        let mine r = List.find (fun x -> x.strategy = s) r.sims in
        Stats.count ("stmsim.run_s." ^ n) "s" (per (fun p -> Bench.span_total p ("stmsim.run." ^ n)));
        count ("stmsim.explored." ^ n) (fun r -> (mine r).result.paths);
        count ("stmsim.capped." ^ n) (fun r -> if (mine r).result.capped then 1 else 0))
      strategies;
    let paths = per (fun p -> float_of_int (List.fold_left (fun n r -> List.fold_left (fun n s -> n + s.result.paths) n r.sims) 0 (results p))) in
    let sim_s =
      per (fun p ->
          Stats.sum (List.map (fun s -> Bench.span_total p ("stmsim.run." ^ S.strategy_name s)) strategies))
    in
    Stats.count "stmsim.explored_per_s" "1/s" (Stats.ratio paths sim_s);
    Stats.count "machine.run_s" "s" (per (fun p -> Bench.span_total p "machine.run"));
    count "machine.states" (fun r -> r.machine.states);
    count "machine.capped" (fun r -> if r.machine.capped then 1 else 0);
    Stats.count "exec.sc_s" "s" (per (fun p -> Bench.span_total p "exec.sc"));
    Stats.count "exec.enumerate_s" "s" (per (fun p -> Bench.span_total p "exec.enumerate"));
    let graphs = per (fun p -> float_of_int (List.fold_left (fun n r -> n + r.enum.graphs) 0 (results p))) in
    let explored = per (fun p -> float_of_int (List.fold_left (fun n r -> n + r.enum.explored) 0 (results p))) in
    Stats.count "exec.graphs" "count" graphs;
    Stats.count "exec.explored" "count" explored;
    Stats.count "exec.explored_ratio" "fraction" (Stats.ratio explored graphs);
    count "exec.capped" (fun r -> if r.enum.capped || r.enum.truncated then 1 else 0);
    let spans name = List.map Span.seconds (List.filter (fun (s : Span.t) -> s.name = name) (Span.all ())) in
    Stats.lat "fuzz.gen_us" "us" (List.map (( *. ) 1e6) (spans "fuzz.gen"));
    List.iter
      (fun name ->
        Stats.count ("fuzz.oracle_s." ^ name) "s"
          (Stats.s_of_ns (Option.value ~default:0 (Hashtbl.find_opt oracle_ns name))))
      oracle_names
  end
