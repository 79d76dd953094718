(* The tmx benchmark.  Run from the repository root, through run.sh:

     bash perfbench/run.sh --workload catalog --seed 1 --seconds 10 --trace 0

   With --trace 0 it measures the end-to-end metrics with tracing off;
   with --trace 1 it records spans around the calls into each layer and
   reports the per-layer metrics and the tracing overhead instead.  The
   last line of standard output is the result: correct, attempted,
   failed and the metrics.  The line before it is the full record: host
   fingerprint, and per metric its sample count, median and quartiles.
   README.md describes the workloads and what every metric means on
   each of them. *)

type metric = { name : string; unit_ : string; better : string }

let m name unit_ better = { name; unit_; better }
let lower = "lower"
let higher = "higher"

let end_to_end =
  [
    m "setup_s" "s" lower;
    m "wall_s" "s" lower;
    m "decided_share" "fraction" higher;
    m "peak_rss_mb" "MB" lower;
    m "commits_per_s" "1/s" higher;
    m "txn_p50_us" "us" lower;
    m "txn_p99_us" "us" lower;
    m "p50_ms" "ms" lower;
    m "p99_ms" "ms" lower;
    m "max_rate_rps" "1/s" higher;
  ]

let pct name unit_ = [ m (name ^ ".p50") unit_ lower; m (name ^ ".p99") unit_ lower ]
let each names f = List.map f names
let strategies = [ "lazy"; "eager"; "partial"; "norec" ]

let per_layer =
  List.concat
    [
      pct "litmus.parse_us" "us";
      pct "lang.digest_us" "us";
      [
        m "exec.enumerate_s" "s" lower;
        m "exec.graphs" "count" lower;
        m "exec.explored" "count" lower;
        m "exec.explored_ratio" "fraction" lower;
        m "exec.frontier_s" "s" lower;
        m "exec.capped" "count" lower;
        m "exec.sc_s" "s" lower;
      ];
      pct "analysis.lint_us" "us";
      [
        m "analysis.repair_s" "s" lower;
        m "analysis.repair_candidates" "count" lower;
        m "analysis.repair_oracle_calls" "count" lower;
        m "arch.rows_s" "s" lower;
        m "arch.gap_programs" "count" lower;
      ];
      each strategies (fun s -> m ("stmsim.run_s." ^ s) "s" lower);
      each strategies (fun s -> m ("stmsim.explored." ^ s) "count" lower);
      [ m "stmsim.explored_per_s" "1/s" higher ];
      each strategies (fun s -> m ("stmsim.capped." ^ s) "count" lower);
      [
        m "machine.run_s" "s" lower;
        m "machine.states" "count" lower;
        m "machine.capped" "count" lower;
      ];
      pct "fuzz.gen_us" "us";
      each Wsimulate.oracle_names (fun o -> m ("fuzz.oracle_s." ^ o) "s" lower);
      each strategies (fun s -> m ("runtime.commits_per_s." ^ s) "1/s" higher);
      each strategies (fun s -> m ("runtime.commit_ratio." ^ s) "fraction" higher);
      [
        m "runtime.aborts.validation" "count" lower;
        m "runtime.aborts.lock" "count" lower;
        m "runtime.partial_aborts" "count" lower;
        m "runtime.escalations" "count" lower;
      ];
      pct "runtime.quiesce_us" "us";
      [ m "runtime.retries_p99" "count" lower ];
      pct "service.ping_ms" "ms";
      List.concat_map (fun v -> pct ("service.roundtrip_ms." ^ v) "ms") Wserve.verbs;
      pct "service.hit_ms" "ms";
      pct "service.miss_ms" "ms";
      [ m "service.hit_rate" "fraction" higher ];
      pct "service.compute_ms" "ms";
      pct "service.cache_find_us" "us";
      [
        m "service.backlog" "count" lower;
        m "service.sheds" "count" lower;
        m "service.errors" "count" lower;
      ];
      pct "loadgen.lateness_ms" "ms";
      [
        m "trace.overhead_s" "s" lower;
        m "trace.overhead_share" "fraction" lower;
        m "failed_share" "fraction" lower;
      ];
    ]

let workloads =
  [
    ("catalog", Wcatalog.run);
    ("simulate", Wsimulate.run);
    ("runtime", Wruntime.run);
    ("serve", Wserve.run);
  ]

(* serve runs by hand only: on the 2-vCPU host the benchmark was built
   on, its nominal-rate p50 and p99 moved by 60-300% between runs of one
   seed (README.md); its layer metrics ride on the catalog traced run *)
let listed = [ "catalog"; "simulate"; "runtime" ]

(* BENCHMARK.json must describe exactly what this program reports *)
let check_manifest () =
  let open Tmx_service.Json in
  let text =
    try
      let ic = open_in_bin "BENCHMARK.json" in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
    with Sys_error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let j = match of_string text with Ok j -> j | Error e -> failwith ("BENCHMARK.json: " ^ e) in
  let names key =
    Option.bind (mem key j) to_list
    |> Option.value ~default:[]
    |> List.map (fun e ->
           let field k = Option.bind (mem k e) to_str |> Option.value ~default:"" in
           (field "name", field "unit", field "better"))
  in
  let ours l = List.map (fun x -> (x.name, x.unit_, x.better)) l in
  if names "end_to_end" <> ours end_to_end || names "per_layer" <> ours per_layer then
    failwith "BENCHMARK.json does not list the metrics this benchmark reports";
  let wl = Option.bind (mem "workloads" j) to_list |> Option.value ~default:[] in
  let wnames = List.map (fun e -> Option.bind (mem "name" e) to_str |> Option.value ~default:"") wl in
  if wnames <> listed then
    failwith "BENCHMARK.json does not list this benchmark's workloads"

let num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_str s = Tmx_service.Json.to_string (Tmx_service.Json.str s)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let write_expected = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME catalog, simulate, runtime or serve");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ( "--write-frontier-expected",
        Arg.Set write_expected,
        " regenerate perfbench/frontier/*.expected from the unreduced enumerator" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !write_expected then (Wcatalog.write_expected (); exit 0);
  check_manifest ();
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None -> raise (Arg.Bad ("unknown workload " ^ !workload))
  in
  if !trace <> 0 && !trace <> 1 then raise (Arg.Bad "--trace takes 0 or 1");
  let traced = !trace = 1 in
  let b = Bench.make ~seed:!seed ~seconds:!seconds ~trace:traced in
  run b;
  Stats.count "failed_share" "fraction"
    (Stats.ratio (float_of_int b.failed) (float_of_int b.attempted));
  let wanted = if traced then per_layer else end_to_end in
  let reported =
    List.map
      (fun (x : metric) ->
        match Hashtbl.find_opt Stats.table x.name with
        | Some r -> r
        | None when traced ->
            (* the layer does no work on this workload *)
            {
              Stats.name = x.name;
              unit_ = x.unit_;
              value = 0.0;
              summary = { n = 0; median = 0.0; q1 = 0.0; q3 = 0.0; p99 = 0.0 };
            }
        | None -> failwith ("end-to-end metric not measured: " ^ x.name))
      wanted
  in
  (* the human-readable report *)
  Printf.printf "workload %s, seed %d, %.1f s, trace %d\n" !workload !seed !seconds !trace;
  List.iter
    (fun (r : Stats.metric) ->
      Printf.printf "  %-34s %16.6f %-8s (n=%d, q1 %.6g, q3 %.6g)\n" r.name r.value r.unit_
        r.summary.n r.summary.q1 r.summary.q3)
    reported;
  List.iter (fun c -> Printf.printf "capped or truncated: %s\n" c) (List.rev b.caps);
  List.iter (fun f -> Printf.printf "FAILED: %s\n" f) (List.rev b.failures);
  Printf.printf "checked %d, failed %d\n" b.attempted b.failed;
  if traced then begin
    Printf.printf "self time by span (s):\n";
    List.iter
      (fun (name, n, t) -> Printf.printf "  %-30s %8d %12.6f\n" name n t)
      (Span.self_times ())
  end;
  (* the full record, also written under .perfbench/ *)
  let metric_json (r : Stats.metric) =
    Printf.sprintf
      "{\"name\":%s,\"unit\":%s,\"value\":%s,\"samples\":%d,\"median\":%s,\"q1\":%s,\"q3\":%s}"
      (json_str r.name) (json_str r.unit_) (num r.value) r.summary.n (num r.summary.median)
      (num r.summary.q1) (num r.summary.q3)
  in
  let record =
    Printf.sprintf
      "{\"record\":{\"benchmark\":\"perfbench\",\"workload\":%s,\"seed\":%d,\"seconds\":%s,\"trace\":%d,\"host\":%s,\"metrics\":[%s],\"capped\":[%s],\"failures\":[%s]}}"
      (json_str !workload) !seed (num !seconds) !trace
      (Tmx_service.Json.to_string (Host.fingerprint ()))
      (String.concat "," (List.map metric_json reported))
      (String.concat "," (List.map json_str (List.rev b.caps)))
      (String.concat "," (List.map json_str (List.rev b.failures)))
  in
  Wserve.mkdir_p Wserve.work_dir;
  let base = Printf.sprintf "%s/%s-seed%d-trace%d" Wserve.work_dir !workload !seed !trace in
  let oc = open_out (base ^ ".json") in
  output_string oc (record ^ "\n");
  close_out oc;
  if traced then Span.write_chrome (base ^ ".trace.json");
  print_endline record;
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (b.failed = 0) (max 1 b.attempted) b.failed
    (String.concat ","
       (List.map
          (fun (r : Stats.metric) ->
            Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_str r.name) (num r.value)
              (json_str r.unit_))
          reported))
