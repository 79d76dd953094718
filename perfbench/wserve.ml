(* serve: the query service as a client sees it.  A fresh `tmx serve`
   per run (one shard, a fresh cache directory), driven open loop by a
   seeded Zipf stream with mixed verbs (Loadgen.request) at a fixed
   ladder of arrival rates, from light load to past saturation.  Each
   request is timed from its scheduled arrival; how late the generator
   itself sent is reported beside it.  At most one connection, on its
   own domain, per core.

   The pool is the catalog by name (Loadgen.pool) plus seeded copies of
   catalog programs with every location renamed: each copy is a distinct
   cache key whose miss costs what its original costs, so misses go on
   for the whole run at a cost no seed can blow up.  Fuzzer-generated
   programs cannot serve here: among 1000 Gen.mixed programs one miss
   took 11.8 s and another over 88 s, and either stalls a connection
   for the rest of the ladder. *)

open Tmx_service

let tmx = "_build/default/bin/tmx.exe"
let work_dir = ".perfbench"
(* the ladder: arrival rate (1/s) and share of the measuring time; the
   nominal rate gets half of it, so its p50 and p99 rest on thousands
   of requests *)
let ladder = [| (250.0, 0.5); (500.0, 0.1); (1000.0, 0.15); (2000.0, 0.15); (8000.0, 0.1) |]
let rates = Array.map fst ladder
let nominal = 0 (* index of the rate p50_ms and p99_ms are read at *)
let limit_ms = 500.0 (* the p99 a ladder step must meet *)
let copies = 1000
let verbs = [ "races"; "outcomes"; "check"; "lint" ]

(* -- the server process ------------------------------------------------ *)

type server = { pid : int; addr : Client.addr; dir : string; stdout : in_channel }

let live = ref []

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let spawn k =
  if not (Sys.file_exists tmx) then failwith (tmx ^ " is not built");
  let dir = Printf.sprintf "%s/serve-%d-%d" work_dir (Unix.getpid ()) k in
  rm_rf dir;
  mkdir_p dir;
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let err =
    Unix.openfile (Filename.concat dir "stderr.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let pid =
    Unix.create_process tmx
      [| tmx; "serve"; "-s"; "tcp:127.0.0.1:0"; "--shards"; "1"; "--cache-dir";
         Filename.concat dir "cache" |]
      devnull out_w err
  in
  live := pid :: !live;
  List.iter Unix.close [ out_w; devnull; err ];
  let stdout = Unix.in_channel_of_descr out_r in
  let line = try input_line stdout with End_of_file -> "" in
  let prefix = "listening " in
  let n = String.length prefix in
  if String.length line <= n || String.sub line 0 n <> prefix then
    failwith ("tmx serve did not start: " ^ line);
  match Client.addr_of_string (String.sub line n (String.length line - n)) with
  | Ok addr -> { pid; addr; dir; stdout }
  | Error e -> failwith e

(* -- the target pool ---------------------------------------------------- *)

let rename_program suffix (p : Tmx_lang.Ast.program) =
  let open Tmx_lang.Ast in
  let loc s =
    match String.index_opt s '[' with
    | Some i -> String.sub s 0 i ^ suffix ^ String.sub s i (String.length s - i)
    | None -> s ^ suffix
  in
  let lval (l : lval) = { l with base = loc l.base } in
  let rec stmt = function
    | Load (r, l) -> Load (r, lval l)
    | Store (l, e) -> Store (lval l, e)
    | Atomic b -> Atomic (List.map stmt b)
    | If (c, a, b) -> If (c, List.map stmt a, List.map stmt b)
    | While (c, b) -> While (c, List.map stmt b)
    | Fence x -> Fence (loc x)
    | (Assign _ | Abort | Skip) as s -> s
  in
  { p with locs = List.map loc p.locs; threads = List.map (List.map stmt) p.threads }

let make_pool () =
  let catalog = Loadgen.pool { Loadgen.default_config with generated = 0 } in
  let programs = Array.of_list Tmx_litmus.Catalog.all in
  (* copy i is of catalog program i mod 33: every seed's pool holds the
     same mix of cheap and costly misses, the stream decides the order *)
  let copy i =
    let (l : Tmx_litmus.Litmus.t) = programs.(i mod Array.length programs) in
    let p = rename_program (Printf.sprintf "_v%d" i) l.program in
    Loadgen.By_source (Tmx_litmus.Export.program_to_string { p with name = l.name ^ "_v" ^ string_of_int i })
  in
  Array.append catalog (Array.init copies copy)

let ping = Json.Obj [ ("verb", Json.str "ping") ]

let connect s =
  match Client.connect ~wait_s:10.0 s.addr with
  | Ok c -> c
  | Error e -> failwith ("connect: " ^ e)

let reap pid =
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        go ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  live := List.filter (( <> ) pid) !live

let stop s =
  ignore (Client.request ~wait_s:1.0 ~addr:s.addr (Json.Obj [ ("verb", Json.str "shutdown") ]));
  reap s.pid;
  close_in_noerr s.stdout;
  rm_rf s.dir

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* set-up: spawn to first pong, then warm-up pings *)
let start k =
  let s = spawn k in
  let c = connect s in
  (match Client.roundtrip c ping with
  | Ok r when Protocol.response_ok r -> ()
  | _ -> failwith "no pong");
  for _ = 1 to 50 do
    ignore (Client.roundtrip c ping)
  done;
  (* let the cache fill with the catalog, the pool's hottest ranks *)
  List.iter
    (fun (l : Tmx_litmus.Litmus.t) ->
      List.iter
        (fun verb ->
          match Client.roundtrip c (Json.Obj [ ("verb", Json.str verb); ("name", Json.str l.name) ]) with
          | Ok r when Protocol.response_ok r -> ()
          | _ -> failwith ("warm-up " ^ verb ^ " " ^ l.name ^ " failed"))
        verbs)
    Tmx_litmus.Catalog.all;
  Client.close c;
  s

(* -- the open-loop ladder ---------------------------------------------- *)

type req = {
  index : int;
  step : int;
  due : int;  (* scheduled arrival, ns *)
  mutable send : int;
  mutable reply : int;
  mutable lateness : int;  (* generator oversleep, ns *)
  mutable ok : bool;
  mutable shed : bool;
  mutable error : bool;
  mutable cached : bool;
  mutable decided : bool;
  mutable payload : string;  (* digest of the answer minus cached/id *)
  verb : string;
  target : int;  (* pool rank *)
  json : Json.t;
}

let payload_digest j =
  match j with
  | Json.Obj fields ->
      Digest.to_hex
        (Digest.string
           (Json.to_string
              (Json.Obj (List.filter (fun (k, _) -> k <> "cached" && k <> "id") fields))))
  | _ -> ""

let flag name j = Option.value ~default:false (Option.bind (Json.mem name j) Json.to_bool)

(* the request stream: Loadgen's, with one exponential arrival schedule
   per ladder step *)
let schedule ~seed ~seconds ~(cfg : Loadgen.config) ~cum ~targets t0 =
  let start = ref 0.0 in
  let reqs = ref [] and index = ref 0 in
  let rank = Hashtbl.create (Array.length targets) in
  Array.iteri (fun i t -> Hashtbl.replace rank t i) targets;
  Array.iteri
    (fun k (rate, share) ->
      let step_s = share *. seconds in
      let offs =
        Loadgen.arrivals { cfg with seed = seed + (k * 7919); rate }
          ~n:(int_of_float (rate *. step_s *. 1.5) + 32)
      in
      Array.iter
        (fun a ->
          if a < step_s then begin
            let r = Loadgen.request cfg ~cum ~targets !index in
            let target =
              Hashtbl.find rank
                (match r.Protocol.name with
                | Some n -> Loadgen.By_name n
                | None -> Loadgen.By_source (Option.value ~default:"" r.program))
            in
            reqs :=
              {
                index = !index;
                step = k;
                due = t0 + int_of_float ((!start +. a) *. 1e9);
                send = 0;
                reply = 0;
                lateness = 0;
                ok = false;
                shed = false;
                error = false;
                cached = false;
                decided = true;
                payload = "";
                verb = r.verb;
                target;
                json = Protocol.to_json r;
              }
              :: !reqs;
            incr index
          end)
        offs;
      start := !start +. step_s)
    ladder;
  Array.of_list (List.rev !reqs)

let drive s reqs ~conns =
  let worker d () =
    let c = connect s in
    let prev = ref 0 in
    Array.iter
      (fun r ->
        if r.index mod conns = d then begin
          let wait = r.due - Bench.now_ns () in
          if wait > 0 then Unix.sleepf (float_of_int wait *. 1e-9);
          let send = Bench.now_ns () in
          r.send <- send;
          r.lateness <- send - max r.due !prev;
          (match
             Span.with_ ("service.roundtrip." ^ r.verb) (fun () -> Client.roundtrip c r.json)
           with
          | Ok j ->
              r.shed <- Protocol.response_overloaded j;
              r.ok <- Protocol.response_ok j;
              r.cached <- flag "cached" j;
              r.decided <- not (flag "capped" j || flag "truncated" j);
              r.payload <- payload_digest j
          | Error _ -> r.error <- true);
          r.reply <- Bench.now_ns ();
          prev := r.reply
        end)
      reqs;
    Client.close c
  in
  let ds = List.init conns (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join ds

type ladder = {
  reqs : req array;
  t0 : int;
  seconds : float;
  rss_mb : float;
}

let run_ladder b s ~pool =
  let cfg = { Loadgen.default_config with seed = b.Bench.seed } in
  let targets = pool in
  let cum = Loadgen.zipf_cumulative ~skew:cfg.skew (Array.length targets) in
  let t0 = Bench.now_ns () + 50_000_000 in
  let reqs = schedule ~seed:b.seed ~seconds:b.seconds ~cfg ~cum ~targets t0 in
  let conns = max 1 (min 2 (Domain.recommended_domain_count ())) in
  drive s reqs ~conns;
  { reqs; t0; seconds = b.seconds; rss_mb = Stats.peak_rss_mb s.pid }

let step_s l k = snd ladder.(k) *. l.seconds

let step_end l k =
  let e = ref 0.0 in
  for j = 0 to k do
    e := !e +. step_s l j
  done;
  l.t0 + int_of_float (!e *. 1e9)
let in_step l k = List.filter (fun r -> r.step = k) (Array.to_list l.reqs)
let from_due r = Stats.ms_of_ns (r.reply - r.due)

let backlog l k =
  let e = step_end l k in
  Array.fold_left (fun n r -> if r.due <= e && r.reply > e then n + 1 else n) 0 l.reqs

type step = { rate : float; achieved : float; p99 : float; backlog : int; passed : bool }

let steps l =
  Array.to_list
    (Array.mapi
       (fun k rate ->
         let rs = in_step l k in
         let answered = List.filter (fun r -> r.ok) rs in
         let p99 = (Stats.summarize (List.map from_due rs)).p99 in
         let backlog = backlog l k in
         let clean = List.for_all (fun r -> r.ok && not (r.shed || r.error)) rs in
         {
           rate;
           achieved = float_of_int (List.length answered) /. step_s l k;
           p99;
           backlog;
           passed = clean && p99 <= limit_ms && float_of_int backlog <= rate *. limit_ms /. 1000.0;
         })
       rates)

(* every answer ok, and the same payload for a request hit or miss *)
let check_answers b l =
  let first = Hashtbl.create 1024 in
  Array.iter
    (fun r ->
      let key = (r.target, r.verb) in
      let same =
        match Hashtbl.find_opt first key with
        | None ->
            Hashtbl.add first key r.payload;
            true
        | Some p -> p = r.payload
      in
      Bench.check b
        (r.ok && same)
        (if r.error then "transport failure"
         else if r.shed then "shed response"
         else if not r.ok then Printf.sprintf "%s on target %d: error response" r.verb r.target
         else Printf.sprintf "%s on target %d: hit and miss answers differ" r.verb r.target))
    l.reqs

(* the nominal step cut into one-second windows *)
let nominal_windows l =
  let rs = in_step l nominal in
  let start = step_end l nominal - int_of_float (step_s l nominal *. 1e9) in
  let n = max 1 (int_of_float (step_s l nominal)) in
  List.init n (fun w ->
      List.filter (fun r -> min (n - 1) ((r.due - start) / 1_000_000_000) = w) rs)

let nominal_due l = List.map from_due (in_step l nominal)

let report_ladder l =
  List.iteri
    (fun w rs ->
      let s = Stats.summarize (List.map from_due rs) in
      Printf.printf "serve nominal window %d: %d requests  p50 %.3f ms  p99 %.3f ms\n" w s.n s.median s.p99)
    (nominal_windows l);
  List.iter
    (fun st ->
      Printf.printf "serve rate %6.0f/s: achieved %7.1f/s  p99 %8.3f ms  backlog %5d  %s\n" st.rate
        st.achieved st.p99 st.backlog
        (if st.passed then "meets limit" else "misses limit"))
    (steps l)

let program_of_target = function
  | Loadgen.By_name n -> (Option.get (Tmx_litmus.Catalog.find n)).program
  | Loadgen.By_source s -> (Tmx_litmus.Parse.parse s).program

(* in-process: the cache-miss path on the programs that missed, and the
   cache lookup on a warm cache *)
let in_process ~pool l =
  let missed = Hashtbl.create 64 in
  Array.iter
    (fun r -> if r.ok && (not r.cached) && r.verb <> "lint" then Hashtbl.replace missed r.target ())
    l.reqs;
  let ranks = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) missed []) in
  let ranks = List.filteri (fun i _ -> i < 100) ranks in
  let config = Tmx_exec.Enumerate.default_config in
  let model = Tmx_core.Model.programmer in
  let computed =
    List.map
      (fun k ->
        let p = program_of_target pool.(k) in
        (p, Span.with_ "service.compute" (fun () -> Cache.compute ~config model p)))
      ranks
  in
  let dir = Printf.sprintf "%s/cache-%d" work_dir (Unix.getpid ()) in
  rm_rf dir;
  let cache = Cache.create ~capacity:(List.length computed + 8) ~dir () in
  List.iter (fun (p, v) -> Cache.store cache ~config model p v) computed;
  for _ = 1 to 5 do
    List.iter
      (fun (p, _) ->
        ignore (Span.with_ "service.cache_find" (fun () -> Cache.find cache ~config model p)))
      computed
  done;
  rm_rf dir

(* The service layer, traced: a fresh server, a ping series, the
   ladder, then the in-process miss and lookup paths.  Returns the
   traced ladder. *)
let layers b ~pool =
  let s = start 0 in
  Span.enabled := true;
  let c = connect s in
  for _ = 1 to 200 do
    ignore (Span.with_ "service.ping" (fun () -> Client.roundtrip c ping))
  done;
  Client.close c;
  let lt = run_ladder b s ~pool in
  Span.enabled := false;
  stop s;
  report_ladder lt;
  check_answers b lt;
  Span.enabled := true;
  in_process ~pool lt;
  Span.enabled := false;
  let spans name =
    List.map Span.seconds (List.filter (fun (s : Span.t) -> s.name = name) (Span.all ()))
  in
  let ms xs = List.map (( *. ) 1e3) xs and us xs = List.map (( *. ) 1e6) xs in
  Stats.lat "service.ping_ms" "ms" (ms (spans "service.ping"));
  List.iter
    (fun v -> Stats.lat ("service.roundtrip_ms." ^ v) "ms" (ms (spans ("service.roundtrip." ^ v))))
    verbs;
  let rtt r = Stats.ms_of_ns (r.reply - r.send) in
  let ok = List.filter (fun r -> r.ok) (Array.to_list lt.reqs) in
  let hits = List.filter (fun r -> r.cached) ok in
  Stats.lat "service.hit_ms" "ms" (List.map rtt hits);
  Stats.lat "service.miss_ms" "ms" (List.map rtt (List.filter (fun r -> not r.cached) ok));
  Stats.count "service.hit_rate" "fraction"
    (Stats.ratio (float_of_int (List.length hits)) (float_of_int (List.length ok)));
  Stats.lat "service.compute_ms" "ms" (ms (spans "service.compute"));
  Stats.lat "service.cache_find_us" "us" (us (spans "service.cache_find"));
  Stats.count "service.backlog" "count" (float_of_int (backlog lt nominal));
  let tally f = float_of_int (Array.fold_left (fun n r -> if f r then n + 1 else n) 0 lt.reqs) in
  Stats.count "service.sheds" "count" (tally (fun r -> r.shed));
  Stats.count "service.errors" "count" (tally (fun r -> r.error));
  Stats.lat "loadgen.lateness_ms" "ms"
    (List.map (fun r -> Stats.ms_of_ns r.lateness) (Array.to_list lt.reqs));
  lt

let run (b : Bench.t) =
  let pool = ref [||] in
  let setup_times = ref [] in
  let server = ref None in
  for k = 1 to 5 do
    Option.iter stop !server;
    let (s, p), ns =
      Bench.time (fun () ->
          let p = make_pool () in
          (start k, p))
    in
    server := Some s;
    pool := p;
    setup_times := Stats.s_of_ns ns :: !setup_times
  done;
  Stats.med "setup_s" "s" !setup_times;
  let s = Option.get !server in
  let pool = !pool in
  let l = run_ladder b s ~pool in
  stop s;
  report_ladder l;
  check_answers b l;
  let due = nominal_due l in
  (* p50 and p99 per one-second window of the nominal step, then the
     median over windows: one stall of the host moves one window *)
  let windows = nominal_windows l in
  Stats.pass_pair ~p50:"p50_ms" ~p99:"p99_ms" "ms" (List.map (List.map from_due) windows);
  Stats.pass_pair ~p50:"txn_p50_us" ~p99:"txn_p99_us" "us"
    (List.map (List.map (fun r -> Stats.us_of_ns (r.reply - r.send))) windows);
  let last = Array.fold_left (fun m r -> max m r.reply) 0 l.reqs in
  let wall = Stats.s_of_ns (last - l.t0) in
  let answered = Array.to_list l.reqs |> List.filter (fun r -> r.ok) in
  Stats.count "wall_s" "s" wall;
  Stats.count "decided_share" "fraction"
    (Stats.ratio
       (float_of_int (List.length (List.filter (fun r -> r.decided) answered)))
       (float_of_int (Array.length l.reqs)));
  Stats.count "peak_rss_mb" "MB" l.rss_mb;
  Stats.count "commits_per_s" "1/s" (float_of_int (List.length answered) /. wall);
  let best =
    List.fold_left (fun acc st -> if st.passed then st.achieved else acc) 0.0 (steps l)
  in
  Stats.count "max_rate_rps" "1/s" best;
  if b.trace then begin
    (* the same ladder again, traced, on another fresh server *)
    let lt = layers b ~pool in
    let due_t = nominal_due lt in
    let u = (Stats.summarize due).median and t = (Stats.summarize due_t).median in
    Stats.count "trace.overhead_s" "s" ((t -. u) *. 1e-3);
    Stats.count "trace.overhead_share" "fraction" (Stats.ratio (t -. u) u)
  end
