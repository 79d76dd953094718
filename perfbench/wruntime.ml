(* runtime: the STM library users link against.  Every domain (as many
   as the machine recommends) issues a seeded mix of the four Stm_bench
   shapes through Stm.atomically, under each mode in turn with the
   default contention policy:
   - read-heavy: read the whole 8-account bank (the total must be
     conserved in every committed snapshot), one in ten a transfer;
   - write-heavy: transfer between two accounts and swap two others;
   - long-read: read 32 cold slots, then increment one hot counter;
   - privatization-heavy: half the time update the pair (px, py) under
     a flag; otherwise privatize it: commit the flag, Stm.quiesce, read
     the pair plainly (it must not be torn), write it plainly, and
     republish.
   Closed loop. *)

open Tmx_runtime

let modes = Stm.[ Lazy; Eager; Partial; Norec ]
let ops_per_domain = 40_000
let total = 8 * 1000

type state = {
  bank : Tvar.t array;
  cold : Tvar.t array;
  hot : Tvar.t;
  flag : Tvar.t;
  px : Tvar.t;
  py : Tvar.t;
}

let fresh () =
  {
    bank = Array.init 8 (fun _ -> Tvar.make 1000);
    cold = Array.init 64 Tvar.make;
    hot = Tvar.make 0;
    flag = Tvar.make 0;
    px = Tvar.make 0;
    py = Tvar.make 0;
  }

(* the same 48-bit LCG as Stm_bench, one stream per (seed, domain) *)
let rng ~seed ~domain =
  let st = ref ((((seed + 1) * 0x9E3779B9) lxor ((domain + 1) * 0x61C88647)) land 0xFFFF_FFFF_FFFF) in
  fun bound ->
    st := ((!st * 0x5DEECE66D) + 0xB) land 0xFFFF_FFFF_FFFF;
    (!st lsr 17) mod bound

type worker = {
  txn_ns : int array;  (* one entry per atomically call *)
  mutable txns : int;
  op_ns : int array;
  mutable violations : string list;
  mutable long_reads : int;  (* committed hot-counter increments *)
  mutable privatized : int;
  mutable calls : int;
  mutable returned : int;  (* atomically calls that came back: decided *)
}

let worker_state () =
  {
    txn_ns = Array.make (ops_per_domain * 2) 0;
    txns = 0;
    op_ns = Array.make ops_per_domain 0;
    violations = [];
    long_reads = 0;
    privatized = 0;
    calls = 0;
    returned = 0;
  }

let atomically w ~mode f =
  w.calls <- w.calls + 1;
  let t0 = Clock.now_ns () in
  let r = Stm.atomically ~mode f in
  w.txn_ns.(w.txns) <- Clock.now_ns () - t0;
  w.txns <- w.txns + 1;
  w.returned <- w.returned + 1;
  r

let violation w what = if not (List.mem what w.violations) then w.violations <- what :: w.violations

let read_all tx vars = Array.fold_left (fun acc v -> acc + Stm.read tx v) 0 vars

let op st w ~mode ~me rand =
  let d = rand 100 in
  if d < 40 then begin
    (* read-heavy *)
    if rand 10 < 9 then
      match atomically w ~mode (fun tx -> read_all tx st.bank) with
      | Some s when s <> total -> violation w "a committed read saw a torn bank total"
      | _ -> ()
    else
      let i = rand 8 and j = rand 8 in
      ignore
        (atomically w ~mode (fun tx ->
             let a = Stm.read tx st.bank.(i) in
             Stm.write tx st.bank.(i) (a - 1);
             Stm.write tx st.bank.(j) (Stm.read tx st.bank.(j) + 1)))
  end
  else if d < 65 then begin
    (* write-heavy *)
    let i = rand 8 and j = rand 8 and k = rand 8 and l = rand 8 in
    let amount = 1 + rand 5 in
    ignore
      (atomically w ~mode (fun tx ->
           Stm.write tx st.bank.(i) (Stm.read tx st.bank.(i) - amount);
           Stm.write tx st.bank.(j) (Stm.read tx st.bank.(j) + amount);
           let a = Stm.read tx st.bank.(k) and b = Stm.read tx st.bank.(l) in
           Stm.write tx st.bank.(k) b;
           Stm.write tx st.bank.(l) a))
  end
  else if d < 80 then begin
    (* long-read *)
    match
      atomically w ~mode (fun tx ->
          let acc = read_all tx st.cold in
          Stm.write tx st.hot (Stm.read tx st.hot + 1);
          acc)
    with
    | Some _ -> w.long_reads <- w.long_reads + 1
    | None -> ()
  end
  else if rand 2 = 0 then
    (* privatization-heavy: a transactional update of the shared pair *)
    ignore
      (atomically w ~mode (fun tx ->
           if Stm.read tx st.flag = 0 then begin
             Stm.write tx st.px (Stm.read tx st.px + 1);
             Stm.write tx st.py (Stm.read tx st.py + 1)
           end))
  else begin
    (* privatization-heavy: commit, quiesce, plain access, republish *)
    let mine =
      atomically w ~mode (fun tx ->
          if Stm.read tx st.flag = 0 then (Stm.write tx st.flag (me + 1); true) else false)
    in
    if mine = Some true then begin
      Span.with_ "runtime.quiesce" (fun () -> Stm.quiesce ());
      let x = Tvar.unsafe_read st.px and y = Tvar.unsafe_read st.py in
      if x <> y then violation w "a privatized pair read after quiesce was torn";
      Tvar.unsafe_write st.px (x + 1);
      Tvar.unsafe_write st.py (y + 1);
      w.privatized <- w.privatized + 1;
      ignore (atomically w ~mode (fun tx -> Stm.write tx st.flag 0))
    end
  end

type stage = {
  mode : Stm.mode;
  workers : worker list;
  stats : Stm.snapshot;
  ns : int;
  state : state;
}

let stage ?(ops = ops_per_domain) ~seed ~domains mode =
  let st = fresh () in
  let workers = List.init domains (fun _ -> worker_state ()) in
  Stm.reset_stats ();
  let t0 = Clock.now_ns () in
  Span.with_ ("runtime.stage." ^ Stm.mode_name mode) (fun () ->
      let ds =
        List.mapi
          (fun me w ->
            Domain.spawn (fun () ->
                let rand = rng ~seed ~domain:me in
                for i = 0 to ops - 1 do
                  let t = Clock.now_ns () in
                  op st w ~mode ~me rand;
                  w.op_ns.(i) <- Clock.now_ns () - t
                done))
          workers
      in
      List.iter Domain.join ds);
  let ns = Clock.now_ns () - t0 in
  { mode; workers; stats = Stm.stats (); ns; state = st }

let mode_stats (s : Stm.snapshot) = function
  | Stm.Lazy -> s.lazy_stats
  | Stm.Eager -> s.eager_stats
  | Stm.Partial -> s.partial_stats
  | Stm.Norec -> s.norec_stats

let check_stage b s =
  let name = Stm.mode_name s.mode in
  let st = s.state in
  let sum = Array.fold_left (fun acc v -> acc + Tvar.unsafe_read v) 0 st.bank in
  Bench.check b (sum = total) (Printf.sprintf "%s: bank total %d, expected %d" name sum total);
  let px = Tvar.unsafe_read st.px and py = Tvar.unsafe_read st.py in
  Bench.check b (px = py) (Printf.sprintf "%s: pair diverged (%d, %d)" name px py);
  let long_reads = List.fold_left (fun n w -> n + w.long_reads) 0 s.workers in
  Bench.check b (Tvar.unsafe_read st.hot = long_reads)
    (Printf.sprintf "%s: hot counter %d after %d increments" name (Tvar.unsafe_read st.hot) long_reads);
  List.iter
    (fun w ->
      Bench.check b (w.violations = [])
        (Printf.sprintf "%s: %s" name (String.concat "; " w.violations));
      (* one checked operation per op issued *)
      b.attempted <- b.attempted + ops_per_domain - 1)
    s.workers

let commits s = (mode_stats s.stats s.mode).commits

(* retries per committed transaction, read from the histogram: the
   upper bound of the bucket holding the 99th percentile *)
let retries_p99 stages =
  let h = (List.hd stages).stats.Stm.retry_hist in
  let counts = Array.make (Array.length h.counts) 0 in
  List.iter
    (fun s -> Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) s.stats.Stm.retry_hist.counts)
    stages;
  let n = Array.fold_left ( + ) 0 counts in
  let target = float_of_int n *. 0.99 in
  let rec go i acc =
    let acc = acc + counts.(i) in
    if float_of_int acc >= target || i = Array.length counts - 1 then
      if i < Array.length h.bounds then float_of_int h.bounds.(i)
      else float_of_int h.bounds.(Array.length h.bounds - 1) +. 1.0
    else go (i + 1) acc
  in
  if n = 0 then 0.0 else go 0 0

(* percentiles of one pass's raw samples (ns), kept as numbers so the
   raw arrays can be dropped after each pass *)
let pcts arrays =
  let a = Array.concat arrays in
  Array.sort compare a;
  let s = Stats.summarize_sorted (Array.map float_of_int a) in
  (s.median, s.p99)

type pass = {
  stages : stage list;
  txn : float * float;  (* p50, p99 (ns) *)
  ops : float * float;
}

let one_pass b ~domains () =
  let stages = List.map (stage ~seed:b.Bench.seed ~domains) modes in
  List.iter (check_stage b) stages;
  let ws = List.concat_map (fun s -> s.workers) stages in
  let txn = pcts (List.map (fun w -> Array.sub w.txn_ns 0 w.txns) ws) in
  let ops = pcts (List.map (fun w -> w.op_ns) ws) in
  let drop w = { w with txn_ns = [||]; op_ns = [||] } in
  { stages = List.map (fun s -> { s with workers = List.map drop s.workers }) stages; txn; ops }

let run (b : Bench.t) =
  let domains = max 1 (Domain.recommended_domain_count ()) in
  (* set-up: a short warm-up stage of the mix under every mode *)
  Bench.setup ~times:9 (fun () ->
      List.iter (fun mode -> ignore (stage ~ops:2000 ~seed:b.seed ~domains mode)) modes);
  let ps = Bench.passes b (one_pass b ~domains) in
  let stages (_, _, _, r) = r.stages in
  let un = Bench.untraced ps in
  Stats.med "wall_s" "s" (List.map Bench.wall un);
  let sum_workers f p = List.fold_left (fun n s -> List.fold_left (fun n w -> n + f w) n s.workers) 0 (stages p) in
  Stats.med "decided_share" "fraction"
    (List.map (fun p -> Stats.ratio (float_of_int (sum_workers (fun w -> w.returned) p)) (float_of_int (sum_workers (fun w -> w.calls) p))) un);
  Stats.count "peak_rss_mb" "MB" (Stats.peak_rss_mb 0);
  Stats.med "commits_per_s" "1/s"
    (List.map (fun p -> float_of_int (List.fold_left (fun n s -> n + commits s) 0 (stages p)) /. Bench.wall p) un);
  let pct name unit_ scale pick =
    Stats.med name unit_ (List.map (fun (_, _, _, r) -> scale (pick r)) un)
  in
  let us ns = ns *. 1e-3 and ms ns = ns *. 1e-6 in
  pct "txn_p50_us" "us" us (fun r -> fst r.txn);
  pct "txn_p99_us" "us" us (fun r -> snd r.txn);
  pct "p50_ms" "ms" ms (fun r -> fst r.ops);
  pct "p99_ms" "ms" ms (fun r -> snd r.ops);
  Stats.med "max_rate_rps" "1/s"
    (List.map (fun p -> float_of_int (domains * ops_per_domain * List.length modes) /. Bench.wall p) un);
  Printf.printf "runtime: %d domains, %d ops per domain per mode\n" domains ops_per_domain;
  if b.trace then begin
    let tr = Bench.traced ps in
    Bench.overhead ~untraced:(Stats.median (List.map Bench.wall un))
      ~traced:(Stats.median (List.map Bench.wall tr));
    List.iter
      (fun m ->
        let name = Stm.mode_name m in
        let of_mode p = List.find (fun s -> s.mode = m) (stages p) in
        Stats.count ("runtime.commits_per_s." ^ name) "1/s"
          (Bench.per_traced ps (fun p ->
               let s = of_mode p in
               float_of_int (commits s) /. Stats.s_of_ns s.ns));
        Stats.count ("runtime.commit_ratio." ^ name) "fraction"
          (Bench.per_traced ps (fun p ->
               let s = of_mode p in
               let ms = mode_stats s.stats m in
               Stats.ratio (float_of_int ms.commits)
                 (float_of_int (ms.commits + ms.validation_aborts + ms.lock_aborts)))))
      modes;
    let total f = Bench.per_traced ps (fun p -> float_of_int (List.fold_left (fun n s -> n + f s) 0 (stages p))) in
    Stats.count "runtime.aborts.validation" "count" (total (fun s -> (mode_stats s.stats s.mode).validation_aborts));
    Stats.count "runtime.aborts.lock" "count" (total (fun s -> (mode_stats s.stats s.mode).lock_aborts));
    Stats.count "runtime.partial_aborts" "count" (total (fun s -> s.stats.partial_aborts));
    Stats.count "runtime.escalations" "count" (total (fun s -> s.stats.escalations));
    Stats.lat "runtime.quiesce_us" "us" (List.map (( *. ) 1e6) (Bench.span_durations tr "runtime.quiesce"));
    Stats.count "runtime.retries_p99" "count" (Bench.per_traced ps (fun p -> retries_p99 (stages p)))
  end
