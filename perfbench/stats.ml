(* Sample summaries and the metric table a run reports. *)

(* linear interpolation between closest ranks, as numpy's default *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

type summary = { n : int; median : float; q1 : float; q3 : float; p99 : float }

let summarize_sorted a =
  {
    n = Array.length a;
    median = quantile a 0.5;
    q1 = quantile a 0.25;
    q3 = quantile a 0.75;
    p99 = quantile a 0.99;
  }

let summarize xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  summarize_sorted a

let median xs = (summarize xs).median
let sum xs = List.fold_left ( +. ) 0.0 xs

(* A reported metric: the value, plus the samples it summarizes *)
type metric = { name : string; unit_ : string; value : float; summary : summary }

let table : (string, metric) Hashtbl.t = Hashtbl.create 128

let set ?summary name unit_ value =
  let summary =
    match summary with
    | Some s -> s
    | None -> { n = 1; median = value; q1 = value; q3 = value; p99 = value }
  in
  Hashtbl.replace table name { name; unit_; value; summary }

(* a single count or total *)
let count name unit_ v = set name unit_ v

(* [name] is the median of the samples *)
let med name unit_ xs =
  let s = summarize xs in
  set ~summary:s name unit_ s.median

(* latency-style layer metrics: [name.p50] and [name.p99] *)
let lat name unit_ xs =
  let s = summarize xs in
  set ~summary:s (name ^ ".p50") unit_ s.median;
  set ~summary:s (name ^ ".p99") unit_ s.p99

(* end-to-end percentiles over several passes: each pass's own p50 and
   p99, then the median over passes, so the figure does not depend on
   how many passes fit in the run *)
let pass_pair ~p50 ~p99 unit_ per_pass =
  let ss = List.map summarize per_pass in
  med p50 unit_ (List.map (fun s -> s.median) ss);
  med p99 unit_ (List.map (fun s -> s.p99) ss)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let ms_of_ns ns = float_of_int ns *. 1e-6
let us_of_ns ns = float_of_int ns *. 1e-3
let s_of_ns ns = float_of_int ns *. 1e-9

(* peak resident set of a process, from /proc (Linux), in MB *)
let peak_rss_mb pid =
  let file =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match open_in file with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.0)
            else go ()
      in
      let v = go () in
      close_in ic;
      v
