(* What every workload shares: the run's arguments, the tally of checked
   operations, the capped-run listing and the timing loops. *)

type t = {
  seed : int;
  seconds : float;
  trace : bool;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (* first few causes, newest first *)
  mutable caps : string list;  (* every capped or truncated bounded run *)
  started : int;  (* monotonic ns *)
}

let make ~seed ~seconds ~trace =
  { seed; seconds; trace; attempted = 0; failed = 0; failures = []; caps = [];
    started = Tmx_runtime.Clock.now_ns () }

let now_ns = Tmx_runtime.Clock.now_ns

(* one checked operation; [ok = false] is a failure with its cause *)
let check b ok cause =
  b.attempted <- b.attempted + 1;
  if not ok then begin
    b.failed <- b.failed + 1;
    if List.length b.failures < 20 && not (List.mem cause b.failures) then
      b.failures <- cause :: b.failures
  end

let cap b what = if not (List.mem what b.caps) then b.caps <- what :: b.caps

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* Set-up is repeated [times] times and reported as the median, so work
   moved into set-up shows; the last set-up's result is the one used. *)
let setup ~times f =
  let rec go k acc =
    let r, ns = time f in
    let acc = Stats.s_of_ns ns :: acc in
    if k <= 1 then (r, acc) else go (k - 1) acc
  in
  let r, samples = go times [] in
  Stats.med "setup_s" "s" samples;
  r

(* Run [pass] until [seconds] of measuring have gone by, and at least
   [min] times.  With tracing, passes alternate untraced and traced
   (starting untraced); each result comes back tagged with whether it
   was traced and its wall time. *)
let passes b ?(min = 1) pass =
  let deadline = now_ns () + int_of_float (b.seconds *. 1e9) in
  let min = if b.trace then max min 2 else min in
  let rec go i acc =
    if i >= min && now_ns () >= deadline then List.rev acc
    else begin
      let traced = b.trace && i mod 2 = 1 in
      (* every pass starts from a compacted heap, as the first one does *)
      Gc.compact ();
      Span.enabled := traced;
      let t0 = now_ns () in
      let r = Span.with_ "pass" pass in
      let t1 = now_ns () in
      Span.enabled := false;
      Printf.printf "pass %d%s: %.3f s\n%!" i (if traced then " (traced)" else "")
        (Stats.s_of_ns (t1 - t0));
      go (i + 1) ((traced, t0, t1, r) :: acc)
    end
  in
  go 0 []

let wall (_, t0, t1, _) = Stats.s_of_ns (t1 - t0)
let untraced ps = List.filter (fun (tr, _, _, _) -> not tr) ps
let traced ps = List.filter (fun (tr, _, _, _) -> tr) ps

(* spans recorded within a pass *)
let spans_in (_, t0, t1, _) name =
  List.filter
    (fun (s : Span.t) -> s.name = name && s.t0 >= t0 && s.t1 <= t1)
    (Span.all ())

let span_total p name =
  Stats.sum (List.map Span.seconds (spans_in p name))

let span_durations ps name =
  List.concat_map (fun p -> List.map Span.seconds (spans_in p name)) ps

(* median over traced passes of a per-pass quantity *)
let per_traced ps f = Stats.median (List.map f (traced ps))

(* the traced run's own cost: traced minus untraced wall time *)
let overhead ~untraced:u ~traced:t =
  Stats.count "trace.overhead_s" "s" (t -. u);
  Stats.count "trace.overhead_share" "fraction" (Stats.ratio (t -. u) u)
