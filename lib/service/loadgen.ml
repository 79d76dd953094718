(* Deterministic load generation against a running tmx serve.

   The whole query stream is a pure function of (seed, request index):
   request i draws its target (Zipf-skewed over a pool of catalog
   programs plus fuzzer-generated ones) and verb from a private PRNG
   seeded with (seed, i).  Concurrency only decides *which* indices a
   worker sends, never what any index contains, so the same seed replays
   the same stream at any concurrency — and sequentially, which is what
   the byte-identity oracle does: replay indices 0..n-1 against two
   fresh servers (e.g. --shards 1 vs --shards 4) and compare the raw
   response lines verbatim.

   The oracle needs two more things to hold, both arranged here: the
   per-request "id" echoes the index (so a mismatch names the request),
   and the verb set excludes stats/ping/shutdown (whose answers depend
   on server state, not the query).  Fresh servers see the identical
   sequential stream, so their hit/miss ("cached") evolution is
   identical too — provided the pool fits the per-shard LRU, which the
   defaults respect.

   All timing is monotonic (Tmx_runtime.Clock): latencies and the
   duration cutoff must not stretch under an NTP step. *)

open Tmx_litmus

type config = {
  concurrency : int;
  duration_s : float;
  requests : int;  (* > 0: fixed count, overrides duration *)
  skew : float;
  seed : int;
  generated : int;  (* fuzzer-generated programs in the pool *)
  use_catalog : bool;
  rate : float;  (* > 0: open-loop arrivals/s across all workers *)
}

let default_config =
  {
    concurrency = 2;
    duration_s = 5.0;
    requests = 0;
    skew = 1.0;
    seed = 42;
    generated = 16;
    use_catalog = true;
    rate = 0.0;
  }

(* -- the deterministic stream ----------------------------------------------- *)

(* the same 48-bit LCG as Tmx_runtime.Contention's jitter, seeded per
   (seed, index) so requests are independent of each other *)
let mask48 = 0xFFFF_FFFF_FFFF

let rng_of ~seed ~index =
  let st =
    ref ((((seed + 1) * 0x9E3779B9) lxor ((index + 1) * 0x61C88647)) land mask48)
  in
  (* warm up: the first raw step of a correlated seed is correlated *)
  let step () =
    st := ((!st * 0x5DEECE66D) + 0xB) land mask48;
    !st lsr 17
  in
  ignore (step ());
  step

(* Open-loop arrivals: request [i] is due at the prefix sum of
   exponential inter-arrival gaps with mean [1/rate], gap [j] drawn
   from its own (seed, index) PRNG on a stream disjoint from the
   request-content stream — the schedule never perturbs what any index
   contains, so the determinism oracle is untouched.  Every worker
   folds the same global prefix sum, so the schedule is identical at
   any concurrency. *)
let gap_of cfg ~index =
  let rng = rng_of ~seed:(cfg.seed lxor 0x2E8B57) ~index in
  (* u in (0, 1]: never log 0 *)
  let u = (float_of_int (rng ()) +. 1.0) /. 2147483649.0 in
  -.Float.log u /. cfg.rate

let arrivals cfg ~n =
  let a = Array.make (max n 0) 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. gap_of cfg ~index:i;
    a.(i) <- !acc
  done;
  a

type target = By_name of string | By_source of string

let pool cfg =
  let catalog =
    if cfg.use_catalog then
      List.map (fun (l : Litmus.t) -> By_name l.name) Catalog.all
    else []
  in
  let generated =
    List.init (max 0 cfg.generated) (fun j ->
        let st = Tmx_fuzz.Gen.state_of_seed ~seed:cfg.seed ~index:j in
        let p =
          Tmx_fuzz.Gen.program ~name:(Printf.sprintf "lg%04d" j)
            Tmx_fuzz.Gen.mixed st
        in
        By_source (Export.program_to_string p))
  in
  match Array.of_list (catalog @ generated) with
  | [||] -> invalid_arg "Loadgen: empty target pool"
  | a -> a

(* Zipf over ranks: weight 1/(r+1)^skew; skew 0 = uniform.  Cumulative
   weights once, linear scan per draw (pools are tens of entries). *)
let zipf_cumulative ~skew n =
  let cum = Array.make n 0.0 in
  let total = ref 0.0 in
  for r = 0 to n - 1 do
    total := !total +. (1.0 /. Float.pow (float_of_int (r + 1)) skew);
    cum.(r) <- !total
  done;
  cum

let draw_rank cum u =
  let total = cum.(Array.length cum - 1) in
  let x = u *. total in
  let rec go r = if r >= Array.length cum - 1 || x < cum.(r) then r else go (r + 1) in
  go 0

(* expensive verbs only: the stream exists to exercise the verdict
   cache, and the oracle needs state-independent answers *)
let verb_of_draw d =
  let d = d mod 100 in
  if d < 40 then "races"
  else if d < 65 then "outcomes"
  else if d < 85 then "check"
  else "lint"

let request cfg ~cum ~targets i =
  let rng = rng_of ~seed:cfg.seed ~index:i in
  let u = float_of_int (rng ()) /. 2147483648.0 in
  let rank = draw_rank cum u in
  let verb = verb_of_draw (rng ()) in
  let name, program =
    match targets.(rank) with
    | By_name n -> (Some n, None)
    | By_source s -> (None, Some s)
  in
  {
    Protocol.id = Some (Tmx_json.int i);
    verb;
    name;
    program;
    model = "pm";
    deadline_ms = None;
    subrequests = [];
  }

(* -- the measured run ------------------------------------------------------- *)

type report = {
  requests_sent : int;
  ok : int;
  errors : int;
  sheds : int;
  hits : int;
  duration_s : float;
  throughput_rps : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  hit_rate : float;
  shed_rate : float;
}

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (Float.of_int n *. p)))

type sample = { latency_ns : int; s_ok : bool; s_shed : bool; s_hit : bool }

let now_s = Tmx_runtime.Clock.now_s
let now_ns = Tmx_runtime.Clock.now_ns

let worker cfg ~addr ~cum ~targets ~t_start ~t_end d =
  let samples = ref [] in
  let errors = ref 0 in
  let conn = ref None in
  let get_conn () =
    match !conn with
    | Some c -> Some c
    | None -> (
        match Client.connect ~wait_s:5.0 addr with
        | Ok c ->
            conn := Some c;
            Some c
        | Error _ -> None)
  in
  let stop_at_index =
    if cfg.requests > 0 then cfg.requests else max_int
  in
  let i = ref d in
  (* open loop: [due] is the global arrival offset of index [!i];
     every worker folds the same gap stream, skipping no index *)
  let due = ref 0.0 in
  let advance_due ~from_excl ~to_incl =
    if cfg.rate > 0.0 then
      for j = from_excl + 1 to to_incl do
        due := !due +. gap_of cfg ~index:j
      done
  in
  advance_due ~from_excl:(-1) ~to_incl:d;
  let continue () =
    !i < stop_at_index
    && (cfg.requests > 0
       || (now_s () < t_end
          && (cfg.rate <= 0.0 || t_start +. !due < t_end)))
  in
  let rec wait_until t =
    let dt = t -. now_s () in
    if dt > 0.0 then begin
      Unix.sleepf dt;
      wait_until t
    end
  in
  while continue () do
    let req = Protocol.to_json (request cfg ~cum ~targets !i) in
    let sched = t_start +. !due in
    if cfg.rate > 0.0 then wait_until sched;
    (match get_conn () with
    | None -> incr errors
    | Some c -> (
        (* open loop: latency counts from the scheduled arrival, so a
           backed-up worker charges its queueing delay to the requests
           it delays instead of silently not sending them (the
           coordinated-omission artifact closed loops suffer) *)
        let t0 =
          if cfg.rate > 0.0 then int_of_float (sched *. 1e9) else now_ns ()
        in
        match Client.roundtrip c req with
        | Error _ ->
            (* server gone or worker died mid-request: drop the
               connection and let the next request redial *)
            Client.close c;
            conn := None;
            incr errors
        | Ok resp ->
            let lat = now_ns () - t0 in
            let shed = Protocol.response_overloaded resp in
            let hit =
              Option.bind (Tmx_json.mem "cached" resp) Tmx_json.to_bool
              = Some true
            in
            samples :=
              {
                latency_ns = lat;
                s_ok = Protocol.response_ok resp;
                s_shed = shed;
                s_hit = hit;
              }
              :: !samples));
    advance_due ~from_excl:!i ~to_incl:(!i + cfg.concurrency);
    i := !i + cfg.concurrency
  done;
  Option.iter Client.close !conn;
  (!samples, !errors)

let run ?(config = default_config) addr =
  let cfg = { config with concurrency = max 1 config.concurrency } in
  let targets = pool cfg in
  let cum = zipf_cumulative ~skew:cfg.skew (Array.length targets) in
  let t_start = now_s () in
  let t_end = t_start +. cfg.duration_s in
  let results =
    List.init cfg.concurrency (fun d ->
        Domain.spawn (fun () ->
            worker cfg ~addr ~cum ~targets ~t_start ~t_end d))
    |> List.map Domain.join
  in
  let duration = Float.max 1e-9 (now_s () -. t_start) in
  let samples = List.concat_map fst results in
  let errors = List.fold_left (fun n (_, e) -> n + e) 0 results in
  let total = List.length samples + errors in
  let sheds = List.length (List.filter (fun s -> s.s_shed) samples) in
  let ok = List.length (List.filter (fun s -> s.s_ok) samples) in
  let hits = List.length (List.filter (fun s -> s.s_hit) samples) in
  let latencies =
    List.filter_map
      (fun s ->
        if s.s_shed then None
        else Some (float_of_int s.latency_ns /. 1e6))
      samples
    |> Array.of_list
  in
  Array.sort compare latencies;
  let answered = max 1 (List.length samples - sheds) in
  {
    requests_sent = total;
    ok;
    errors;
    sheds;
    hits;
    duration_s = duration;
    throughput_rps = float_of_int total /. duration;
    p50_ms = percentile latencies 0.50;
    p95_ms = percentile latencies 0.95;
    p99_ms = percentile latencies 0.99;
    hit_rate = float_of_int hits /. float_of_int answered;
    shed_rate = float_of_int sheds /. float_of_int (max 1 total);
  }

let report_to_json r =
  Tmx_json.Obj
    [
      ("requests", Tmx_json.int r.requests_sent);
      ("ok", Tmx_json.int r.ok);
      ("errors", Tmx_json.int r.errors);
      ("sheds", Tmx_json.int r.sheds);
      ("hits", Tmx_json.int r.hits);
      ("duration_s", Tmx_json.Num r.duration_s);
      ("throughput_rps", Tmx_json.Num r.throughput_rps);
      ("p50_ms", Tmx_json.Num r.p50_ms);
      ("p95_ms", Tmx_json.Num r.p95_ms);
      ("p99_ms", Tmx_json.Num r.p99_ms);
      ("hit_rate", Tmx_json.Num r.hit_rate);
      ("shed_rate", Tmx_json.Num r.shed_rate);
    ]

(* -- the byte-identity oracle ----------------------------------------------- *)

type mismatch = { index : int; line_a : string; line_b : string }

let oracle ?(config = default_config) ~requests addr_a addr_b =
  let cfg = config in
  let targets = pool cfg in
  let cum = zipf_cumulative ~skew:cfg.skew (Array.length targets) in
  match
    (Client.connect ~wait_s:5.0 addr_a, Client.connect ~wait_s:5.0 addr_b)
  with
  | Error e, _ | _, Error e -> Error e
  | Ok ca, Ok cb ->
      Fun.protect
        ~finally:(fun () ->
          Client.close ca;
          Client.close cb)
        (fun () ->
          let rec go i =
            if i >= requests then Ok None
            else
              let req = Protocol.to_json (request cfg ~cum ~targets i) in
              match
                (Client.roundtrip_raw ca req, Client.roundtrip_raw cb req)
              with
              | Error e, _ | _, Error e -> Error e
              | Ok la, Ok lb ->
                  if String.equal la lb then go (i + 1)
                  else Ok (Some { index = i; line_a = la; line_b = lb })
          in
          go 0)
