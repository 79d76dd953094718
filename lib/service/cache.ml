(* Content-addressed verdict cache: one JSON file per key, atomic
   write-then-rename persistence, a mutex-guarded LRU front shared
   across domains, and corruption-tolerant loads (any failure to read
   an entry is a miss, never a crash).

   The store can be sharded by digest prefix: with [shards = n > 1] a
   key's entry lives in dir/shard-XX/ where XX is the key's first two
   hex digits reduced mod n, and each shard carries its own lock, LRU
   front and counters.  Shared-nothing by construction — no two shards
   ever touch the same file, so shard damage (corruption, deletion, a
   full disk partition) is contained, and concurrent domains touching
   different shards never contend on a lock.  Cross-process writers
   were already safe via write-then-rename; per-shard locking only
   narrows the in-process critical sections. *)

open Tmx_core
open Tmx_lang
open Tmx_exec

type verdict = {
  result : Enumerate.result;
  races : (int * int) list array;
  mixed : bool array;
  lint_race_free : bool;
  lint_findings : int;
  lint_mixed : int;
}

(* -- the miss path ---------------------------------------------------------- *)

let compute ~config model program =
  let result = Enumerate.run ~config model program in
  let n = List.length result.executions in
  let races = Array.make n [] in
  let mixed = Array.make n false in
  List.iteri
    (fun i (e : Enumerate.execution) ->
      let hb = Hb.compute model (Lift.make e.trace) in
      races.(i) <- Race.races e.trace hb;
      mixed.(i) <- Race.has_mixed_race e.trace hb)
    result.executions;
  let lint = Tmx_analysis.Lint.lint program in
  {
    result;
    races;
    mixed;
    lint_race_free = Tmx_analysis.Lint.race_free lint;
    lint_findings = List.length lint.findings;
    lint_mixed = Tmx_analysis.Lint.mixed_count lint;
  }

(* -- serialization ---------------------------------------------------------- *)

let format_version = "tmx-cache-1"

let json_of_rat r = Tmx_json.str (Rat.to_string r)

let rat_of_json j =
  match Tmx_json.to_str j with
  | None -> None
  | Some s -> (
      match String.index_opt s '/' with
      | None -> Option.map Rat.of_int (int_of_string_opt s)
      | Some i -> (
          match
            ( int_of_string_opt (String.sub s 0 i),
              int_of_string_opt
                (String.sub s (i + 1) (String.length s - i - 1)) )
          with
          | Some num, Some den when den <> 0 -> Some (Rat.make num den)
          | _ -> None))

let json_of_event (e : Action.event) =
  let t = Tmx_json.int e.thread in
  match e.act with
  | Action.Write { loc; value; ts } ->
      Tmx_json.(Arr [ t; str "W"; str loc; int value; json_of_rat ts ])
  | Action.Read { loc; value; ts } ->
      Tmx_json.(Arr [ t; str "R"; str loc; int value; json_of_rat ts ])
  | Action.Begin -> Tmx_json.Arr [ t; Tmx_json.str "B" ]
  | Action.Commit -> Tmx_json.Arr [ t; Tmx_json.str "C" ]
  | Action.Abort -> Tmx_json.Arr [ t; Tmx_json.str "A" ]
  | Action.Qfence loc -> Tmx_json.Arr [ t; Tmx_json.str "Q"; Tmx_json.str loc ]

exception Malformed

let get = function Some v -> v | None -> raise Malformed

let event_of_json j : Action.event =
  match Tmx_json.to_list j with
  | Some (t :: Tmx_json.Str tag :: rest) -> (
      let thread = get (Tmx_json.to_int t) in
      match (tag, rest) with
      | "W", [ loc; value; ts ] ->
          {
            thread;
            act =
              Action.Write
                {
                  loc = get (Tmx_json.to_str loc);
                  value = get (Tmx_json.to_int value);
                  ts = get (rat_of_json ts);
                };
          }
      | "R", [ loc; value; ts ] ->
          {
            thread;
            act =
              Action.Read
                {
                  loc = get (Tmx_json.to_str loc);
                  value = get (Tmx_json.to_int value);
                  ts = get (rat_of_json ts);
                };
          }
      | "B", [] -> { thread; act = Action.Begin }
      | "C", [] -> { thread; act = Action.Commit }
      | "A", [] -> { thread; act = Action.Abort }
      | "Q", [ loc ] ->
          { thread; act = Action.Qfence (get (Tmx_json.to_str loc)) }
      | _ -> raise Malformed)
  | _ -> raise Malformed

let json_of_bindings bs =
  Tmx_json.(Arr (List.map (fun (k, v) -> Arr [ str k; int v ]) bs))

let bindings_of_json j =
  List.map
    (fun pair ->
      match Tmx_json.to_list pair with
      | Some [ k; v ] -> (get (Tmx_json.to_str k), get (Tmx_json.to_int v))
      | _ -> raise Malformed)
    (get (Tmx_json.to_list j))

let json_of_outcome (o : Outcome.t) =
  Tmx_json.Obj
    [
      ( "regs",
        Tmx_json.Arr (Array.to_list (Array.map json_of_bindings o.regs)) );
      ("mem", json_of_bindings o.mem);
    ]

let outcome_of_json j : Outcome.t =
  {
    regs =
      Array.of_list
        (List.map bindings_of_json
           (get (Tmx_json.to_list (get (Tmx_json.mem "regs" j)))));
    mem = bindings_of_json (get (Tmx_json.mem "mem" j));
  }

let json_of_execution (e : Enumerate.execution) races mixed =
  Tmx_json.Obj
    [
      ( "locs",
        Tmx_json.Arr (List.map Tmx_json.str (Trace.locs e.trace)) );
      ( "events",
        Tmx_json.Arr
          (Array.to_list (Array.map json_of_event (Trace.events e.trace))) );
      ("outcome", json_of_outcome e.outcome);
      ( "races",
        Tmx_json.Arr
          (List.map
             (fun (a, b) -> Tmx_json.Arr [ Tmx_json.int a; Tmx_json.int b ])
             races) );
      ("mixed", Tmx_json.bool mixed);
    ]

let execution_of_json j =
  let locs =
    List.map
      (fun l -> get (Tmx_json.to_str l))
      (get (Tmx_json.to_list (get (Tmx_json.mem "locs" j))))
  in
  let events =
    List.map event_of_json
      (get (Tmx_json.to_list (get (Tmx_json.mem "events" j))))
  in
  (* [Trace.events] includes the WF1 initializing transaction, so the
     raw [of_events] rebuilds the trace exactly *)
  let trace = Trace.of_events ~locs events in
  let outcome = outcome_of_json (get (Tmx_json.mem "outcome" j)) in
  let races =
    List.map
      (fun pair ->
        match Tmx_json.to_list pair with
        | Some [ a; b ] -> (get (Tmx_json.to_int a), get (Tmx_json.to_int b))
        | _ -> raise Malformed)
      (get (Tmx_json.to_list (get (Tmx_json.mem "races" j))))
  in
  let mixed = get (Tmx_json.to_bool (get (Tmx_json.mem "mixed" j))) in
  ((({ trace; outcome } : Enumerate.execution), races), mixed)

let json_of_verdict ~version ~model_name ~config_key v =
  Tmx_json.Obj
    [
      ("format", Tmx_json.str version);
      ("model", Tmx_json.str model_name);
      ("config", Tmx_json.str config_key);
      ("truncated", Tmx_json.bool v.result.truncated);
      ("capped", Tmx_json.bool v.result.capped);
      ("graphs", Tmx_json.int v.result.graphs);
      ("explored", Tmx_json.int v.result.explored);
      ( "lint",
        Tmx_json.Obj
          [
            ("race_free", Tmx_json.bool v.lint_race_free);
            ("findings", Tmx_json.int v.lint_findings);
            ("mixed", Tmx_json.int v.lint_mixed);
          ] );
      ( "executions",
        Tmx_json.Arr
          (List.mapi
             (fun i e -> json_of_execution e v.races.(i) v.mixed.(i))
             v.result.executions) );
    ]

let verdict_of_json j =
  let parsed =
    List.map execution_of_json
      (get (Tmx_json.to_list (get (Tmx_json.mem "executions" j))))
  in
  let lint = get (Tmx_json.mem "lint" j) in
  {
    result =
      {
        executions = List.map (fun ((e, _), _) -> e) parsed;
        truncated = get (Tmx_json.to_bool (get (Tmx_json.mem "truncated" j)));
        capped = get (Tmx_json.to_bool (get (Tmx_json.mem "capped" j)));
        graphs = get (Tmx_json.to_int (get (Tmx_json.mem "graphs" j)));
        (* absent in pre-reduction cache files: those were written by
           the unreduced enumerator, where explored = graphs *)
        explored =
          (match Tmx_json.mem "explored" j with
          | Some x -> get (Tmx_json.to_int x)
          | None -> get (Tmx_json.to_int (get (Tmx_json.mem "graphs" j))));
      };
    races = Array.of_list (List.map (fun ((_, r), _) -> r) parsed);
    mixed = Array.of_list (List.map (fun (_, m) -> m) parsed);
    lint_race_free =
      get (Tmx_json.to_bool (get (Tmx_json.mem "race_free" lint)));
    lint_findings = get (Tmx_json.to_int (get (Tmx_json.mem "findings" lint)));
    lint_mixed = get (Tmx_json.to_int (get (Tmx_json.mem "mixed" lint)));
  }

(* -- the store -------------------------------------------------------------- *)

type stats = {
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
  load_failures : int;
}

type shard = {
  lock : Mutex.t;
  lru : (string, verdict * int ref) Hashtbl.t;
  tick : int ref;
  capacity : int;
  mutable hits : int;
  mutable misses : int;
  mutable st_stores : int;
  mutable evictions : int;
  mutable load_failures : int;
}

type t = {
  cache_dir : string;
  version : string;
  shards : shard array;
}

(* first two hex digits of the (MD5-hex) key pick the shard: enough
   prefix for 256-way spread, and short enough that every digest the
   digester can produce carries it *)
let prefix_len = 2

let default_dir () =
  match Sys.getenv_opt "TMX_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> ".tmx-cache"

let ensure_dir d = if not (Sys.file_exists d) then Unix.mkdir d 0o755

let shard_dir_name i = Printf.sprintf "shard-%02d" i

let create ?(version = format_version) ?(capacity = 128) ?(shards = 1) ~dir () =
  let shards = max 1 shards in
  ensure_dir dir;
  if shards > 1 then
    for i = 0 to shards - 1 do
      ensure_dir (Filename.concat dir (shard_dir_name i))
    done;
  (* the total LRU budget is split across the shards (at least one
     entry each), so capacity keeps its meaning under sharding *)
  let per_shard = max 1 (capacity / shards) in
  {
    cache_dir = dir;
    version;
    shards =
      Array.init shards (fun _ ->
          {
            lock = Mutex.create ();
            lru = Hashtbl.create 64;
            tick = ref 0;
            capacity = per_shard;
            hits = 0;
            misses = 0;
            st_stores = 0;
            evictions = 0;
            load_failures = 0;
          });
  }

let dir t = t.cache_dir
let shard_count t = Array.length t.shards

let key t ~config model (program : Ast.program) =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            Canon.structural program;
            model.Model.name;
            Enumerate.config_key config;
            t.version;
          ]))

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg (Printf.sprintf "Cache: non-hex digest character %C" c)

(* A digest shorter than the shard prefix cannot be placed (truncated
   keys would silently alias into shard 0 and shadow each other), so it
   is a caller bug worth an exception rather than a miss. *)
let shard_index t k =
  if String.length k < prefix_len then
    invalid_arg
      (Printf.sprintf "Cache: digest %S shorter than the %d-char shard prefix"
         k prefix_len);
  ((hex_digit k.[0] * 16) + hex_digit k.[1]) mod Array.length t.shards

let shard_of_key t k = t.shards.(shard_index t k)

let entry_path t k =
  let i = shard_index t k in
  if Array.length t.shards = 1 then Filename.concat t.cache_dir (k ^ ".json")
  else Filename.concat (Filename.concat t.cache_dir (shard_dir_name i)) (k ^ ".json")

let locked (s : shard) f =
  Mutex.lock s.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) f

(* caller holds the shard lock *)
let lru_insert (s : shard) k v =
  (if (not (Hashtbl.mem s.lru k)) && Hashtbl.length s.lru >= s.capacity then
     (* evict the least recently used; capacity is small, a scan is fine *)
     let victim = ref None in
     Hashtbl.iter
       (fun k (_, tick) ->
         match !victim with
         | Some (_, best) when best <= !tick -> ()
         | _ -> victim := Some (k, !tick))
       s.lru;
     match !victim with
     | Some (k, _) ->
         Hashtbl.remove s.lru k;
         s.evictions <- s.evictions + 1
     | None -> ());
  incr s.tick;
  Hashtbl.replace s.lru k (v, ref !(s.tick))

let load_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Everything that can go wrong reading an entry — absent, torn,
   garbage, wrong shape, wrong version — lands in one of the three
   constructors; no exception escapes. *)
let load_disk t path =
  if not (Sys.file_exists path) then `Absent
  else
    match Tmx_json.of_string (load_file path) with
    | exception _ -> `Corrupt
    | Error _ -> `Corrupt
    | Ok j -> (
        match Option.bind (Tmx_json.mem "format" j) Tmx_json.to_str with
        | Some v when v = t.version -> (
            match verdict_of_json j with
            | v -> `Found v
            | exception _ -> `Corrupt)
        | _ -> `Corrupt)

let find t ~config model program =
  let k = key t ~config model program in
  let s = shard_of_key t k in
  let in_lru =
    locked s (fun () ->
        match Hashtbl.find_opt s.lru k with
        | Some (v, tick) ->
            incr s.tick;
            tick := !(s.tick);
            s.hits <- s.hits + 1;
            Some v
        | None -> None)
  in
  match in_lru with
  | Some v -> Some v
  | None -> (
      (* disk I/O outside the lock; a racing duplicate load is benign *)
      match load_disk t (entry_path t k) with
      | `Found v ->
          locked s (fun () ->
              s.hits <- s.hits + 1;
              lru_insert s k v);
          Some v
      | `Absent ->
          locked s (fun () -> s.misses <- s.misses + 1);
          None
      | `Corrupt ->
          locked s (fun () ->
              s.misses <- s.misses + 1;
              s.load_failures <- s.load_failures + 1);
          None)

let tmp_counter = Atomic.make 0

let store t ~config model program v =
  let k = key t ~config model program in
  let s = shard_of_key t k in
  let path = entry_path t k in
  let body =
    Tmx_json.to_string
      (json_of_verdict ~version:t.version
         ~model_name:model.Model.name
         ~config_key:(Enumerate.config_key config)
         v)
  in
  (* the temp file lives in the entry's own shard directory so the
     rename stays within one filesystem directory (atomic everywhere) *)
  let tmp =
    Filename.concat (Filename.dirname path)
      (Printf.sprintf ".tmp-%s-%d-%d" k (Unix.getpid ())
         (Atomic.fetch_and_add tmp_counter 1))
  in
  let oc = open_out_bin tmp in
  (try
     output_string oc body;
     close_out oc;
     Unix.rename tmp path
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with _ -> ());
     raise e);
  locked s (fun () ->
      s.st_stores <- s.st_stores + 1;
      lru_insert s k v)

let memo t ~config model program =
  match find t ~config model program with
  | Some v -> (v, `Hit)
  | None ->
      let v = compute ~config model program in
      store t ~config model program v;
      (v, `Miss)

let memo_run t ~config model program =
  (fst (memo t ~config model program)).result

let stats t =
  Array.fold_left
    (fun (acc : stats) s ->
      locked s (fun () ->
          {
            hits = acc.hits + s.hits;
            misses = acc.misses + s.misses;
            stores = acc.stores + s.st_stores;
            evictions = acc.evictions + s.evictions;
            load_failures = acc.load_failures + s.load_failures;
          }))
    { hits = 0; misses = 0; stores = 0; evictions = 0; load_failures = 0 }
    t.shards

let resident t =
  Array.fold_left
    (fun acc s -> acc + locked s (fun () -> Hashtbl.length s.lru))
    0 t.shards

(* -- maintenance ------------------------------------------------------------ *)

type disk_stats = {
  entries : int;
  bytes : int;
  current : int;
  stale : int;
  corrupt : int;
}

(* maintenance walks the flat layout and any shard-XX/ subdirectories
   in one pass, so one `tmx cache gc` serves both layouts *)
let entry_files dir =
  if not (Sys.file_exists dir) then []
  else
    let entries_in d =
      if not (Sys.file_exists d) then []
      else
        Sys.readdir d |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".json")
        |> List.map (Filename.concat d)
    in
    let shard_dirs =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f ->
             String.length f > 6
             && String.sub f 0 6 = "shard-"
             && Sys.is_directory (Filename.concat dir f))
      |> List.map (Filename.concat dir)
    in
    List.concat_map entries_in (dir :: shard_dirs) |> List.sort String.compare

let classify ~version path =
  match Tmx_json.of_string (load_file path) with
  | exception _ -> `Corrupt
  | Error _ -> `Corrupt
  | Ok j -> (
      match Option.bind (Tmx_json.mem "format" j) Tmx_json.to_str with
      | Some v when v = version -> (
          match verdict_of_json j with
          | _ -> `Current
          | exception _ -> `Corrupt)
      | Some _ -> `Stale
      | None -> `Corrupt)

let disk_stats ?(version = format_version) ~dir () =
  List.fold_left
    (fun acc path ->
      let size = try (Unix.stat path).Unix.st_size with _ -> 0 in
      let acc = { acc with entries = acc.entries + 1; bytes = acc.bytes + size } in
      match classify ~version path with
      | `Current -> { acc with current = acc.current + 1 }
      | `Stale -> { acc with stale = acc.stale + 1 }
      | `Corrupt -> { acc with corrupt = acc.corrupt + 1 })
    { entries = 0; bytes = 0; current = 0; stale = 0; corrupt = 0 }
    (entry_files dir)

let gc ?(version = format_version) ~dir () =
  List.fold_left
    (fun removed path ->
      match classify ~version path with
      | `Current -> removed
      | `Stale | `Corrupt -> (
          try
            Sys.remove path;
            removed + 1
          with _ -> removed))
    0 (entry_files dir)

let clear ~dir =
  List.fold_left
    (fun removed path ->
      try
        Sys.remove path;
        removed + 1
      with _ -> removed)
    0 (entry_files dir)
