(* Benchmark-regression guard: compare two perfbench records metric by
   metric, with each metric's direction and end-to-end bound taken from
   the benchmark manifest.  Exposed as `tmx bench-compare OLD NEW`; CI
   runs it on a same-host pair of records (the parent commit's and the
   pushed commit's). *)

module Json = Tmx_json

let default_threshold = 0.25

type metric = {
  name : string;
  old_value : float;
  new_value : float;
  worse : float;  (* relative change in the bad direction; < 0 is better *)
  bound : float;
  gated : bool;  (* a regression of this metric fails the comparison *)
}

let regressed m = m.worse > m.bound

type verdict = {
  metrics : metric list;  (* every measured metric of OLD that NEW reports *)
  missing : string list;  (* gated metrics of OLD absent from NEW *)
  failures : string list;  (* NEW's failed output checks *)
  host_warnings : string list;  (* host fields that differ *)
}

let ( let* ) = Result.bind
let field conv key j = Option.bind (Json.mem key j) conv
let list key j = Option.value ~default:[] (field Json.to_list key j)

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | s -> Result.map_error (fun e -> Fmt.str "%s: %s" path e) (Json.of_string s)

(* metric name -> (higher is better, bound); per-layer metrics have no
   bound in the manifest *)
let read_manifest path =
  let* j = read_json path in
  let specs key =
    List.filter_map
      (fun m ->
        match (field Json.to_str "name" m, field Json.to_str "better" m) with
        | Some name, Some better ->
            Some (name, (better = "higher", field Json.to_float_opt "bound" m))
        | _ -> None)
      (list key j)
  in
  match specs "end_to_end" @ specs "per_layer" with
  | [] -> Error (path ^ ": no metrics listed")
  | specs -> Ok specs

let read_record path =
  let* j = read_json path in
  match Json.mem "record" j with
  | Some r -> Ok r
  | None -> Error (path ^ ": not a perfbench record")

(* name -> (value, samples) *)
let values r =
  List.filter_map
    (fun m ->
      match (field Json.to_str "name" m, field Json.to_float_opt "value" m) with
      | Some name, Some v ->
          Some (name, (v, Option.value ~default:0 (field Json.to_int "samples" m)))
      | _ -> None)
    (list "metrics" r)

(* the fields among [keys] on which two objects disagree, rendered *)
let differing keys a b =
  List.filter_map
    (fun k ->
      let show j = Option.fold ~none:"none" ~some:Json.to_string (Json.mem k j) in
      let x = show a and y = show b in
      if x = y then None else Some (Fmt.str "%s %s vs %s" k x y))
    keys

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* relative change in the bad direction; from 0 any worsening is
   unbounded *)
let worsening ~higher ~old_value ~new_value =
  let d = if higher then old_value -. new_value else new_value -. old_value in
  if d = 0. then 0.
  else if old_value = 0. then Float.copy_sign Float.infinity d
  else d /. Float.abs old_value

let manifest = "BENCHMARK.json"

let compare_files ?(threshold = default_threshold) ?(gate_keys = []) old_path new_path =
  let* specs = read_manifest manifest in
  let* old_r = read_record old_path in
  let* new_r = read_record new_path in
  let* () =
    match differing [ "workload"; "seed"; "trace" ] old_r new_r with
    | [] -> Ok ()
    | d -> Error ("the records measure different runs: " ^ String.concat ", " d)
  in
  let new_values = values new_r in
  let gated name = gate_keys = [] || List.exists (contains name) gate_keys in
  (* a layer that does no work on a workload reports 0 samples *)
  let measured (name, (_, n)) =
    n > 0
    || match List.assoc_opt name new_values with Some (_, m) -> m > 0 | None -> true
  in
  let judge (name, (old_value, _)) =
    match List.assoc_opt name specs with
    | None -> Error (Fmt.str "%s: metric %S is not in %s" old_path name manifest)
    | Some (higher, bound) ->
        Ok
          (match List.assoc_opt name new_values with
          | None -> Either.Right name
          | Some (new_value, _) ->
              Left
                {
                  name;
                  old_value;
                  new_value;
                  worse = worsening ~higher ~old_value ~new_value;
                  bound = Option.value bound ~default:threshold;
                  gated = gated name;
                })
  in
  let* judged =
    List.fold_right
      (fun m acc ->
        let* acc = acc in
        let* j = judge m in
        Ok (j :: acc))
      (List.filter measured (values old_r))
      (Ok [])
  in
  let metrics, missing = List.partition_map Fun.id judged in
  let host r = Option.value ~default:Json.Null (Json.mem "host" r) in
  Ok
    {
      metrics;
      missing = List.filter gated missing;
      failures = List.filter_map Json.to_str (list "failures" new_r);
      host_warnings = differing [ "cores"; "cpu"; "ocaml" ] (host old_r) (host new_r);
    }

let passed v =
  v.missing = [] && v.failures = []
  && not (List.exists (fun m -> m.gated && regressed m) v.metrics)

let pp_metric ppf m =
  Fmt.pf ppf "%-34s %14.6g %14.6g %+8.1f%% %5g%%%s" m.name m.old_value m.new_value
    (100. *. m.worse) (100. *. m.bound)
    (if not (regressed m) then ""
     else if m.gated then "  <-- REGRESSION"
     else "  <-- regression (not gated)")

let pp_verdict ppf v =
  let line fmt = Fmt.pf ppf (fmt ^^ "@.") in
  List.iter (line "WARNING: host differs (%s); not judged") v.host_warnings;
  line "%-34s %14s %14s %9s %6s" "metric" "old" "new" "worse" "bound";
  List.iter (line "%a" pp_metric) v.metrics;
  List.iter (line "%-34s missing from NEW  <-- FAIL") v.missing;
  List.iter (line "NEW failed a check: %s  <-- FAIL") v.failures;
  let within = List.filter (fun m -> not (regressed m)) v.metrics in
  line "%d/%d metrics within their bounds%s" (List.length within)
    (List.length v.metrics)
    (if passed v then "" else "  <-- FAIL")
