(* In-memory span recording around the benchmark's calls into each
   layer.  Off by default: [with_] then costs one branch.  When on, each
   span records its name, start, end, domain and the span that caused
   it; the spans stay in memory and are written out once, at the end. *)

type t = {
  id : int;
  parent : int;  (* 0: no parent *)
  name : string;
  domain : int;
  t0 : int;  (* monotonic ns *)
  t1 : int;
}

let enabled = ref false
let next_id = Atomic.make 1
let lock = Mutex.create ()
let recorded : t list ref = ref []
let current = Domain.DLS.new_key (fun () -> ref 0)

let record s =
  Mutex.lock lock;
  recorded := s :: !recorded;
  Mutex.unlock lock

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let cur = Domain.DLS.get current in
    let parent = !cur in
    cur := id;
    let t0 = Tmx_runtime.Clock.now_ns () in
    let finish () =
      cur := parent;
      record
        {
          id;
          parent;
          name;
          domain = (Domain.self () :> int);
          t0;
          t1 = Tmx_runtime.Clock.now_ns ();
        }
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

let all () = List.rev !recorded
let seconds s = float_of_int (s.t1 - s.t0) *. 1e-9

(* self time per span name: duration minus the part its children cover *)
let self_times () =
  let spans = all () in
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (seconds s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  let self = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let own =
        seconds s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)
      in
      let n, t = Option.value ~default:(0, 0.0) (Hashtbl.find_opt self s.name) in
      Hashtbl.replace self s.name (n + 1, t +. own))
    spans;
  List.sort compare (Hashtbl.fold (fun k (n, t) acc -> (k, n, t) :: acc) self [])

(* Chrome trace-event JSON (viewable in Perfetto or chrome://tracing) *)
let write_chrome file =
  let oc = open_out file in
  output_string oc "{\"traceEvents\":[";
  let origin =
    List.fold_left (fun m s -> min m s.t0) max_int (all ())
  in
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
        s.name s.domain
        (float_of_int (s.t0 - origin) /. 1e3)
        (float_of_int (s.t1 - s.t0) /. 1e3)
        s.id s.parent)
    (all ());
  output_string oc "]}\n";
  close_out oc
