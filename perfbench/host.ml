(* The host fingerprint every record carries, so numbers from different
   machines are never compared as like for like. *)

let read_first_line cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | exception Unix.Unix_error _ -> None
  | ic ->
      let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
      ignore (Unix.close_process_in ic);
      match line with Some "" -> None | l -> l

let cpu_model () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> "unknown"
        | l -> (
            match String.index_opt l ':' with
            | Some i when String.length l > 10 && String.sub l 0 10 = "model name"
              ->
                String.trim (String.sub l (i + 1) (String.length l - i - 1))
            | _ -> go ())
      in
      let m = go () in
      close_in ic;
      m

(* MD5 over the program's sources (lib/ and bin/), which identifies the
   code under test where no git metadata is present *)
let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | entries ->
        Array.sort compare entries;
        List.concat_map
          (fun e ->
            let p = Filename.concat dir e in
            if Sys.is_directory p then files p
            else if
              List.exists (Filename.check_suffix e) [ ".ml"; ".mli"; ".c" ]
              || e = "dune"
            then [ p ]
            else [])
          (Array.to_list entries)
  in
  let paths = files "lib" @ files "bin" in
  Digest.to_hex
    (Digest.string
       (String.concat "\000"
          (List.map (fun p -> p ^ "\000" ^ Digest.to_hex (Digest.file p)) paths)))

let date () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.tm_year + 1900)
    (t.tm_mon + 1) t.tm_mday t.tm_hour t.tm_min t.tm_sec

let cores () = Domain.recommended_domain_count ()

let fingerprint () =
  let open Tmx_service.Json in
  Obj
    [
      ("cores", int (cores ()));
      ("cpu", str (cpu_model ()));
      ("ocaml", str Sys.ocaml_version);
      ( "commit",
        str (Option.value ~default:"none" (read_first_line "git rev-parse HEAD")) );
      ("source_md5", str (source_digest ()));
      ("date", str (date ()));
    ]
