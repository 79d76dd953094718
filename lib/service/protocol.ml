(* NDJSON request/response framing for tmx serve. *)

type request = {
  id : Tmx_json.t option;
  verb : string;
  name : string option;
  program : string option;
  model : string;
  deadline_ms : int option;
  subrequests : request list;
}

let rec request_of_json j =
  match Tmx_json.mem "verb" j with
  | None -> Error "request has no \"verb\""
  | Some verb -> (
      match Tmx_json.to_str verb with
      | None -> Error "\"verb\" must be a string"
      | Some verb -> (
          let str_field k = Option.bind (Tmx_json.mem k j) Tmx_json.to_str in
          let subrequests =
            match Option.bind (Tmx_json.mem "requests" j) Tmx_json.to_list with
            | None -> Ok []
            | Some subs ->
                List.fold_left
                  (fun acc sub ->
                    Result.bind acc (fun acc ->
                        Result.map (fun r -> r :: acc) (request_of_json sub)))
                  (Ok []) subs
                |> Result.map List.rev
          in
          match subrequests with
          | Error e -> Error e
          | Ok subrequests ->
              Ok
                {
                  id = Tmx_json.mem "id" j;
                  verb;
                  name = str_field "name";
                  program = str_field "program";
                  model = Option.value ~default:"pm" (str_field "model");
                  deadline_ms =
                    Option.bind (Tmx_json.mem "deadline_ms" j) Tmx_json.to_int;
                  subrequests;
                }))

let of_line line =
  match Tmx_json.of_string line with
  | Error e -> Error (Printf.sprintf "bad JSON: %s" e)
  | Ok j -> request_of_json j

let rec to_json r =
  let fields =
    List.filter_map Fun.id
      [
        Option.map (fun id -> ("id", id)) r.id;
        Some ("verb", Tmx_json.str r.verb);
        Option.map (fun n -> ("name", Tmx_json.str n)) r.name;
        Option.map (fun p -> ("program", Tmx_json.str p)) r.program;
        (if r.model = "pm" then None else Some ("model", Tmx_json.str r.model));
        Option.map (fun d -> ("deadline_ms", Tmx_json.int d)) r.deadline_ms;
        (match r.subrequests with
        | [] -> None
        | subs -> Some ("requests", Tmx_json.Arr (List.map to_json subs)));
      ]
  in
  Tmx_json.Obj fields

let base ?id ~verb ok_ =
  List.filter_map Fun.id
    [
      Some ("ok", Tmx_json.bool ok_);
      Some ("verb", Tmx_json.str verb);
      Option.map (fun id -> ("id", id)) id;
    ]

let ok ?id ~verb fields = Tmx_json.Obj (base ?id ~verb true @ fields)
let error ?id ~verb msg =
  Tmx_json.Obj (base ?id ~verb false @ [ ("error", Tmx_json.str msg) ])

let overloaded ?id ~verb () =
  Tmx_json.Obj
    (base ?id ~verb false
    @ [
        ("error", Tmx_json.str "overloaded");
        ("overloaded", Tmx_json.bool true);
      ])

let response_overloaded j =
  match Option.bind (Tmx_json.mem "overloaded" j) Tmx_json.to_bool with
  | Some b -> b
  | None -> false

let response_ok j =
  match Option.bind (Tmx_json.mem "ok" j) Tmx_json.to_bool with
  | Some b -> b
  | None -> false
