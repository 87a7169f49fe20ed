module Json = Bfly_obs.Json
module Budget = Bfly_resil.Budget

type payload =
  | Job of { spec : Job.spec; deadline : Budget.t option }
  | Stats

type request = { id : string; payload : payload }

(* ---- request parsing ---- *)

(* The envelope only: the job's own fields are decoded by Job.parse, the
   decoder the one-shot CLI uses too. *)
let parse_request ~default_id line =
  match Json.of_string line with
  | Error m -> Error ("request is not valid JSON: " ^ m, default_id)
  | Ok obj when Json.duplicate_key obj <> None ->
      (* first-key-wins lookup would silently ignore the later value; an
         ambiguous request is malformed, not a preference *)
      let k = Option.get (Json.duplicate_key obj) in
      Error (Printf.sprintf "duplicate key %S in request object" k, default_id)
  | Ok (Json.Obj _ as obj) -> (
      let field k = Json.member k obj in
      let id =
        match field "id" with
        | Some (Json.Str s) -> s
        | Some (Json.Int i) -> string_of_int i
        | _ -> default_id
      in
      match field "job" with
      | None -> Error ("field \"job\" is required", id)
      | Some (Json.Str "stats") -> Ok { id; payload = Stats }
      | Some (Json.Str job) -> (
          let deadline =
            match field "deadline" with
            | None -> Ok None
            | Some (Json.Str s) -> (
                match Budget.of_string s with
                | Ok b -> Ok (Some b)
                | Error e -> Error ("bad deadline: " ^ e))
            | Some _ -> Error "field \"deadline\" must be a string"
          in
          match deadline with
          | Error m -> Error (m, id)
          | Ok deadline -> (
              match Job.parse ~job field with
              | Error m -> Error (m, id)
              | Ok spec -> Ok { id; payload = Job { spec; deadline } }))
      | Some _ -> Error ("field \"job\" must be a string", id))
  | Ok _ -> Error ("request must be a JSON object", default_id)

(* ---- responses ---- *)

let ok_response ~id ~batch ~output =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Str id);
         ("ok", Json.Bool true);
         ("batch", Json.Int batch);
         ("output", Json.Str output);
       ])

let error_response ~id msg =
  Json.to_string
    (Json.Obj
       [ ("id", Json.Str id); ("ok", Json.Bool false); ("error", Json.Str msg) ])

let stats_response ~id stats =
  let fields = match stats with Json.Obj f -> f | v -> [ ("stats", v) ] in
  Json.to_string
    (Json.Obj ([ ("id", Json.Str id); ("ok", Json.Bool true) ] @ fields))
