type path = string

let get doc path =
  List.fold_left
    (fun acc seg ->
      match acc with
      | Some (Json.Obj _ as v) -> Json.member seg v
      | Some (Json.List l) -> (
          match int_of_string_opt seg with
          | Some i when i >= 0 -> List.nth_opt l i
          | _ -> None)
      | _ -> None)
    (Some doc)
    (List.filter (( <> ) "") (String.split_on_char '/' path))

let load file =
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error e -> Error e
  | text ->
      Result.map_error
        (fun e -> Printf.sprintf "%s is not valid JSON: %s" file e)
        (Json.of_string text)

type field =
  | Exact of path
  | Config of path * string option
  | Slack of path * [ `Lower | `Higher ] * float
  | Rows of { path : path; key : path list; subset : bool; cols : field list }
  | When_same of path list * field list

type schema = field list

let exact p = Exact p
let config ?hint p = Config (p, hint)
let slack ~better factor p = Slack (p, better, factor)
let rows ?(subset = false) ~key path cols = Rows { path; key; subset; cols }
let when_same guards fields = When_same (guards, fields)

type verdict = Refused of string | Drifts of string list

exception Refuse of string

let show = function Json.Str s -> s | v -> Json.to_string v

let first_diff ~base cur =
  let rec go i = function
    | c :: rc, b :: rb ->
        if c = b then go (i + 1) (rc, rb)
        else Printf.sprintf "line %d: %S vs baseline %S" i c b
    | c :: _, [] -> Printf.sprintf "extra line %d: %S" i c
    | [], b :: _ -> Printf.sprintf "missing line %d: %S" i b
    | [], [] -> "?"
  in
  go 1 (String.split_on_char '\n' cur, String.split_on_char '\n' base)

let difference ~base cur =
  match (base, cur) with
  | Json.Str b, Json.Str c when String.contains b '\n' || String.contains c '\n'
    ->
      first_diff ~base:b c
  | (Json.Obj _ | Json.List _), _ | _, (Json.Obj _ | Json.List _) ->
      "differs from baseline (diff this field of the two documents)"
  | _ ->
      Printf.sprintf "baseline %s, current %s" (Json.to_string base)
        (Json.to_string cur)

let same a b =
  Option.map Json.to_string a = Option.map Json.to_string b

let number = function
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some (Json.Float f) -> Some f
  | _ -> None

(* [at] prefixes a path with the row it lives in; [push] collects drift *)
let rec check ~push ~at ~baseline current field =
  let drift fmt = Printf.ksprintf push fmt in
  let missing p side = drift "%s: missing from %s" (at p) side in
  match field with
  | Exact p -> (
      match (get baseline p, get current p) with
      | Some b, Some c ->
          if Json.to_string b <> Json.to_string c then
            drift "%s: %s" (at p) (difference ~base:b c)
      | None, _ -> missing p "baseline"
      | _, None -> missing p "current document")
  | Config (p, hint) ->
      let b = get baseline p and c = get current p in
      if b = None || not (same b c) then
        let side = Option.fold ~none:"missing" ~some:Json.to_string in
        raise
          (Refuse
             (Printf.sprintf "%s: baseline %s, this run %s%s" (at p) (side b)
                (side c)
                (Option.fold ~none:"" ~some:(( ^ ) " — ") hint)))
  | Slack (p, better, factor) -> (
      match (number (get baseline p), number (get current p)) with
      | Some b, Some c ->
          let worse, how =
            match better with
            | `Lower -> (c > b *. factor, "exceeds")
            | `Higher -> (c < b /. factor, "is below")
          in
          if b > 0. && worse then
            drift "%s: %g %s baseline %g by more than %.1fx" (at p) c how b
              factor
      | None, _ -> missing p "baseline (or not a number)"
      | _, None -> missing p "current document (or not a number)")
  | Rows { path = p; key; subset; cols } -> (
      match (get baseline p, get current p) with
      | Some (Json.List bl), Some (Json.List cl) ->
          let keyed side =
            List.filter_map (fun row ->
                let parts =
                  List.filter_map
                    (fun k -> Option.map (fun v -> k ^ "=" ^ show v) (get row k))
                    key
                in
                if List.length parts = List.length key then
                  Some (String.concat "," parts, row)
                else (
                  drift "%s: %s row without key %s" (at p) side
                    (String.concat "," key);
                  None))
          in
          let bk = keyed "baseline" bl and ck = keyed "current" cl in
          if cl = [] then drift "%s: current document has no rows" (at p);
          List.iter
            (fun (k, c) ->
              match List.assoc_opt k bk with
              | None -> drift "%s[%s]: not in baseline" (at p) k
              | Some b ->
                  let at q = Printf.sprintf "%s[%s]/%s" (at p) k q in
                  List.iter (check ~push ~at ~baseline:b c) cols)
            ck;
          if not subset then
            List.iter
              (fun (k, _) ->
                if not (List.mem_assoc k ck) then
                  drift "%s[%s]: in baseline, not in current document" (at p) k)
              bk
      | Some (Json.List _), _ -> missing p "current document (or not a list)"
      | _ -> missing p "baseline (or not a list)")
  | When_same (guards, fields) ->
      if List.for_all (fun g -> same (get baseline g) (get current g)) guards
      then List.iter (check ~push ~at ~baseline current) fields

let compare ~schema ~baseline current =
  let drifts = ref [] in
  let push m = drifts := m :: !drifts in
  match List.iter (check ~push ~at:Fun.id ~baseline current) schema with
  | () -> Drifts (List.rev !drifts)
  | exception Refuse m -> Refused m
