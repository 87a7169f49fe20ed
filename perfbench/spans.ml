(* In-memory spans for the traced runs. Each span has a name, a start and
   an end on the monotonic clock, the span that caused it, and the request
   (or job) it belongs to; spans of one request share that id. Untraced
   runs create a recorder with [~on:false], which records nothing and
   leaves only the closure call on the path. *)

type span = {
  sid : int;
  name : string;
  req : int;
  parent : int;
  t0 : int;
  t1 : int;
}

type t = {
  on : bool;
  m : Mutex.t;
  mutable next : int;
  mutable spans : span list;
}

let create ~on = { on; m = Mutex.create (); next = 0; spans = [] }
let now = Bfly_obs.Span.now_ns

let fresh t =
  Mutex.protect t.m (fun () ->
      let id = t.next in
      t.next <- id + 1;
      id)

let push t s = Mutex.protect t.m (fun () -> t.spans <- s :: t.spans)

(* An id for a span whose interval is known only later, so that its
   children can name it as their parent before it is recorded. *)
let reserve t = if t.on then fresh t else -1

(* A span timed by the caller (e.g. a queue wait that starts on another
   thread); [sid] is one from {!reserve}. *)
let record t ?sid ?(parent = -1) ~req name t0 t1 =
  if t.on then
    let sid = match sid with Some s -> s | None -> fresh t in
    push t { sid; name; req; parent; t0; t1 }

let within t ?(parent = -1) ~req name f =
  if not t.on then f (-1)
  else begin
    let sid = fresh t in
    let t0 = now () in
    Fun.protect
      ~finally:(fun () -> push t { sid; name; req; parent; t0; t1 = now () })
      (fun () -> f sid)
  end

let spans t = List.rev t.spans
let dur s = s.t1 - s.t0

let durations t name =
  List.filter_map (fun s -> if s.name = name then Some (dur s) else None)
    (spans t)

let total_ns t name = List.fold_left ( + ) 0 (durations t name)

(* Self time of every span: its duration minus the union of its children's
   intervals, clipped to it. Summed per span name. *)
let self_ns t =
  let all = spans t in
  let kids = Hashtbl.create 256 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add kids s.parent (s.t0, s.t1))
    all;
  let self s =
    let ivs =
      List.sort compare
        (List.map
           (fun (a, b) -> (max a s.t0, min b s.t1))
           (Hashtbl.find_all kids s.sid))
    in
    let covered, _ =
      List.fold_left
        (fun (acc, hi) (a, b) ->
          let a = max a hi in
          if b > a then (acc + (b - a), b) else (acc, hi))
        (0, s.t0) ivs
    in
    dur s - covered
  in
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let c, tot, sf =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0, 0)
      in
      Hashtbl.replace tbl s.name (c + 1, tot + dur s, sf + self s))
    all;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* One JSON object per span, written when the run ends. *)
let dump t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"sid\":%d,\"name\":%S,\"req\":%d,\"parent\":%d,\"t0\":%d,\"t1\":%d}\n"
        s.sid s.name s.req s.parent s.t0 s.t1)
    (spans t);
  close_out oc
