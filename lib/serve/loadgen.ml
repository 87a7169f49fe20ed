module Json = Bfly_obs.Json
module Metrics = Bfly_obs.Metrics
module Span = Bfly_obs.Span
module Doc = Bfly_obs.Doc

let g_qps = Metrics.gauge "serve.qps"

type target = [ `Unix of string | `Tcp of string * int ]
type mode = Concurrent | Sequential | Connect of target

let mode_name = function
  | Concurrent -> "concurrent"
  | Sequential -> "sequential"
  | Connect _ -> "connect"

(* ---- deterministic schedule ---- *)

type event = { client : int; line : string }

(* FNV-1a, 64-bit: a stable, dependency-free content fingerprint for
   traces, schedules and output streams (not cryptographic — a drift
   detector, like bench value documents) *)
let fnv_fold h s =
  let h = ref h in
  String.iter
    (fun ch ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code ch)))
             0x100000001b3L)
    s;
  !h

let fnv_init = 0xcbf29ce484222325L
let fnv_hex h = Printf.sprintf "%016Lx" h
let fnv64 s = fnv_hex (fnv_fold fnv_init s)

let fingerprint_lines lines =
  fnv_hex (List.fold_left (fun h l -> fnv_fold h (l ^ "\n")) fnv_init lines)

(* [repeat] rounds over the trace; each round is a seeded permutation of
   the trace lines, and every event is assigned to a seeded client — so
   duplicates of one request interleave across rounds and clients the way
   real concurrent callers look, yet the whole schedule is a pure
   function of (trace, seed, clients, repeat). *)
let schedule ~seed ~clients ~repeat ~trace =
  if clients < 1 then invalid_arg "Loadgen.schedule: clients must be >= 1";
  if repeat < 1 then invalid_arg "Loadgen.schedule: repeat must be >= 1";
  let rng = Random.State.make [| 0x10adee; seed; clients; repeat |] in
  let lines = Array.of_list trace in
  let n = Array.length lines in
  let events = ref [] in
  for _round = 1 to repeat do
    let order = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let tmp = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- tmp
    done;
    Array.iter
      (fun ix ->
        events :=
          { client = Random.State.int rng clients; line = lines.(ix) }
          :: !events)
      order
  done;
  Array.of_list (List.rev !events)

let schedule_fingerprint events =
  fnv_hex
    (Array.fold_left
       (fun h ev -> fnv_fold h (Printf.sprintf "%d:%s\n" ev.client ev.line))
       fnv_init events)

(* responses are fingerprinted by their payload only — the [output] or
   [error] field — never the whole line: the [batch] width field reflects
   timing-dependent coalescing and must not enter a determinism gate *)
let response_payload = function
  | None -> "none"
  | Some line -> (
      match Json.of_string line with
      | Error _ -> "raw:" ^ line
      | Ok obj -> (
          match Option.bind (Json.member "output" obj) Json.to_string_opt with
          | Some out -> "o:" ^ out
          | None -> (
              match
                Option.bind (Json.member "error" obj) Json.to_string_opt
              with
              | Some err -> "e:" ^ err
              | None -> "s:stats")))

let outputs_fingerprint responses =
  fnv_hex
    (Array.fold_left
       (fun h r -> fnv_fold h (response_payload r ^ "\n"))
       fnv_init responses)

let response_ok = function
  | None -> false
  | Some line -> (
      match Json.of_string line with
      | Error _ -> false
      | Ok obj ->
          Option.value ~default:false
            (Option.bind (Json.member "ok" obj) Json.to_bool_opt))

(* ---- pacing and quantiles ---- *)

let pace ~t_start ~qps i =
  if qps > 0. then begin
    let due = t_start + int_of_float (float_of_int i *. 1e9 /. qps) in
    let now = Span.now_ns () in
    if due > now then Unix.sleepf (float_of_int (due - now) /. 1e9)
  end

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let q = Float.max 0. (Float.min 1. q) in
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* ---- in-process execution (Concurrent / Sequential) ---- *)

let run_in_process ~mode ~events ~clients ~qps ~workers ~queue_bound =
  let n = Array.length events in
  let queue_bound =
    match queue_bound with Some b -> b | None -> max 128 (n + 1)
  in
  let server = Server.create ~queue_bound () in
  let handles =
    Array.init clients (fun i ->
        Server.client ~name:(Printf.sprintf "c%d" i) server)
  in
  let dispatch =
    match mode with
    | Concurrent -> Some (Dispatch.create ~cap:workers server)
    | _ -> None
  in
  let responses = Array.make n None in
  let lat = Array.make n 0 in
  let t_start = Span.now_ns () in
  Array.iteri
    (fun i ev ->
      pace ~t_start ~qps i;
      let t0 = Span.now_ns () in
      Server.submit server
        ~client:handles.(ev.client)
        ~reply:(fun line ->
          lat.(i) <- Span.now_ns () - t0;
          responses.(i) <- Some line)
        ev.line;
      match dispatch with
      | Some d -> Dispatch.pump d
      | None -> ignore (Server.run_pending server))
    events;
  (match dispatch with
  | Some d ->
      Dispatch.pump d;
      Dispatch.wait_idle d
  | None -> ignore (Server.run_pending server));
  let wall_ns = Span.now_ns () - t_start in
  (responses, lat, wall_ns, Some (Server.stats_json server))

(* ---- external-server execution (Connect) ---- *)

let connect_fd target =
  match target with
  | `Unix path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_UNIX path)
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      fd
  | `Tcp (host, port) ->
      let inet =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
          | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
          | _ -> failwith (Printf.sprintf "cannot resolve host %S" host))
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         Unix.connect fd (Unix.ADDR_INET (inet, port));
         Unix.setsockopt fd Unix.TCP_NODELAY true
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      fd

let write_line fd line =
  let s = line ^ "\n" in
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let pos = ref 0 in
  while !pos < len do
    match Unix.write fd b !pos (len - !pos) with
    | 0 -> raise Exit
    | k -> pos := !pos + k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* One real connection per client: a writer (the client thread itself,
   pacing its events against the global schedule clock) plus a reader
   thread relying on the transport's per-connection ordering guarantee —
   response k on a connection answers that connection's request k. *)
let run_connect ~target ~events ~clients ~qps =
  let n = Array.length events in
  let per = Array.make clients [] in
  Array.iteri (fun i ev -> per.(ev.client) <- (i, ev.line) :: per.(ev.client))
    events;
  let per = Array.map List.rev per in
  let responses = Array.make n None in
  let send_ns = Array.make n 0 in
  let recv_ns = Array.make n 0 in
  let failures = Atomic.make 0 in
  let t_start = Span.now_ns () in
  let client_thread ci () =
    match per.(ci) with
    | [] -> ()
    | evs -> (
        match connect_fd target with
        | exception _ -> Atomic.incr failures
        | fd ->
            let reader =
              Thread.create
                (fun () ->
                  let ic = Unix.in_channel_of_descr fd in
                  List.iter
                    (fun (i, _) ->
                      match In_channel.input_line ic with
                      | Some line ->
                          recv_ns.(i) <- Span.now_ns ();
                          responses.(i) <- Some line
                      | None -> ())
                    evs)
                ()
            in
            (try
               List.iter
                 (fun (i, line) ->
                   pace ~t_start ~qps i;
                   send_ns.(i) <- Span.now_ns ();
                   write_line fd line)
                 evs
             with _ -> Atomic.incr failures);
            (try Unix.shutdown fd Unix.SHUTDOWN_SEND
             with Unix.Unix_error _ -> ());
            Thread.join reader;
            (try Unix.close fd with Unix.Unix_error _ -> ()))
  in
  let threads = List.init clients (fun ci -> Thread.create (client_thread ci) ()) in
  List.iter Thread.join threads;
  let wall_ns = Span.now_ns () - t_start in
  let lat =
    Array.init n (fun i ->
        if responses.(i) = None then 0 else max 0 (recv_ns.(i) - send_ns.(i)))
  in
  (* a best-effort stats fetch over one extra connection, embedded for
     inspection (excluded from the deterministic view) *)
  let server_stats =
    match connect_fd target with
    | exception _ -> None
    | fd ->
        let stats =
          try
            write_line fd {|{"id":"loadgen-stats","job":"stats"}|};
            let ic = Unix.in_channel_of_descr fd in
            match In_channel.input_line ic with
            | Some line -> (
                match Json.of_string line with Ok j -> Some j | Error _ -> None)
            | None -> None
          with _ -> None
        in
        (try Unix.close fd with Unix.Unix_error _ -> ());
        stats
  in
  ignore (Atomic.get failures);
  (responses, lat, wall_ns, server_stats)

(* ---- the document ---- *)

let schema = "bfly-loadgen/1"

let document ~mode ~seed ~clients ~repeat ~qps ~workers ~trace ~events
    ~responses ~lat ~wall_ns ~server_stats =
  let n = Array.length events in
  let answered = Array.fold_left (fun a r -> if r <> None then a + 1 else a) 0 responses in
  let ok = Array.fold_left (fun a r -> if response_ok r then a + 1 else a) 0 responses in
  let sorted = Array.copy lat in
  Array.sort compare sorted;
  let achieved_qps =
    if wall_ns <= 0 then 0.
    else float_of_int n /. (float_of_int wall_ns /. 1e9)
  in
  Metrics.set g_qps achieved_qps;
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("mode", Json.Str (mode_name mode));
      ("seed", Json.Int seed);
      ("clients", Json.Int clients);
      ("repeat", Json.Int repeat);
      ("qps_target", Json.Float qps);
      ("workers", Json.Int workers);
      ("trace_fingerprint", Json.Str (fingerprint_lines trace));
      ("schedule_fingerprint", Json.Str (schedule_fingerprint events));
      ("requests", Json.Int n);
      ("responses", Json.Int answered);
      ("ok", Json.Int ok);
      ("errors", Json.Int (n - ok));
      ("outputs_fingerprint", Json.Str (outputs_fingerprint responses));
      ( "timing",
        Json.Obj
          [
            ("wall_ns", Json.Int wall_ns);
            ("achieved_qps", Json.Float achieved_qps);
            ("p50_ns", Json.Int (quantile sorted 0.5));
            ("p90_ns", Json.Int (quantile sorted 0.9));
            ("p99_ns", Json.Int (quantile sorted 0.99));
            ("max_ns", Json.Int (if Array.length sorted = 0 then 0 else sorted.(Array.length sorted - 1)));
          ] );
      ( "server",
        match server_stats with Some s -> s | None -> Json.Null );
    ]

let run ?(seed = 1) ?(clients = 4) ?(repeat = 10) ?(qps = 0.) ?workers
    ?queue_bound ?(mode = Concurrent) ~trace () =
  let trace = List.filter (fun l -> String.trim l <> "") trace in
  if trace = [] then Error "loadgen: empty trace"
  else begin
    let workers =
      match workers with
      | Some w when w >= 1 -> w
      | Some _ -> 1
      | None -> Bfly_graph.Parallel.domain_count ()
    in
    let events = schedule ~seed ~clients ~repeat ~trace in
    match
      match mode with
      | Connect target -> run_connect ~target ~events ~clients ~qps
      | _ -> run_in_process ~mode ~events ~clients ~qps ~workers ~queue_bound
    with
    | exception e -> Error ("loadgen: " ^ Printexc.to_string e)
    | responses, lat, wall_ns, server_stats ->
        Ok
          (document ~mode ~seed ~clients ~repeat ~qps ~workers ~trace ~events
             ~responses ~lat ~wall_ns ~server_stats)
  end

(* ---- the --compare gate ---- *)

(* the fields two runs of one (trace, seed, clients, repeat) must agree
   on whatever the mode, worker count or machine: the schedule and the
   response payloads. [workers]/[mode] are intentionally absent — output
   bytes not depending on them is the concurrency contract. *)
let deterministic_fields =
  [
    "seed";
    "clients";
    "repeat";
    "trace_fingerprint";
    "schedule_fingerprint";
    "requests";
    "responses";
    "ok";
    "errors";
    "outputs_fingerprint";
  ]

let gate ?(slack = 3.0) ?(timing = true) () =
  (Doc.config "schema" :: List.map Doc.exact deterministic_fields)
  @
  if timing then
    [
      Doc.slack ~better:`Lower slack "timing/p99_ns";
      Doc.slack ~better:`Higher slack "timing/achieved_qps";
    ]
  else []
