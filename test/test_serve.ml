(* Tests for the batch query service (lib/serve): request parsing, the
   Job execution vocabulary, coalescing, admission control, per-request
   deadlines, drain semantics, and the headline guarantee — a served
   response's output field is byte-identical to the one-shot subcommand,
   warm or cold cache, whatever the concurrency. The later cases drive
   the real transports (Unix socket and TCP) from concurrent client
   threads: per-connection response ordering, single-flight coalescing
   under concurrency, disconnect/oversized/garbage fault paths, per-client
   admission, and a chaos run under injected worker faults. *)

module Server = Bfly_serve.Server
module Job = Bfly_serve.Job
module Protocol = Bfly_serve.Protocol
module Latency = Bfly_serve.Latency
module Json = Bfly_obs.Json
module Metrics = Bfly_obs.Metrics
module Config = Bfly_cache.Config
module Store = Bfly_cache.Store
open Tu

let counter name = Metrics.counter_value (Metrics.counter name)

(* Isolate each case in its own empty cache directory (same discipline as
   test_cache.ml): serve results must not depend on what earlier suites
   happened to compute. *)
let fresh_id = ref 0

let with_fresh_cache f =
  incr fresh_id;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bfly-serve-test-%d-%d" (Unix.getpid ()) !fresh_id)
  in
  let was_enabled = Config.enabled () in
  let old_dir = Config.dir () in
  let restore () =
    Config.set_enabled true;
    Config.set_dir dir;
    ignore (Store.clear ());
    (try Unix.rmdir dir with Unix.Unix_error _ | Sys_error _ -> ());
    Config.set_enabled was_enabled;
    Config.set_dir old_dir;
    Store.reset_memory ()
  in
  Config.set_enabled true;
  Config.set_dir dir;
  Store.reset_memory ();
  match f () with
  | v ->
      restore ();
      v
  | exception e ->
      restore ();
      raise e

(* submit a line and capture every response addressed to it *)
let replay server lines =
  let responses = ref [] in
  List.iter
    (fun line ->
      Server.submit server ~reply:(fun r -> responses := r :: !responses) line)
    lines;
  ignore (Server.run_pending server);
  List.rev !responses

let parse_response line =
  match Json.of_string line with
  | Ok obj -> obj
  | Error e -> Alcotest.failf "unparseable response %s: %s" line e

let str_field obj k =
  match Option.bind (Json.member k obj) Json.to_string_opt with
  | Some s -> s
  | None -> Alcotest.failf "response lacks string field %S: %s" k (Json.to_string obj)

let int_field obj k =
  match Option.bind (Json.member k obj) Json.to_int_opt with
  | Some i -> i
  | None -> Alcotest.failf "response lacks int field %S: %s" k (Json.to_string obj)

let bool_field obj k =
  match Option.bind (Json.member k obj) Json.to_bool_opt with
  | Some b -> b
  | None -> Alcotest.failf "response lacks bool field %S: %s" k (Json.to_string obj)

(* ---- the replay trace: 12 distinct jobs, each requested 10 times ---- *)

let bw solver ?(n = 16) ?(seed = 1) ?(restarts = 4) () =
  ( Printf.sprintf
      {|{"job":"bw","solver":"%s","network":"butterfly","n":%d,"seed":%d,"restarts":%d}|}
      (Job.solver_name solver) n seed restarts,
    Job.Bw
      {
        Job.solver;
        net = Job.Butterfly;
        n;
        seed;
        restarts;
        max_nodes = None;
        resume = false;
      } )

let distinct_jobs =
  [
    bw Job.Kl ();
    bw Job.Kl ~seed:2 ();
    bw Job.Kl ~seed:3 ();
    bw Job.Fm ();
    bw Job.Sa ~n:8 ~restarts:2 ();
    bw Job.Spectral ();
    bw Job.Exact ~n:8 ();
    ( {|{"job":"mos","j":2}|}, Job.Mos { j = 2 } );
    ( {|{"job":"mos","j":3}|}, Job.Mos { j = 3 } );
    ( {|{"job":"ee","network":"butterfly","n":8,"k":4,"exact":true}|},
      Job.Expansion
        { kind = `Ee; net = Job.Butterfly; n = 8; k = 4; exact = true; seed = 1 }
    );
    ( {|{"job":"ne","network":"butterfly","n":8,"k":4,"exact":true}|},
      Job.Expansion
        { kind = `Ne; net = Job.Butterfly; n = 8; k = 4; exact = true; seed = 1 }
    );
    ( {|{"job":"expansion","network":"wrapped","n":8,"k":6,"exact":true}|},
      Job.Expansion
        { kind = `Both; net = Job.Wrapped; n = 8; k = 6; exact = true; seed = 1 }
    );
  ]

let copies = 10

(* the duplicates are interleaved, not adjacent: request i of round r is
   distinct from its neighbours, the way concurrent clients look *)
let trace_lines () =
  List.concat_map
    (fun _round -> List.map fst distinct_jobs)
    (List.init copies Fun.id)

(* ---- cases ---- *)

(* The acceptance trace: 120 requests (12 distinct jobs x 10 copies)
   through a server. Every response must be ok with the exact bytes the
   one-shot subcommand prints (Job.run IS the one-shot execution path —
   ci.sh's serve stage closes the loop through the real CLI), every batch
   must have width 10, and the whole trace must cost 12 solves. *)
let test_replay_byte_identical () =
  with_fresh_cache @@ fun () ->
  (* one-shot outputs first (cold cache); the served replay then runs
     warm, so this also proves warm/cold byte-identity *)
  let expected =
    List.map
      (fun (_, spec) ->
        match Job.run spec with
        | Ok out -> (Job.fingerprint spec, out)
        | Error e -> Alcotest.failf "one-shot job failed: %s" e)
      distinct_jobs
  in
  let server = Server.create () in
  let lines = trace_lines () in
  check "trace length" 120 (List.length lines);
  let responses = replay server lines in
  check "one response per request" 120 (List.length responses);
  (* batches run in first-arrival order and answer all their waiters
     together, so responses come grouped: 10 for job 0, then 10 for job 1,
     ... — response i belongs to distinct_jobs.(i / copies) *)
  List.iteri
    (fun i line ->
      let obj = parse_response line in
      checkb (Printf.sprintf "response %d ok" i) true (bool_field obj "ok");
      check (Printf.sprintf "response %d batch width" i) copies
        (int_field obj "batch");
      let _, spec = List.nth distinct_jobs (i / copies) in
      let want = List.assoc (Job.fingerprint spec) expected in
      Alcotest.(check string)
        (Printf.sprintf "response %d output" i)
        want (str_field obj "output"))
    responses;
  (* coalescing: 120 requests, 12 solves *)
  let stats = Server.stats_json server in
  check "requests" 120 (int_field stats "requests");
  check "responses" 120 (int_field stats "responses");
  check "batches" (List.length distinct_jobs) (int_field stats "batches");
  check "coalesced" (120 - List.length distinct_jobs)
    (int_field stats "coalesced");
  check "nothing left queued" 0 (int_field stats "queue_depth");
  (* latency accounting saw every request *)
  let latency =
    match Json.member "latency" stats with
    | Some l -> l
    | None -> Alcotest.fail "stats lacks latency object"
  in
  check "latency count" 120 (int_field latency "count");
  checkb "p99 >= p50" true
    (int_field latency "p99_ns" >= int_field latency "p50_ns");
  (* warm replay: same trace on a fresh server, same bytes, and the cache
     answers everything — no new misses anywhere in the process *)
  let server2 = Server.create () in
  let miss0 = counter "cache.miss" in
  let responses2 = replay server2 (trace_lines ()) in
  check "warm replay misses" 0 (counter "cache.miss" - miss0);
  List.iter2
    (fun a b ->
      Alcotest.(check string)
        "warm replay byte-identical"
        (str_field (parse_response a) "output")
        (str_field (parse_response b) "output"))
    responses responses2

(* A full queue answers with an explicit "overloaded" verdict instead of
   buffering without bound: 10 distinct jobs against queue_bound 2 means
   exactly 8 immediate rejections, and the 2 admitted jobs still solve. *)
let test_overload () =
  with_fresh_cache @@ fun () ->
  let server = Server.create ~queue_bound:2 () in
  let responses = ref [] in
  for j = 1 to 10 do
    Server.submit server
      ~reply:(fun r -> responses := r :: !responses)
      (Printf.sprintf {|{"id":"q%d","job":"mos","j":%d}|} j j)
  done;
  let immediate = List.rev !responses in
  check "rejections are immediate" 8 (List.length immediate);
  List.iter
    (fun line ->
      let obj = parse_response line in
      checkb "rejected" false (bool_field obj "ok");
      Alcotest.(check string) "verdict" "overloaded" (str_field obj "error"))
    immediate;
  ignore (Server.run_pending server);
  let all = List.rev !responses in
  check "every request answered" 10 (List.length all);
  let ok_count =
    List.length
      (List.filter (fun l -> bool_field (parse_response l) "ok") all)
  in
  check "admitted jobs solved" 2 ok_count;
  let stats = Server.stats_json server in
  let rejected =
    match Json.member "rejected" stats with
    | Some r -> r
    | None -> Alcotest.fail "stats lacks rejected object"
  in
  check "overload tally" 8 (int_field rejected "overload");
  (* the two admitted requests were the first two to arrive, solved in
     arrival order (rejections are replied immediately, so they lead) *)
  let admitted =
    List.filter_map
      (fun l ->
        let obj = parse_response l in
        if bool_field obj "ok" then Some (str_field obj "id") else None)
      all
  in
  Alcotest.(check (list string)) "fifo order kept" [ "q1"; "q2" ] admitted

(* A per-request deadline (or step budget) makes the exact solver degrade
   to a certified interval — the same shape `bfly_tool bw exact
   --max-nodes` prints — rather than fail or overrun. *)
let test_deadline_degrades () =
  with_fresh_cache @@ fun () ->
  let server = Server.create () in
  let shapes =
    [
      (* step budget: fires at the first supervision poll *)
      {|{"id":"steps","job":"bw","network":"butterfly","n":8,"max_nodes":1}|};
      (* 1 microsecond of wall clock: expired before the search starts *)
      {|{"id":"wall","job":"bw","network":"butterfly","n":8,"deadline":"0.000001"}|};
    ]
  in
  List.iter
    (fun line ->
      let responses = replay server [ line ] in
      check "one response" 1 (List.length responses);
      let obj = parse_response (List.hd responses) in
      checkb "degraded run still ok" true (bool_field obj "ok");
      let out = str_field obj "output" in
      checkb
        (Printf.sprintf "interval shape in %S" out)
        true
        (String.length out >= 11 && String.sub out 0 11 = "B_8: BW in "))
    shapes

(* The deadline is part of the coalescing key: the same spec with and
   without a deadline must NOT share a solve, because the deadline decides
   whether the result may degrade. *)
let test_deadline_in_fingerprint () =
  with_fresh_cache @@ fun () ->
  let server = Server.create () in
  let line = {|{"job":"bw","solver":"kl","network":"butterfly","n":16}|} in
  let with_deadline =
    {|{"job":"bw","solver":"kl","network":"butterfly","n":16,"deadline":"10s"}|}
  in
  let responses = replay server [ line; with_deadline; line ] in
  check "three responses" 3 (List.length responses);
  let stats = Server.stats_json server in
  check "two solves" 2 (int_field stats "batches");
  check "only the exact duplicate coalesced" 1 (int_field stats "coalesced")

(* After drain, job submissions are rejected with "draining" but stats
   introspection still answers — that's what makes graceful shutdown
   observable. *)
let test_drain () =
  with_fresh_cache @@ fun () ->
  let server = Server.create () in
  (* queue one job before the drain signal lands *)
  let queued = ref [] in
  Server.submit server
    ~reply:(fun r -> queued := r :: !queued)
    {|{"id":"early","job":"mos","j":2}|};
  Server.drain server;
  checkb "draining latched" true (Server.draining server);
  let late = replay server [ {|{"id":"late","job":"mos","j":3}|} ] in
  let obj = parse_response (List.hd late) in
  checkb "late job rejected" false (bool_field obj "ok");
  Alcotest.(check string) "verdict" "draining" (str_field obj "error");
  let stats_reply = replay server [ {|{"id":"s","job":"stats"}|} ] in
  let sobj = parse_response (List.hd stats_reply) in
  checkb "stats still served" true (bool_field sobj "ok");
  checkb "stats reports draining" true (bool_field sobj "draining");
  (* the queued job still ran to completion during replay's run_pending *)
  check "early job answered" 1 (List.length !queued);
  checkb "early job ok" true
    (bool_field (parse_response (List.hd !queued)) "ok")

(* Malformed input costs an error response, never the server; the
   response reuses the request's own id whenever the line parsed far
   enough to have one. *)
let test_parse_errors () =
  with_fresh_cache @@ fun () ->
  let server = Server.create () in
  let cases =
    [
      ("not json at all", None);
      ({|[1,2,3]|}, None);
      ({|{"id":"x1","job":"teleport"}|}, Some "x1");
      ({|{"id":"x2","job":"bw","network":"butterfly"}|}, Some "x2");
      ({|{"id":"x3","job":"bw","solver":"kl","network":"moebius","n":8}|},
       Some "x3");
      ({|{"id":"x4","job":"mos","j":2,"deadline":"soonish"}|}, Some "x4");
      ({|{"id":"x5","job":"mos"}|}, Some "x5");
    ]
  in
  List.iter
    (fun (line, want_id) ->
      let responses = replay server [ line ] in
      check "answered" 1 (List.length responses);
      let obj = parse_response (List.hd responses) in
      checkb (Printf.sprintf "rejected %S" line) false (bool_field obj "ok");
      match want_id with
      | Some id -> Alcotest.(check string) "echoes request id" id (str_field obj "id")
      | None ->
          (* assigned id: non-empty, server-generated *)
          checkb "assigned an id" true (String.length (str_field obj "id") > 0))
    cases;
  let stats = Server.stats_json server in
  check "parse_errors tally" (List.length cases) (int_field stats "parse_errors");
  (* the server still works afterwards *)
  let after = replay server [ {|{"job":"mos","j":2}|} ] in
  checkb "server survived" true (bool_field (parse_response (List.hd after)) "ok")

(* Solver-level failures (bad arguments reaching Job.run) come back as
   per-request errors with the same message the one-shot CLI prints. *)
let test_solver_errors () =
  with_fresh_cache @@ fun () ->
  let server = Server.create () in
  let cases =
    [
      ({|{"id":"e1","job":"bw","solver":"kl","network":"butterfly","n":7}|},
       "n must be a power of two");
      ({|{"id":"e2","job":"mos","j":0}|}, "j must be >= 1");
      ({|{"id":"e3","job":"ee","network":"butterfly","n":8,"k":999}|},
       "k out of range");
    ]
  in
  List.iter
    (fun (line, want) ->
      let responses = replay server [ line ] in
      let obj = parse_response (List.hd responses) in
      checkb "not ok" false (bool_field obj "ok");
      Alcotest.(check string) "CLI error text" want (str_field obj "error"))
    cases

(* Ambiguous request documents must be rejected outright: Json.member is
   first-key-wins, so a duplicate key would silently drop the later value
   — a malformed request, not a preference (bugfix for json.mli's
   documented first-wins lookup). *)
let test_duplicate_key_rejected () =
  with_fresh_cache @@ fun () ->
  let server = Server.create () in
  List.iter
    (fun (line, key) ->
      let obj = parse_response (List.hd (replay server [ line ])) in
      checkb (Printf.sprintf "rejected %s" line) false (bool_field obj "ok");
      Alcotest.(check string)
        "names the duplicated key"
        (Printf.sprintf "duplicate key %S in request object" key)
        (str_field obj "error"))
    [
      ({|{"id":"d1","job":"bw","solver":"ml","network":"mesh:4x4","seed":1,"seed":2}|},
       "seed");
      ({|{"id":"d2","id":"d2b","job":"mos","j":2}|}, "id");
      (* nested duplicates are screened too: the scan is depth-first *)
      ({|{"id":"d3","job":"mos","j":2,"extra":{"a":1,"a":2}}|}, "a");
    ];
  (* same fields without duplication still parse *)
  let ok_line = {|{"id":"d4","job":"mos","j":2}|} in
  let obj = parse_response (List.hd (replay server [ ok_line ])) in
  checkb "distinct keys accepted" true (bool_field obj "ok")

(* Fabric jobs ride the same byte-identity contract as the classic
   families: the served output equals Job.run's text, and the [n] field
   is rejected rather than silently ignored (the spec fixes the size). *)
let test_fabric_jobs () =
  with_fresh_cache @@ fun () ->
  let server = Server.create () in
  let line =
    {|{"id":"f1","job":"bw","solver":"ml","network":"mesh:4x4","seed":1}|}
  in
  let spec =
    Job.Bw
      {
        Job.solver = Job.Ml;
        net = Job.Fabric (Bfly_networks.Fabric.Mesh [ 4; 4 ]);
        n = 0;
        seed = 1;
        restarts = 4;
        max_nodes = None;
        resume = false;
      }
  in
  let obj = parse_response (List.hd (replay server [ line ])) in
  checkb "fabric job ok" true (bool_field obj "ok");
  (match Job.run spec with
  | Ok text ->
      Alcotest.(check string)
        "served bytes = one-shot bytes" text (str_field obj "output")
  | Error e -> Alcotest.failf "one-shot run failed: %s" e);
  (* every job that takes a network shares the rule, through Job.parse *)
  List.iter
    (fun job ->
      let with_n =
        Printf.sprintf
          {|{"id":"f2","job":%S,"solver":"ml","network":"mesh:4x4","n":16,"k":2}|}
          job
      in
      let obj = parse_response (List.hd (replay server [ with_n ])) in
      checkb (job ^ ": explicit n rejected") false (bool_field obj "ok");
      Alcotest.(check string)
        (job ^ ": n-rejection message")
        "field \"n\" must be omitted for fabric networks (the spec fixes the \
         size)"
        (str_field obj "error"))
    [ "bw"; "ee"; "ne"; "expansion" ];
  (* expansion jobs accept fabric specs through the same parser *)
  let exp_line = {|{"id":"f3","job":"ee","network":"mesh:3x3","k":4,"exact":true}|} in
  let obj = parse_response (List.hd (replay server [ exp_line ])) in
  checkb "fabric expansion ok" true (bool_field obj "ok");
  checkb "output names the canonical spec" true
    (let out = str_field obj "output" in
     String.length out >= 8 && String.sub out 0 8 = "mesh:3x3")

let parse_error line =
  match Protocol.parse_request ~default_id:"t" line with
  | Ok _ -> Alcotest.failf "parsed, expected an error: %s" line
  | Error (m, _) -> m

(* The default table of job.mli, pinned: a minimal request gets exactly
   these values, and a mistyped field names itself. *)
let test_job_field_defaults () =
  (match
     Protocol.parse_request ~default_id:"t"
       {|{"job":"bw","network":"butterfly","n":8}|}
   with
  | Ok { Protocol.payload = Protocol.Job { spec = Job.Bw b; deadline = None }; _ }
    ->
      checkb "solver exact" true (b.Job.solver = Job.Exact);
      check "seed" 1 b.seed;
      check "restarts" 4 b.restarts;
      checkb "max_nodes unset" true (b.max_nodes = None);
      checkb "resume off" false b.resume
  | _ -> Alcotest.fail "minimal bw request did not parse to a bw job");
  (match
     Protocol.parse_request ~default_id:"t" {|{"job":"check"}|}
   with
  | Ok
      {
        Protocol.payload =
          Protocol.Job { spec = Job.Check { seed = 42; rounds = 5 }; _ };
        _;
      } ->
      ()
  | _ -> Alcotest.fail "minimal check request: defaults seed 42, rounds 5");
  List.iter
    (fun (line, want) ->
      Alcotest.(check string) line want (parse_error line))
    [
      ( {|{"job":"bw","network":"butterfly","n":8,"seed":"7"}|},
        "field \"seed\" must be an integer" );
      ( {|{"job":"ee","network":"butterfly","n":8,"k":2,"exact":1}|},
        "field \"exact\" must be a boolean" );
      ({|{"job":"ne","network":"butterfly","n":8}|}, "field \"k\" is required");
      ({|{"job":"bw","solver":"ml","n":8}|}, "field \"network\" is required");
      ({|{"job":7}|}, "field \"job\" must be a string");
    ]

(* ---- concurrency: real transports, real client threads ---- *)

module Transport = Bfly_serve.Transport
module Dispatch = Bfly_serve.Dispatch
module Fault = Bfly_resil.Fault

let tmp_name base =
  incr fresh_id;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "%s-%d-%d" base (Unix.getpid ()) !fresh_id)

(* Run [f] against a serving transport on its own thread; [f] receives
   the connect address. Drains and joins on the way out, and re-raises
   [f]'s failure (Alcotest exceptions included) from the main thread. *)
let with_server ?workers ~server ~listen f =
  let path, serve_thread, addr_of =
    match listen with
    | `Unix ->
        let path = tmp_name "bfly-serve-sock" in
        ( path,
          (fun () ->
            Transport.socket ~block_timeout:0.05 ?workers server ~path),
          fun () ->
            let deadline = Unix.gettimeofday () +. 10. in
            while
              (not (Sys.file_exists path))
              && Unix.gettimeofday () < deadline
            do
              Thread.yield ()
            done;
            `Unix path )
    | `Tcp ->
        let port_file = tmp_name "bfly-serve-port" in
        ( port_file,
          (fun () ->
            Transport.serve ~block_timeout:0.05 ?workers
              ~tcp:("127.0.0.1", 0) ~port_file server),
          fun () ->
            let deadline = Unix.gettimeofday () +. 10. in
            let rec wait () =
              let line =
                try In_channel.with_open_text port_file In_channel.input_line
                with Sys_error _ -> None
              in
              match line with
              | Some l -> (
                  match String.rindex_opt l ':' with
                  | Some i ->
                      `Tcp
                        ( String.sub l 0 i,
                          int_of_string
                            (String.sub l (i + 1) (String.length l - i - 1))
                        )
                  | None -> Alcotest.failf "bad port file line %S" l)
              | None ->
                  if Unix.gettimeofday () > deadline then
                    Alcotest.fail "server did not write its port file";
                  Thread.yield ();
                  wait ()
            in
            wait () )
  in
  let t = Thread.create serve_thread () in
  let finish () =
    Server.drain server;
    Thread.join t;
    try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ()
  in
  match f (addr_of ()) with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let connect = function
  | `Unix path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      fd
  | `Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      fd

let send_all fd lines =
  let s = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let pos = ref 0 in
  while !pos < len do
    pos := !pos + Unix.write fd b !pos (len - !pos)
  done

let read_lines ic n =
  List.init n (fun _ ->
      match In_channel.input_line ic with
      | Some l -> l
      | None -> Alcotest.fail "server closed before answering")

(* One client session: pipeline [lines], half-close, read one response
   per request. Relies on — and therefore tests — the per-connection
   ordering guarantee. *)
let client_session addr lines =
  let fd = connect addr in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      send_all fd lines;
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      read_lines (Unix.in_channel_of_descr fd) (List.length lines))

(* Each concurrent client pipelines its own seeded interleaving of the
   distinct jobs (duplicates across clients land mid-flight on purpose)
   and must get every response ok, in ITS OWN request order, with output
   bytes equal to the one-shot subcommand's. *)
let stress_over listen () =
  with_fresh_cache @@ fun () ->
  let expected =
    List.map
      (fun (line, spec) ->
        match Job.run spec with
        | Ok out -> (line, out)
        | Error e -> Alcotest.failf "one-shot job failed: %s" e)
      distinct_jobs
  in
  let n_clients = 4 and rounds = 3 in
  let client_lines ci =
    let rng = Random.State.make [| 0xc11e; ci |] in
    List.concat_map
      (fun _ ->
        let a = Array.of_list (List.map fst distinct_jobs) in
        for i = Array.length a - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let tmp = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- tmp
        done;
        Array.to_list a)
      (List.init rounds Fun.id)
  in
  (* 144 requests arrive pipelined before the first solve finishes;
     admission must stay out of this test's way (it has its own cases) *)
  let server = Server.create ~queue_bound:1000 () in
  let resp0 = counter "serve.responses" in
  with_server ~workers:4 ~server ~listen (fun addr ->
      let results = Array.make n_clients [] in
      let failed = Atomic.make None in
      let run ci () =
        try results.(ci) <- client_session addr (client_lines ci)
        with e -> Atomic.set failed (Some e)
      in
      let threads =
        List.init n_clients (fun ci -> Thread.create (run ci) ())
      in
      List.iter Thread.join threads;
      (match Atomic.get failed with Some e -> raise e | None -> ());
      Array.iteri
        (fun ci responses ->
          List.iter2
            (fun line response ->
              let obj = parse_response response in
              checkb
                (Printf.sprintf "client %d response ok" ci)
                true (bool_field obj "ok");
              Alcotest.(check string)
                (Printf.sprintf "client %d ordered byte-identical output" ci)
                (List.assoc line expected)
                (str_field obj "output"))
            (client_lines ci) responses)
        results);
  let total = n_clients * rounds * List.length distinct_jobs in
  check "every pipelined request answered" total
    (counter "serve.responses" - resp0)

let test_concurrent_clients_unix () = stress_over `Unix ()
let test_concurrent_clients_tcp () = stress_over `Tcp ()

(* Cold-cache coalescing under concurrency: splitting the duplicate-heavy
   trace across concurrent socket clients must cost exactly the solves of
   the sequential in-process replay — a duplicate either joins the
   in-flight batch (single-flight) or hits the cache, never re-solves. *)
let test_concurrent_cold_solve_count () =
  let jobs =
    [
      {|{"job":"mos","j":2}|};
      {|{"job":"mos","j":3}|};
      {|{"job":"mos","j":4}|};
      {|{"job":"bw","solver":"kl","network":"butterfly","n":8,"seed":1}|};
      {|{"job":"bw","solver":"kl","network":"butterfly","n":8,"seed":2}|};
      {|{"job":"bw","solver":"spectral","network":"butterfly","n":8}|};
    ]
  in
  let copies = 5 in
  let full_trace = List.concat_map (fun _ -> jobs) (List.init copies Fun.id) in
  let miss_seq =
    with_fresh_cache @@ fun () ->
    let server = Server.create ~queue_bound:1000 () in
    let m0 = counter "cache.miss" in
    ignore (replay server full_trace);
    counter "cache.miss" - m0
  in
  let miss_conc =
    with_fresh_cache @@ fun () ->
    let server = Server.create ~queue_bound:1000 () in
    let m0 = counter "cache.miss" in
    with_server ~workers:4 ~server ~listen:`Unix (fun addr ->
        let failed = Atomic.make None in
        let run lines () =
          try
            List.iter
              (fun r ->
                checkb "cold concurrent response ok" true
                  (bool_field (parse_response r) "ok"))
              (client_session addr lines)
          with e -> Atomic.set failed (Some e)
        in
        (* two clients, each replaying the full trace minus what the
           other sends first — together the same multiset of requests *)
        let odd, even =
          List.partition (fun (i, _) -> i mod 2 = 0)
            (List.mapi (fun i l -> (i, l)) full_trace)
        in
        let threads =
          List.map
            (fun lines -> Thread.create (run (List.map snd lines)) ())
            [ odd; even ]
        in
        List.iter Thread.join threads;
        match Atomic.get failed with Some e -> raise e | None -> ());
    counter "cache.miss" - m0
  in
  check "concurrent cold replay solves exactly the sequential count"
    miss_seq miss_conc

(* A client that vanishes mid-solve costs counters, never the server: the
   write fails (serve.write_fail), and other clients are served on. *)
let test_disconnect_mid_batch () =
  with_fresh_cache @@ fun () ->
  let server = Server.create () in
  let fail0 = counter "serve.write_fail" in
  let drop0 = counter "serve.write_drop" in
  with_server ~workers:2 ~server ~listen:`Unix (fun addr ->
      (* a supervised exact search with a 200ms deadline: long enough
         that the close below always lands first, bounded so the test
         stays fast *)
      let fd = connect addr in
      send_all fd
        [ {|{"id":"gone","job":"bw","network":"butterfly","n":16,"deadline":"0.2"}|} ];
      Unix.close fd;
      (* a second client is served while (and after) the doomed solve *)
      let responses = client_session addr [ {|{"id":"alive","job":"mos","j":2}|} ] in
      let obj = parse_response (List.hd responses) in
      checkb "other client served" true (bool_field obj "ok");
      (* wait until the doomed batch's delivery actually failed *)
      let deadline = Unix.gettimeofday () +. 10. in
      while
        counter "serve.write_fail" - fail0 = 0
        && counter "serve.write_drop" - drop0 = 0
        && Unix.gettimeofday () < deadline
      do
        Thread.yield ()
      done);
  checkb "failed write was counted, not swallowed" true
    (counter "serve.write_fail" - fail0 > 0
    || counter "serve.write_drop" - drop0 > 0);
  (* the server survived to a clean drain; a fresh in-process request
     confirms the engine state is intact *)
  let after = Server.create () in
  checkb "engine fine after disconnect" true
    (bool_field (parse_response (List.hd (replay after [ {|{"job":"mos","j":2}|} ]))) "ok")

(* Oversized and garbage lines get structured errors on the wire — in
   request order — and the connection keeps working. *)
let test_oversized_and_garbage () =
  with_fresh_cache @@ fun () ->
  let server = Server.create () in
  let over0 = counter "serve.oversized" in
  with_server ~workers:2 ~server ~listen:`Unix (fun addr ->
      let big = String.make 300_000 'x' in
      let responses =
        client_session addr
          [ big; "this is not json"; {|{"id":"ok1","job":"mos","j":2}|} ]
      in
      check "three responses" 3 (List.length responses);
      let o1 = parse_response (List.nth responses 0) in
      checkb "oversized rejected" false (bool_field o1 "ok");
      Alcotest.(check string) "oversized id" "oversized" (str_field o1 "id");
      checkb "error names the bound" true
        (let e = str_field o1 "error" in
         let rec has i =
           i + 7 <= String.length e
           && (String.sub e i 7 = "exceeds" || has (i + 1))
         in
         has 0);
      checkb "garbage rejected" false
        (bool_field (parse_response (List.nth responses 1)) "ok");
      let o3 = parse_response (List.nth responses 2) in
      checkb "valid request after junk still served" true (bool_field o3 "ok");
      Alcotest.(check string) "its id" "ok1" (str_field o3 "id"));
  check "oversized tally" 1 (counter "serve.oversized" - over0)

(* Per-client admission: a flooding client is rejected at its own bound
   while another client keeps full service; rejections are immediate, so
   they are the flooder's LAST responses in it own order. *)
let test_per_client_overload () =
  with_fresh_cache @@ fun () ->
  let server = Server.create ~queue_bound:100 ~client_bound:2 () in
  let flooder = Server.client ~name:"flood" server in
  let other = Server.client ~name:"calm" server in
  let fr = ref [] and ok_other = ref [] in
  for j = 2 to 6 do
    Server.submit server ~client:flooder
      ~reply:(fun r -> fr := r :: !fr)
      (Printf.sprintf {|{"id":"f%d","job":"mos","j":%d}|} j j)
  done;
  Server.submit server ~client:other
    ~reply:(fun r -> ok_other := r :: !ok_other)
    {|{"id":"calm","job":"mos","j":7}|};
  check "three immediate per-client rejections" 3 (List.length !fr);
  List.iter
    (fun r ->
      let obj = parse_response r in
      checkb "flooder rejected" false (bool_field obj "ok");
      Alcotest.(check string) "verdict" "overloaded" (str_field obj "error"))
    !fr;
  ignore (Server.run_pending server);
  check "flooder's admitted two solved" 5 (List.length !fr);
  check "other client served in full" 1 (List.length !ok_other);
  checkb "other client ok" true
    (bool_field (parse_response (List.hd !ok_other)) "ok");
  let stats = Server.stats_json server in
  let rejected =
    match Json.member "rejected" stats with
    | Some r -> r
    | None -> Alcotest.fail "stats lacks rejected object"
  in
  check "client rejection tally" 3 (int_field rejected "client");
  check "no global rejections" 0 (int_field rejected "overload");
  (* released slots: the flooder may submit again after completion *)
  let again = ref [] in
  Server.submit server ~client:flooder
    ~reply:(fun r -> again := r :: !again)
    {|{"id":"f-again","job":"mos","j":2}|};
  ignore (Server.run_pending server);
  checkb "slots released after completion" true
    (bool_field (parse_response (List.hd !again)) "ok")

(* Chaos: with worker crashes and spurious deadline expiries injected,
   a dispatched replay still answers every request (ok or error), and
   the engine is clean afterwards. *)
let test_chaos_dispatch () =
  with_fresh_cache @@ fun () ->
  let lines =
    List.concat_map
      (fun j ->
        [
          Printf.sprintf {|{"job":"mos","j":%d}|} j;
          Printf.sprintf
            {|{"job":"bw","solver":"kl","network":"butterfly","n":8,"seed":%d}|}
            j;
        ])
      [ 2; 3; 4; 5; 6; 7 ]
  in
  let answered = ref 0 in
  Fault.scope ~rate:0.5 ~seed:1107 [ Fault.Worker; Fault.Deadline ]
    (fun () ->
      let server = Server.create () in
      let dispatch = Dispatch.create ~cap:4 server in
      List.iter
        (fun line ->
          Server.submit server ~reply:(fun _ -> incr answered) line;
          Dispatch.pump dispatch)
        lines;
      Dispatch.pump dispatch;
      Dispatch.wait_idle dispatch);
  check "every request answered under fault injection"
    (List.length lines) !answered;
  (* the pool and engine survive: a clean replay afterwards is all ok *)
  let server = Server.create () in
  List.iter
    (fun r -> checkb "clean replay ok" true (bool_field (parse_response r) "ok"))
    (replay server [ {|{"job":"mos","j":2}|}; {|{"job":"mos","j":3}|} ])

(* Latency reservoir: quantiles are ranks over the recorded window. *)
let test_latency_quantiles () =
  let l = Latency.create ~capacity:8 () in
  for i = 1 to 100 do
    Latency.record l ~ns:i
  done;
  check "lifetime count" 100 (Latency.count l);
  check "lifetime max" 100 (Latency.max_ns l);
  (* window holds 93..100; nearest rank of q=0.5 over 8 samples is index 4 *)
  check "p50 over window" 97 (Latency.p l ~q:0.5);
  check "p99 over window" 100 (Latency.p l ~q:0.99);
  check "empty reservoir" 0 (Latency.p (Latency.create ()) ~q:0.5)

let suite =
  [
    slow_case "replay: 120 requests coalesce, bytes match one-shot"
      test_replay_byte_identical;
    case "admission: queue bound rejects with overloaded" test_overload;
    case "deadline degrades exact search to certified interval"
      test_deadline_degrades;
    case "deadline is part of the coalescing key" test_deadline_in_fingerprint;
    case "drain rejects new work, serves stats, finishes queue" test_drain;
    case "parse errors are per-request, server survives" test_parse_errors;
    case "duplicate keys reject the request" test_duplicate_key_rejected;
    case "fabric jobs: byte-identity, n rejected, expansion"
      test_fabric_jobs;
    case "job fields: default table and type errors" test_job_field_defaults;
    case "solver errors match the one-shot CLI" test_solver_errors;
    case "latency reservoir quantiles" test_latency_quantiles;
    slow_case "concurrent clients over unix socket: ordered, byte-identical"
      test_concurrent_clients_unix;
    slow_case "concurrent clients over tcp: ordered, byte-identical"
      test_concurrent_clients_tcp;
    slow_case "cold coalescing: concurrent solves = sequential solves"
      test_concurrent_cold_solve_count;
    case "client disconnect mid-batch: counted, server survives"
      test_disconnect_mid_batch;
    case "oversized and garbage lines: structured errors, bounded reads"
      test_oversized_and_garbage;
    case "per-client admission: flooder rejected, others served"
      test_per_client_overload;
    case "chaos: dispatched replay answers everything under injected faults"
      test_chaos_dispatch;
  ]
