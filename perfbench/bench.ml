(* The benchmark program: runs one workload with tracing off (end-to-end
   metrics) or on (per-layer metrics), checks every output, and prints
   the run conditions and then one JSON result line. perfbench/run.py
   builds it and calls it; see perfbench/README.md. *)

module Job = Bfly_serve.Job
module Protocol = Bfly_serve.Protocol
module Metrics = Bfly_obs.Metrics
module Json = Bfly_obs.Json
module Config = Bfly_cache.Config
module Parallel = Bfly_graph.Parallel
module Span = Spans

let now = Bfly_obs.Span.now_ns
let ms ns = float ns /. 1e6
let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* ---- statistics ---- *)

(* Nearest rank: the smallest value with at least a share [q] of the
   sample at or below it. *)
let quantile q l =
  match List.sort compare l with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float n)) - 1)))

let median l =
  match List.sort compare l with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ---- run environment ---- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { st_kind = S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (ENOENT, _, _) -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

(* Point the in-process result cache at a new empty directory and drop
   its memory tier: the cache state every pass and replay starts from. *)
let fresh_cache dir =
  rm_rf dir;
  mkdir_p dir;
  Config.set_enabled true;
  Config.set_dir dir;
  Bfly_cache.Store.reset_memory ()

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | s ->
      List.fold_left
        (fun acc line ->
          match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
          | kb -> float kb /. 1024.
          | exception _ -> acc)
        nan
        (String.split_on_char '\n' s)

(* Child processes still running; killed at exit whatever the path out. *)
let children = ref []

let reap pid =
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  children := List.filter (( <> ) pid) !children

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap pid)
        !children)

(* ---- registry deltas ---- *)

let counter name = Metrics.counter_value (Metrics.counter name)
let timer_ms name = ms (Metrics.timer_stat (Metrics.timer name)).total_ns

let registry_counters =
  [
    "ml.levels"; "ml.refine.moves"; "exact.bb.nodes"; "sweep.points";
    "cuts.kernel.recounts"; "cache.hit"; "cache.miss"; "cache.verify_fail";
    "parallel.tasks"; "parallel.batches"; "serve.coalesced";
    "serve.joined_inflight"; "serve.rejected.overload";
    "serve.rejected.client"; "serve.rejected.drain";
  ]

let registry_timers =
  [ "ml.coarsen"; "ml.refine"; "cuts.certificate"; "cache.lookup"; "cache.store" ]

type reading = { counters : (string * float) list; gc : Gc.stat }

let read_registry () =
  {
    counters =
      List.map (fun n -> (n, float (counter n))) registry_counters
      @ List.map (fun n -> (n ^ "_ms", timer_ms n)) registry_timers;
    gc = Gc.quick_stat ();
  }

let delta a b name = List.assoc name b.counters -. List.assoc name a.counters

(* ---- metrics output ---- *)

(* Metric names and values; perfbench/run.py attaches the units declared
   in BENCHMARK.json. *)
type metric = string * float

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let print_result ~conditions ~correct ~attempted ~failed (metrics : metric list)
    =
  let m =
    String.concat ","
      (List.map
         (fun (name, v) -> Printf.sprintf "%S:%s" name (json_number v))
         metrics)
  in
  print_endline (Json.to_string (Json.Obj [ ("conditions", conditions) ]));
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct attempted failed m

(* Count, total and self time of every span name, for the run document. *)
let self_times tr =
  Json.Obj
    (List.map
       (fun (name, (count, total, self)) ->
         ( name,
           Json.Obj
             [
               ("count", Json.Int count);
               ("total_ms", Json.Float (ms total));
               ("self_ms", Json.Float (ms self));
             ] ))
       (Span.self_ns tr))

(* ---- the batch workloads ---- *)

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check_output t refs spec result =
  t.attempted <- t.attempted + 1;
  let fp = Job.fingerprint spec in
  let got = Jobs.result_text result in
  match Hashtbl.find_opt refs fp with
  | Some want when want = got -> ()
  | Some want ->
      t.failed <- t.failed + 1;
      log "output mismatch for %s: got %S, reference %S" fp got want
  | None ->
      t.failed <- t.failed + 1;
      log "no reference output for %s" fp

(* One pass over the job list through [Job.run] (tracing off) or through
   the spanned decomposition (tracing on); per-job wall times in ns. *)
let batch_pass ~tr ~cache t refs jobs =
  fresh_cache cache;
  let t0 = now () in
  let lat =
    List.mapi
      (fun i spec ->
        let s = now () in
        let r = if tr.Span.on then Jobs.traced tr ~req:i spec else Job.run spec in
        let e = now () in
        check_output t refs spec r;
        e - s)
      jobs
  in
  (now () - t0, lat)

let batch_untraced (w : Jobs.workload) ~seed ~seconds ~work ~refs ~setup =
  let t = tally () in
  let off = Span.create ~on:false in
  let np = Jobs.passes w ~seconds in
  let runs =
    List.init np (fun p ->
        batch_pass ~tr:off
          ~cache:(Filename.concat work (Printf.sprintf "cache-%d" p))
          t refs (Jobs.pass_jobs w ~seed p))
  in
  let solve_s = median (List.map (fun (d, _) -> float d /. 1e9) runs) in
  let lat = List.concat_map (fun (_, l) -> List.map ms l) runs in
  let jobs = List.length (snd (List.hd runs)) in
  ( t,
    [ ("passes", Json.Int np) ],
    [
      ("setup_s", setup);
      ("solve_s", solve_s);
      ("p50_ms", quantile 0.5 lat);
      ("p99_ms", quantile 0.99 lat);
      ("peak_p99_ms", List.fold_left max 0. lat);
      ("max_qps", float jobs /. solve_s);
      ("peak_rss_mb", vm_hwm_mb "self");
    ] )

let registry_layers a b =
  let d = delta a b in
  let hit = d "cache.hit" and miss = d "cache.miss" in
  [
    ("ml.coarsen_ms", d "ml.coarsen_ms"); ("ml.refine_ms", d "ml.refine_ms");
    ("ml.levels", d "ml.levels"); ("ml.refine.moves", d "ml.refine.moves");
    ("exact.bb.nodes", d "exact.bb.nodes");
    ("certificate.kn_ms", d "cuts.certificate_ms");
    ("sweep.points", d "sweep.points");
    ("cuts.kernel.recounts", d "cuts.kernel.recounts");
    ("cache.lookup_ms", d "cache.lookup_ms"); ("cache.store_ms", d "cache.store_ms");
    ("cache.hit", hit); ("cache.miss", miss);
    ("cache.hit_ratio", if hit +. miss > 0. then hit /. (hit +. miss) else 0.);
    ("cache.verify_fail", d "cache.verify_fail");
    ("parallel.tasks", d "parallel.tasks");
    ("parallel.batches", d "parallel.batches");
    ("gc.minor_mwords", (b.gc.minor_words -. a.gc.minor_words) /. 1e6);
    ( "gc.major_collections",
      float (b.gc.major_collections - a.gc.major_collections) );
    ("gc.top_heap_mb", float (b.gc.top_heap_words * 8) /. 1e6);
  ]

(* The traced run: pass 0 of the untraced run's job list once through
   [Job.run] and once through the spanned decomposition, each on a fresh
   cache; the difference is the tracing overhead. *)
let batch_traced (w : Jobs.workload) ~seed ~work ~refs =
  let t = tally () in
  let jobs = Jobs.pass_jobs w ~seed 0 in
  let base, _ =
    batch_pass ~tr:(Span.create ~on:false)
      ~cache:(Filename.concat work "cache-base") t refs jobs
  in
  let tr = Span.create ~on:true in
  let a = read_registry () in
  let traced, _ =
    batch_pass ~tr ~cache:(Filename.concat work "cache-traced") t refs jobs
  in
  let b = read_registry () in
  Span.dump tr (Filename.concat work "spans.ndjson");
  let sum name = ms (Span.total_ns tr name) in
  let subsets = Jobs.subsets jobs in
  let exact_ms = sum "expansion.exact" in
  let unattributed =
    List.fold_left
      (fun acc (name, (_, _, self)) -> if name = "job" then acc + self else acc)
      0 (Span.self_ns tr)
  in
  let values =
    registry_layers a b
    @ [
        ("ml.bisect_ms", sum "ml.bisect");
        ("networks.build_ms", sum "networks.graph_of");
        ( "networks.builds",
          float (List.length (Span.durations tr "networks.graph_of")) );
        ("heuristics.kl_ms", sum "heuristics.kl");
        ("heuristics.fm_ms", sum "heuristics.fm");
        ("heuristics.sa_ms", sum "heuristics.sa");
        ("heuristics.spectral_ms", sum "heuristics.spectral");
        ("exact.bb_ms", sum "exact.bb");
        ("campaign.run_ms", sum "campaign.run");
        ("invariants.check_ms", sum "invariants.check");
        ("expansion.exact_ms", exact_ms);
        ("expansion.anneal_ms", sum "expansion.anneal");
        ("expansion.subsets", subsets);
        ( "expansion.subset_ns",
          if subsets > 0. then exact_ms *. 1e6 /. subsets else 0. );
        ( "failed_share",
          float t.failed /. float (max 1 t.attempted) );
        ("trace.base_ms", ms base); ("trace.traced_ms", ms traced);
        ("trace.overhead_ratio", (float traced /. float base) -. 1.);
        ("trace.unattributed_ms", ms unattributed);
      ]
  in
  (t, [ ("passes", Json.Int 2); ("spans", self_times tr) ], values)

(* ---- serve-mixed ---- *)

let serve_queue = 1024

type server = { pid : int; sock : string }

(* Launch [bfly_tool serve] on a fresh cache directory and wait until it
   answers a [stats] request; returns the server, the open connection the
   stats went over, and the seconds from launch to that answer. *)
let start_server ~tool ~workers ~dir =
  rm_rf dir;
  mkdir_p dir;
  let sock = Filename.concat dir "s.sock" in
  let env =
    Array.append
      [| "BFLY_CACHE=on"; "BFLY_CACHE_DIR=" ^ Filename.concat dir "cache" |]
      (Array.of_list
         (List.filter
            (fun kv ->
              not
                (String.starts_with ~prefix:"BFLY_CACHE=" kv
                || String.starts_with ~prefix:"BFLY_CACHE_DIR=" kv))
            (Array.to_list (Unix.environment ()))))
  in
  let logfd =
    Unix.openfile (Filename.concat dir "server.log")
      [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644
  in
  let t0 = now () in
  let pid =
    Unix.create_process_env tool
      [|
        tool; "serve"; "--socket"; sock; "--workers"; string_of_int workers;
        "--queue"; string_of_int serve_queue;
      |]
      env Unix.stdin logfd logfd
  in
  Unix.close logfd;
  children := pid :: !children;
  let rec conn tries =
    match Load.connect sock with
    | fd -> fd
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _) when tries > 0
      ->
        Unix.sleepf 0.001;
        conn (tries - 1)
  in
  let fd = conn 10_000 in
  Load.write_all fd "{\"id\":\"setup\",\"job\":\"stats\"}\n";
  let ic = Unix.in_channel_of_descr fd in
  let line = input_line ic in
  let setup = float (now () - t0) /. 1e9 in
  if not (String.length line > 0 && line.[0] = '{') then
    failwith ("unexpected stats answer: " ^ line);
  ({ pid; sock }, fd, setup)

let stop_server s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap s.pid

(* Each response against its request: job outputs against [Job.run] on
   the same spec (cache off, each distinct spec once), stats for their
   fields, probes for the error captured on the seed commit. *)
let check_responses t ~probes (outs : Load.outcome list) =
  let expected = Hashtbl.create 1024 in
  let specs = ref [] in
  let spec_of line =
    match Protocol.parse_request ~default_id:"x" line with
    | Ok { payload = Job { spec; deadline }; _ } -> Some (spec, deadline)
    | _ -> None
  in
  List.iter
    (fun (o : Load.outcome) ->
      Array.iter
        (fun (r : Mix.req) ->
          match (r.cls, spec_of r.line) with
          | (Fresh | Popular), Some (spec, deadline) ->
              let fp = Job.fingerprint ?deadline spec in
              if not (Hashtbl.mem expected fp) then begin
                Hashtbl.replace expected fp None;
                specs := (fp, spec, deadline) :: !specs
              end
          | _ -> ())
        o.phase.reqs)
    outs;
  let todo = Array.of_list !specs in
  let was = Config.enabled () in
  Config.set_enabled false;
  let results =
    Parallel.map_range ~lo:0 ~hi:(Array.length todo) (fun i ->
        let _, spec, deadline = todo.(i) in
        Job.run ?deadline spec)
  in
  Config.set_enabled was;
  Array.iteri (fun i (fp, _, _) -> Hashtbl.replace expected fp (Some results.(i))) todo;
  let str name j = Option.bind (Json.member name j) Json.to_string_opt in
  let ok_of j = Option.bind (Json.member "ok" j) Json.to_bool_opt in
  List.iter
    (fun (o : Load.outcome) ->
      Array.iteri
        (fun i (r : Mix.req) ->
          t.attempted <- t.attempted + 1;
          let verdict =
            match Json.of_string o.resp.(i) with
            | Error _ when o.recv.(i) < 0 -> Error "no response"
            | Error e -> Error ("unparsable response: " ^ e)
            | Ok j -> (
                match r.cls with
                | Stats ->
                    if ok_of j = Some true && Json.member "requests" j <> None
                    then Ok ()
                    else Error "bad stats answer"
                | Probe p ->
                    let want = probes.(p) in
                    if ok_of j = Some false && str "error" j = Some want then
                      Ok ()
                    else Error ("probe answer differs from " ^ want)
                | Fresh | Popular -> (
                    match spec_of r.line with
                    | None -> Error "request does not parse"
                    | Some (spec, deadline) -> (
                        let want =
                          Hashtbl.find expected (Job.fingerprint ?deadline spec)
                        in
                        match (want, ok_of j, str "output" j, str "error" j) with
                        | Some (Ok w), Some true, Some got, _ when got = w ->
                            Ok ()
                        | Some (Error w), Some false, _, Some got when got = w
                          ->
                            Ok ()
                        | _ -> Error "output differs from Job.run")))
          in
          match verdict with
          | Ok () -> ()
          | Error why ->
              t.failed <- t.failed + 1;
              (* a failed request misses every latency limit *)
              o.recv.(i) <- -1;
              if t.failed <= 10 then log "request %s: %s" r.line why)
        o.phase.reqs)
    outs

(* Latencies of one phase in ms from each due time; failed and
   unanswered requests count as infinitely late. *)
let latencies (o : Load.outcome) =
  Array.to_list
    (Array.mapi
       (fun i (r : Mix.req) ->
         if o.recv.(i) < 0 then infinity else ms (o.recv.(i) - r.due_ns))
       o.phase.reqs)

let lateness (o : Load.outcome) =
  Array.to_list
    (Array.mapi
       (fun i (r : Mix.req) -> ms (max 0 (o.sent.(i) - r.due_ns)))
       o.phase.reqs)

let stats_rtts outs =
  List.concat_map
    (fun (o : Load.outcome) ->
      List.filter_map Fun.id
        (Array.to_list
           (Array.mapi
              (fun i (r : Mix.req) ->
                if r.cls = Stats && o.recv.(i) >= 0 then
                  Some (ms (o.recv.(i) - o.sent.(i)))
                else None)
              o.phase.reqs)))
    outs

(* Generator lateness above this makes a run invalid rather than slow. *)
let late_bound_ms = 25.

let phase_named name outs =
  List.find (fun (o : Load.outcome) -> o.phase.pname = name) outs

let timed outs = List.filter (fun (o : Load.outcome) -> o.phase.pname <> "warmup") outs

let socket_run ~tool ~workers ~dir phases =
  let srv, fd0, _ = start_server ~tool ~workers ~dir in
  let fds =
    Array.init Mix.connections (fun c -> if c = 0 then fd0 else Load.connect srv.sock)
  in
  let outs =
    List.map
      (fun p ->
        let o = Load.socket_phase fds p in
        Unix.sleepf 0.2;
        o)
      phases
  in
  let rss = vm_hwm_mb (string_of_int srv.pid) in
  Array.iter Unix.close fds;
  stop_server srv;
  (outs, rss)

let setup_probes = 11

let serve_untraced ~seed ~seconds ~work ~tool ~workers ~probes =
  let t = tally () in
  let setup =
    median
      (List.init setup_probes (fun k ->
           let srv, fd, s =
             start_server ~tool ~workers
               ~dir:(Filename.concat work (Printf.sprintf "probe-%d" k))
           in
           Unix.close fd;
           stop_server srv;
           s))
  in
  let phases = Mix.schedule ~seed ~seconds () in
  let outs, rss = socket_run ~tool ~workers ~dir:(Filename.concat work "server") phases in
  check_responses t ~probes outs;
  let late = quantile 0.99 (List.concat_map lateness (timed outs)) in
  if late > late_bound_ms then begin
    log "generator p99 lateness %.2f ms exceeds %.0f ms: the run is invalid"
      late late_bound_ms;
    t.failed <- t.failed + 1
  end;
  let nominal = latencies (phase_named "nominal" outs) in
  let peak = latencies (phase_named "peak" outs) in
  let passes (o : Load.outcome) =
    let l = latencies o in
    quantile 0.99 l <= Mix.latency_limit_ms
    && ms o.drain_ns <= Mix.latency_limit_ms
  in
  let achieved (o : Load.outcome) =
    float (Array.length o.phase.reqs)
    /. (float (Array.fold_left max 0 o.recv) /. 1e9)
  in
  let max_qps =
    List.fold_left
      (fun acc o -> if passes o then achieved o else acc)
      0. (timed outs)
  in
  let solve_s =
    List.fold_left
      (fun acc (o : Load.outcome) ->
        acc +. (float (Array.fold_left max 0 o.recv) /. 1e9))
      0. (timed outs)
  in
  ( t,
    [
      ( "phases",
        Json.List
          (List.map
             (fun (o : Load.outcome) ->
               Json.Obj
                 [
                   ("phase", Json.Str o.phase.pname);
                   ("rate", Json.Float o.phase.rate);
                   ("requests", Json.Int (Array.length o.phase.reqs));
                   ("p50_ms", Json.Float (quantile 0.5 (latencies o)));
                   ("p99_ms", Json.Float (quantile 0.99 (latencies o)));
                   ("drain_ms", Json.Float (ms o.drain_ns));
                   ("passes", Json.Bool (passes o));
                 ])
             (timed outs)) );
      ("loadgen_late_p99_ms", Json.Float late);
    ],
    [
      ("setup_s", setup);
      ("solve_s", solve_s);
      ("p50_ms", quantile 0.5 nominal);
      ("p99_ms", quantile 0.99 nominal);
      ("peak_p99_ms", quantile 0.99 peak);
      ("max_qps", max_qps);
      ("peak_rss_mb", rss);
    ] )

(* The traced run replays the warm-up and the first [min_phase_requests]
   requests of the nominal phase three times:
   over the socket (stats round trips, generator lateness), in process
   with tracing off, and in process with spans around the layer calls. *)
let serve_traced ~seed ~seconds ~work ~tool ~workers ~probes =
  let t = tally () in
  let phases =
    List.map
      (fun (p : Mix.phase) ->
        if p.pname = "warmup" then p
        else { p with reqs = Array.sub p.reqs 0 Mix.min_phase_requests })
      (Mix.schedule ~only:[ "nominal" ] ~seed ~seconds ())
  in
  let sock_outs, _ = socket_run ~tool ~workers ~dir:(Filename.concat work "server") phases in
  let replay ~on name =
    fresh_cache (Filename.concat work name);
    let tr = Span.create ~on in
    let a = read_registry () in
    let r = Load.in_process ~tr ~workers phases in
    let b = read_registry () in
    (tr, r, a, b)
  in
  let _, base, _, _ = replay ~on:false "cache-base" in
  let tr, traced, a, b = replay ~on:true "cache-traced" in
  Span.dump tr (Filename.concat work "spans.ndjson");
  let all = sock_outs @ base.outcomes @ traced.outcomes in
  check_responses t ~probes all;
  let p50 (r : Load.replay) = quantile 0.5 (latencies (phase_named "nominal" r.outcomes)) in
  let q q l = quantile q (List.map ms l) in
  let d = delta a b in
  let values =
    registry_layers a b
    @ [
        ( "protocol.parse_us",
          1000. *. q 0.5 (Span.durations tr "protocol.parse_request") );
        ("transport.stats_rtt_ms", median (stats_rtts sock_outs));
        ("server.submit_us", 1000. *. q 0.5 (Span.durations tr "server.submit"));
        ("server.queue_wait_p50_ms", q 0.5 traced.queue_wait);
        ("server.queue_wait_p99_ms", q 0.99 traced.queue_wait);
        ("server.batch_solve_p50_ms", q 0.5 traced.batch_ns);
        ("server.batch_solve_p99_ms", q 0.99 traced.batch_ns);
        ( "server.requests_per_batch",
          (* requests waiting when the batch was taken, plus those that
             joined it while it ran *)
          (float (List.fold_left ( + ) 0 traced.batch_width)
          +. d "serve.joined_inflight")
          /. float (max 1 (List.length traced.batch_width)) );
        ("server.coalesced", d "serve.coalesced");
        ("server.joined", d "serve.joined_inflight");
        ( "server.rejected",
          d "serve.rejected.overload" +. d "serve.rejected.client"
          +. d "serve.rejected.drain" );
        ( "loadgen.late_p99_ms",
          quantile 0.99 (List.concat_map lateness (timed sock_outs)) );
        ( "loadgen.sent",
          float
            (List.fold_left
               (fun acc (o : Load.outcome) ->
                 acc + Array.fold_left (fun a s -> if s >= 0 then a + 1 else a) 0 o.sent)
               0 sock_outs) );
        ("failed_share", float t.failed /. float (max 1 t.attempted));
        ("trace.base_ms", p50 base); ("trace.traced_ms", p50 traced);
        ("trace.overhead_ratio", (p50 traced /. p50 base) -. 1.);
      ]
  in
  (t, [ ("spans", self_times tr) ], values)

(* ---- set-up of the batch workloads ---- *)

(* A probe child does exactly the batch set-up — process start, domain
   pool, fresh cache directory, reference outputs — then says so. *)
let setup_probe ~work ~refs name =
  ignore (Parallel.map_range ~lo:0 ~hi:(Parallel.domain_count ()) Fun.id);
  fresh_cache (Filename.concat work (Printf.sprintf "probe-%d" (Unix.getpid ())));
  ignore (Jobs.read_refs (Jobs.ref_file ~dir:refs name));
  print_endline "ready"

let time_setup_probe ~work ~refs name =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid =
    Unix.create_process Sys.executable_name
      [|
        Sys.executable_name; "--setup-probe"; "--workload"; name; "--work"; work;
        "--refs"; refs;
      |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  children := pid :: !children;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  let s = float (now () - t0) /. 1e9 in
  close_in ic;
  reap pid;
  if line <> "ready" then failwith "set-up probe failed";
  s

(* ---- reference capture ---- *)

let capture ~refs =
  mkdir_p refs;
  Config.set_enabled false;
  List.iter
    (fun (w : Jobs.workload) ->
      let entries =
        List.map
          (fun spec -> (Job.fingerprint spec, Jobs.result_text (Job.run spec)))
          (List.sort_uniq
             (fun a b -> compare (Job.fingerprint a) (Job.fingerprint b))
             (Jobs.all_specs w))
      in
      Jobs.write_refs (Jobs.ref_file ~dir:refs w.name) entries;
      log "captured %d reference outputs for %s" (List.length entries) w.name)
    Jobs.workloads;
  let srv = Bfly_serve.Server.create () in
  let errors =
    List.mapi
      (fun i probe ->
        let got = ref "" in
        Bfly_serve.Server.submit srv
          ~reply:(fun l -> got := l)
          (probe (Printf.sprintf "q%d" i));
        ignore (Bfly_serve.Server.run_pending srv);
        match Json.of_string !got with
        | Ok j -> (
            match Option.bind (Json.member "error" j) Json.to_string_opt with
            | Some e -> e
            | None -> failwith ("probe did not fail: " ^ !got))
        | Error e -> failwith e)
      Mix.probes
  in
  Jobs.write_refs (Jobs.ref_file ~dir:refs "serve-probes")
    (List.mapi (fun i e -> (string_of_int i, e)) errors);
  log "captured %d probe errors" (List.length errors)

let read_probes ~refs =
  let tbl = Jobs.read_refs (Jobs.ref_file ~dir:refs "serve-probes") in
  Array.init (List.length Mix.probes) (fun i ->
      match Hashtbl.find_opt tbl (string_of_int i) with
      | Some e -> e
      | None -> failwith "serve-probes.ref is incomplete")

(* ---- main ---- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30 in
  let trace = ref 0 and work = ref ".perfbench" and refs = ref "perfbench/ref" in
  let tool = ref "_build/default/bin/bfly_tool.exe" in
  let mode = ref `Run in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S run length the workload is sized to");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--work", Arg.Set_string work, "DIR work directory (cache, sockets, spans)");
      ("--refs", Arg.Set_string refs, "DIR reference outputs");
      ("--tool", Arg.Set_string tool, "PATH bfly_tool executable");
      ("--capture", Arg.Unit (fun () -> mode := `Capture), " write reference outputs");
      ( "--print-schedule",
        Arg.Unit (fun () -> mode := `Schedule),
        " print the serve-mixed schedule" );
      ("--setup-probe", Arg.Unit (fun () -> mode := `Probe), " (internal)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  match !mode with
  | `Capture -> capture ~refs:!refs
  | `Schedule -> Mix.print stdout (Mix.schedule ~seed:!seed ~seconds:!seconds ())
  | `Probe -> setup_probe ~work:!work ~refs:!refs !workload
  | `Run ->
      let work = Filename.concat !work (Printf.sprintf "%s-%d" !workload !trace) in
      rm_rf work;
      mkdir_p work;
      let workers = min 2 (Parallel.domain_count ()) in
      let traced = !trace = 1 in
      let t, extra, metrics =
        match (!workload, Jobs.find !workload) with
        | _, Some w ->
            let refs_tbl = Jobs.read_refs (Jobs.ref_file ~dir:!refs w.name) in
            if traced then batch_traced w ~seed:!seed ~work ~refs:refs_tbl
            else
              let setup =
                median
                  (List.init setup_probes (fun _ ->
                       time_setup_probe ~work ~refs:!refs w.name))
              in
              batch_untraced w ~seed:!seed ~seconds:!seconds ~work ~refs:refs_tbl
                ~setup
        | "serve-mixed", None ->
            let probes = read_probes ~refs:!refs in
            (if traced then serve_traced else serve_untraced)
              ~seed:!seed ~seconds:!seconds ~work ~tool:!tool ~workers ~probes
        | name, None -> failwith ("unknown workload " ^ name)
      in
      let conditions =
        Json.Obj
          ([
             ("workload", Json.Str !workload);
             ("seed", Json.Int !seed);
             ("seconds", Json.Int !seconds);
             ("trace", Json.Int !trace);
             ("bfly_domains", Json.Int (Parallel.domain_count ()));
             ("ocaml", Json.Str Sys.ocaml_version);
             ( "cache",
               Json.Str
                 (if Jobs.find !workload <> None then
                    "fresh empty directory per pass, memory tier dropped"
                  else "fresh empty directory per server and per replay") );
             ("cache_dir", Json.Str work);
             ("server_workers", Json.Int workers);
             ("server_queue", Json.Int serve_queue);
             ( "rate_ladder",
               Json.Obj (List.map (fun (n, r) -> (n, Json.Float r)) Mix.ladder) );
             ("latency_limit_ms", Json.Float Mix.latency_limit_ms);
             ("late_bound_ms", Json.Float late_bound_ms);
           ]
          @ extra)
      in
      List.iter
        (fun d -> if Filename.basename d |> String.starts_with ~prefix:"cache" then rm_rf d)
        (List.map (Filename.concat work) (Array.to_list (Sys.readdir work)));
      print_result ~conditions ~correct:(t.failed = 0) ~attempted:t.attempted
        ~failed:t.failed metrics
