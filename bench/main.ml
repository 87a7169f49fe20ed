(* Benchmark harness: regenerates every table and figure of the paper
   (experiments E1-E13, F1-F2 of DESIGN.md), then times the library's
   computational kernels with Bechamel — one Test per experiment's kernel.

   Besides the human-readable tables, [--json FILE] writes one
   machine-readable document per run (reproduction outputs, per-kernel
   time estimates, and the Bfly_obs metrics the kernels recorded), so
   successive PRs accumulate a perf trajectory:

     dune exec bench/main.exe -- --json BENCH_$(date +%F).json

   [--smoke] shrinks the run (cheap experiments, short Bechamel quota) for
   use as a tier-1 CI gate; the JSON schema is identical.

   [--values FILE] writes a second, timing-free document holding only the
   deterministic experiment outputs — byte-identical between a cold-cache
   and warm-cache run of the same build, which ci.sh asserts with cmp.
   Each experiment object in the [--json] document also carries the
   cache.hit / cache.miss deltas it incurred, so a warm run is visibly
   warm in the trajectory.

   The [--json] document also embeds two deterministic regression anchors,
   both captured BEFORE the Bechamel stage (whose timing-dependent
   iteration counts pollute the process-wide cache counters):

   - "gate": the exact.bb.nodes / cache.hit / cache.miss counter totals
     after the reproduction + oracle stages — fixed for a fixed build,
     domain count and (fresh) cache state;
   - "check": the full differential-oracle summary
     (seed 42, 5 rounds, smoke subset), deterministic by construction.

   [--compare BASELINE.json] turns the harness into a CI gate: it re-runs
   the deterministic stages only (reproduction + oracle; Bechamel is
   skipped), diffs experiment outputs, gate counters and the check summary
   against the committed baseline document, and exits non-zero on any
   drift. Incompatible with --chaos / --deadline, which perturb the very
   quantities being compared. *)

open Bechamel
open Toolkit
module Butterfly = Bfly_networks.Butterfly
module Wrapped = Bfly_networks.Wrapped
module Benes = Bfly_networks.Benes
module Perm = Bfly_graph.Perm
module Json = Bfly_obs.Json
module Metrics = Bfly_obs.Metrics
module Span = Bfly_obs.Span

(* ---- command line ---- *)

let usage =
  "usage: main.exe [--json FILE] [--values FILE] [--smoke] [--deadline D] \
   [--chaos] [--compare BASELINE.json]"

let json_file, values_file, smoke, deadline, chaos, compare_file =
  let json_file = ref None
  and values_file = ref None
  and smoke = ref false
  and deadline = ref None
  and chaos = ref false
  and compare_file = ref None in
  let rec parse = function
    | [] -> ()
    | "--json" :: file :: rest ->
        json_file := Some file;
        parse rest
    | "--values" :: file :: rest ->
        values_file := Some file;
        parse rest
    | "--compare" :: file :: rest ->
        compare_file := Some file;
        parse rest
    | "--deadline" :: d :: rest -> (
        match Bfly_resil.Budget.of_string d with
        | Ok b ->
            deadline := Some b;
            parse rest
        | Error e ->
            Printf.eprintf "bad --deadline: %s\n%s\n" e usage;
            exit 2)
    | [ "--json" ] | [ "--values" ] | [ "--deadline" ] | [ "--compare" ] ->
        prerr_endline usage;
        exit 2
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--chaos" :: rest ->
        chaos := true;
        parse rest
    | arg :: _ ->
        Printf.eprintf "unknown argument %S\n%s\n" arg usage;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !compare_file <> None && (!chaos || !deadline <> None) then begin
    prerr_endline
      "--compare is a determinism gate; --chaos / --deadline perturb the \
       compared quantities and are not allowed with it";
    exit 2
  end;
  (!json_file, !values_file, !smoke, !deadline, !chaos, !compare_file)

(* experiments cheap enough to gate every CI run on *)
let smoke_experiments = [ "E2"; "E4"; "E10"; "E14"; "F1"; "D1" ]

(* C1 lives in bfly_check (which depends on bfly_core, not vice versa),
   so the registry rows are appended here rather than in Experiments.all *)
let all_experiments () =
  Bfly_core.Experiments.all @ [ ("C1", Bfly_check.Campaign.c1) ]

let run_experiments () =
  print_endline "==============================================================";
  print_endline " Reproduction tables (per-experiment index in DESIGN.md)";
  print_endline "==============================================================";
  let selected =
    if smoke then
      List.filter
        (fun (name, _) -> List.mem name smoke_experiments)
        (all_experiments ())
    else all_experiments ()
  in
  let c_hit = Metrics.counter "cache.hit" in
  let c_miss = Metrics.counter "cache.miss" in
  List.map
    (fun (name, f) ->
      let hit0 = Metrics.counter_value c_hit in
      let miss0 = Metrics.counter_value c_miss in
      let t0 = Span.now_ns () in
      let out =
        (* chaos mode: an injected fault escaping an experiment must not
           kill the whole bench run *)
        try f ()
        with Bfly_resil.Fault.Injected m ->
          Printf.sprintf "(survived injected fault: %s)\n" m
      in
      let wall_ns = Span.now_ns () - t0 in
      let hits = Metrics.counter_value c_hit - hit0 in
      let misses = Metrics.counter_value c_miss - miss0 in
      Printf.printf "\n--- %s ---\n%s%!" name out;
      (name, out, wall_ns, hits, misses))
    selected

(* ---- deterministic regression anchors ---- *)

(* The oracle battery runs with a fixed configuration in every mode, so
   the embedded summary is comparable across smoke and full documents. *)
let check_seed = 42
let check_rounds = 5

let run_check () =
  print_endline "\n==============================================================";
  Printf.printf " Differential oracle battery (seed %d, %d rounds, smoke)\n"
    check_seed check_rounds;
  print_endline "==============================================================";
  let json, ok =
    Bfly_check.Run.execute ~seed:check_seed ~rounds:check_rounds ~smoke:true ()
  in
  Printf.printf "%s\n%!" (if ok then "oracle: all checks passed" else "oracle: FAILURES");
  (json, ok)

(* Counter totals the CI gates key on; must be read before the Bechamel
   stage, whose timing-dependent iteration counts keep ticking cache.hit. *)
let gate_snapshot () =
  List.map
    (fun name -> (name, Metrics.counter_value (Metrics.counter name)))
    Bfly_check.Bench_gate.counters

(* one Bechamel test per experiment kernel *)
let micro_tests () =
  let rng = Random.State.make [| 0xbe9c4 |] in
  let b8 = Butterfly.of_inputs 8 in
  let b256 = Butterfly.of_inputs 256 in
  let b1024 = Butterfly.of_inputs 1024 in
  let w256 = Wrapped.of_inputs 256 in
  let column_cut = Bfly_cuts.Constructions.butterfly_column_cut b256 in
  let witness = Bfly_expansion.Witness.wn_ee ~dim:4 w256 in
  let benes = Benes.create ~dim:6 in
  let benes_perm = Perm.random ~rng (2 * Benes.n benes) in
  let greedy_paths =
    Bfly_routing.Workload.greedy_random ~rng (Butterfly.of_inputs 16)
  in
  let g16 = Butterfly.graph (Butterfly.of_inputs 16) in
  let stage = Staged.stage in
  Test.make_grouped ~name:"bfly"
    [
      Test.make ~name:"E10:build-butterfly-256"
        (stage (fun () -> ignore (Butterfly.of_inputs 256)));
      Test.make ~name:"E1:cut-capacity-B256"
        (stage (fun () ->
             ignore
               (Bfly_graph.Traverse.boundary_edges (Butterfly.graph b256)
                  column_cut)));
      Test.make ~name:"E1:mos-pullback-search-B1024"
        (stage (fun () -> ignore (Bfly_cuts.Constructions.best_mos_pullback b1024)));
      Test.make ~name:"E1:exact-bb-B4"
        (stage (fun () ->
             ignore
               (Bfly_cuts.Exact.bisection_width ~upper_bound:4
                  (Butterfly.graph (Butterfly.of_inputs 4)))));
      Test.make ~name:"E1:kl-restarts-B256"
        (stage (fun () ->
             ignore
               (Bfly_cuts.Heuristics.kernighan_lin
                  ~rng:(Random.State.make [| 0x6b |])
                  ~restarts:4 (Butterfly.graph b256))));
      Test.make ~name:"E1:fm-restarts-B256"
        (stage (fun () ->
             ignore
               (Bfly_cuts.Heuristics.fiduccia_mattheyses
                  ~rng:(Random.State.make [| 0x66 |])
                  ~restarts:4 (Butterfly.graph b256))));
      Test.make ~name:"E1:sa-anneal-B256"
        (stage (fun () ->
             ignore
               (Bfly_cuts.Heuristics.annealing
                  ~rng:(Random.State.make [| 0x5a |])
                  ~restarts:2 (Butterfly.graph b256))));
      Test.make ~name:"E1:ml-bisect-B1024"
        (stage (fun () ->
             ignore
               (Bfly_cuts.Multilevel.bisect
                  ~rng:(Random.State.make [| 0x6d6c |])
                  ~restarts:2 (Butterfly.graph b1024))));
      Test.make ~name:"E2:bw-mos-closed-form-j256"
        (stage (fun () -> ignore (Bfly_mos.Mos_analysis.bw_m2 256)));
      Test.make ~name:"E3:knn-embedding-congestion-B8"
        (stage (fun () ->
             ignore
               (Bfly_embed.Embedding.congestion
                  (Bfly_embed.Classic.knn_into_butterfly b8))));
      Test.make ~name:"E5:credit-scheme-W256"
        (stage (fun () -> ignore (Bfly_expansion.Credit.wn_edge w256 witness)));
      Test.make ~name:"E5:exact-EE-W8-k6"
        (stage (fun () ->
             ignore
               (Bfly_expansion.Expansion.ee_exact
                  (Wrapped.graph (Wrapped.of_inputs 8))
                  ~k:6)));
      Test.make ~name:"E11:route-random-B16"
        (stage (fun () -> ignore (Bfly_routing.Router.run g16 ~paths:greedy_paths)));
      Test.make ~name:"E12:benes-looping-dim6"
        (stage (fun () -> ignore (Benes.route_ports benes benes_perm)));
      Test.make ~name:"Lemma2.3:monotone-path-B1024"
        (stage (fun () ->
             ignore (Butterfly.monotone_path b1024 ~input_col:37 ~output_col:901)));
      Test.make ~name:"E17:rearrange-route-B64"
        (stage
           (let b64 = Butterfly.of_inputs 64 in
            let p = Perm.random ~rng 64 in
            fun () -> ignore (Bfly_embed.Rearrange.route_ports b64 p)));
      Test.make ~name:"E15:io-separation-maxflow-B8"
        (stage (fun () -> ignore (Bfly_cuts.Io_cut.exact b8)));
      Test.make ~name:"E16:level-bisect-B32"
        (stage
           (let b32 = Butterfly.of_inputs 32 in
            let side = Bfly_cuts.Constructions.butterfly_column_cut b32 in
            fun () -> ignore (Bfly_cuts.Level_cut.bisect_some_level b32 side)));
      Test.make ~name:"E14:layout-B256"
        (stage (fun () -> ignore (Bfly_networks.Layout.butterfly_grid b256)));
    ]

let run_micro () =
  print_endline "\n==============================================================";
  print_endline " Kernel micro-benchmarks (Bechamel, monotonic clock)";
  print_endline "==============================================================";
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let cfg =
    if smoke then Benchmark.cfg ~limit:100 ~quota:(Time.second 0.05) ()
    else Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ()
  in
  (* the solver kernels are memoized in the result cache, and every
     Bechamel iteration re-solves the same fixed-seed instance — with the
     cache on, every iteration past the first would measure a lookup, not
     the kernel. Disable it for the micro phase only; the gate snapshot
     (and every compared counter) is taken before this point. *)
  let cache_was = Bfly_cache.Config.enabled () in
  Bfly_cache.Config.set_enabled false;
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] (micro_tests ()) in
  Bfly_cache.Config.set_enabled cache_was;
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  let rows = List.sort compare rows in
  Printf.printf "%-42s %16s %8s\n" "kernel" "time/run" "r^2";
  Printf.printf "%s\n" (String.make 68 '-');
  List.map
    (fun (name, est) ->
      let ns =
        match Analyze.OLS.estimates est with Some [ ns ] -> Some ns | _ -> None
      in
      let time =
        match ns with
        | Some ns ->
            if ns >= 1e9 then Printf.sprintf "%10.3f s" (ns /. 1e9)
            else if ns >= 1e6 then Printf.sprintf "%10.3f ms" (ns /. 1e6)
            else if ns >= 1e3 then Printf.sprintf "%10.3f us" (ns /. 1e3)
            else Printf.sprintf "%10.1f ns" ns
        | None -> "n/a"
      in
      let r2 = Analyze.OLS.r_square est in
      let r2_str =
        match r2 with Some r -> Printf.sprintf "%.3f" r | None -> "-"
      in
      Printf.printf "%-42s %16s %8s\n" name time r2_str;
      (name, ns, r2))
    rows

(* ---- JSON trajectory document ---- *)

let iso8601_utc () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
    t.Unix.tm_sec

let mode = if smoke then "smoke" else "full"

let json_document ~experiments ~check ~gate ~kernels =
  Json.Obj
    [
      ("schema", Json.Str "bfly-bench/2");
      ("generated_at", Json.Str (iso8601_utc ()));
      ("mode", Json.Str mode);
      ("chaos", Json.Bool chaos);
      ( "deadline",
        match deadline with
        | None -> Json.Null
        | Some b -> Json.Str (Bfly_resil.Budget.to_string b) );
      ("domains", Json.Int (Bfly_graph.Parallel.domain_count ()));
      ( "bfly_domains_env",
        match Sys.getenv_opt "BFLY_DOMAINS" with
        | None | Some "" -> Json.Null
        | Some s -> Json.Str s );
      ( "experiments",
        Json.List
          (List.map
             (fun (name, out, wall_ns, hits, misses) ->
               Json.Obj
                 [
                   ("name", Json.Str name);
                   ("wall_ns", Json.Int wall_ns);
                   ( "cache",
                     Json.Obj
                       [ ("hit", Json.Int hits); ("miss", Json.Int misses) ] );
                   ("output", Json.Str out);
                 ])
             experiments) );
      ( "gate",
        Json.Obj (List.map (fun (name, v) -> (name, Json.Int v)) gate) );
      ("check", check);
      ( "kernels",
        Json.List
          (List.map
             (fun (name, ns, r2) ->
               Json.Obj
                 [
                   ("name", Json.Str name);
                   ( "ns_per_run",
                     match ns with Some v -> Json.Float v | None -> Json.Null );
                   ( "r_square",
                     match r2 with Some v -> Json.Float v | None -> Json.Null );
                 ])
             kernels) );
      ("metrics", Metrics.to_json ());
    ]

(* Only the deterministic parts of a run: per-experiment measured outputs,
   no timings, no cache counters, no timestamps. Two runs of the same
   build over the same experiments — warm or cold cache — must produce
   byte-identical values documents; ci.sh compares them with cmp. *)
let values_document ~experiments =
  Json.Obj
    [
      ("schema", Json.Str "bfly-bench-values/1");
      ("mode", Json.Str mode);
      ( "experiments",
        Json.List
          (List.map
             (fun (name, out, _, _, _) ->
               Json.Obj [ ("name", Json.Str name); ("output", Json.Str out) ])
             experiments) );
    ]

let write_doc file doc =
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Json.to_string doc);
      output_char oc '\n');
  Printf.printf "\nwrote %s\n" file

(* ---- --compare: counter-based regression gate ---- *)

(* Diff the deterministic fields of this build's run against a committed
   baseline document under Bench_gate.schema. The configuration fields
   are checked before anything runs, so a mismatched baseline is refused
   in milliseconds rather than after the full reproduction stage. *)
let compare_run baseline_file =
  let refuse m =
    Printf.eprintf "refusing to compare against %s: %s\n" baseline_file m;
    exit 2
  in
  let baseline =
    Result.fold ~ok:Fun.id ~error:refuse (Bfly_obs.Doc.load baseline_file)
  in
  let gate ~schema doc =
    match Bfly_obs.Doc.compare ~schema ~baseline doc with
    | Bfly_obs.Doc.Refused m -> refuse m
    | Bfly_obs.Doc.Drifts drifts -> drifts
  in
  ignore
    (gate ~schema:Bfly_check.Bench_gate.config
       (json_document ~experiments:[] ~check:Json.Null ~gate:[] ~kernels:[]));
  let experiments = run_experiments () in
  let check, _ = run_check () in
  let gate_values = gate_snapshot () in
  match
    gate ~schema:Bfly_check.Bench_gate.schema
      (json_document ~experiments ~check ~gate:gate_values ~kernels:[])
  with
  | [] ->
      Printf.printf
        "\ncompare: OK — %d experiment outputs, %d gate counters and the \
         oracle summary match %s\n"
        (List.length experiments) (List.length gate_values) baseline_file;
      0
  | drifts ->
      Printf.printf "\ncompare: %d drift(s) against %s\n" (List.length drifts)
        baseline_file;
      List.iter (fun d -> Printf.printf "  - %s\n" d) drifts;
      1

let () =
  match compare_file with
  | Some baseline -> exit (compare_run baseline)
  | None ->
      (* [--deadline] supervises the reproduction stage through the ambient
         cancel token (cooperating solvers degrade when it fires); [--chaos]
         additionally arms fault injection around it. The Bechamel stage and
         the oracle battery run outside both — timings of degraded kernels
         would be meaningless, and the embedded check summary must stay the
         deterministic anchor --compare diffs against. *)
      let under_deadline f =
        match deadline with
        | None -> f ()
        | Some budget ->
            Bfly_resil.Cancel.with_ambient
              (Bfly_resil.Cancel.create ~budget ())
              f
      in
      let experiments =
        if chaos then
          Bfly_resil.Fault.scope ~seed:42 Bfly_resil.Fault.all (fun () ->
              under_deadline run_experiments)
        else under_deadline run_experiments
      in
      let check, check_ok = run_check () in
      let gate = gate_snapshot () in
      let kernels = run_micro () in
      (match json_file with
      | None -> ()
      | Some file ->
          write_doc file (json_document ~experiments ~check ~gate ~kernels));
      (match values_file with
      | None -> ()
      | Some file -> write_doc file (values_document ~experiments));
      if not check_ok then exit 1
