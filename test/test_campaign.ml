(* The random-regular bisection campaign: the certificate's pinned exact
   values, grid-sweep contracts, end-to-end determinism across domain
   counts and cache states, the bfly-campaign/1 document schema, the
   statistical oracles' pass AND fail directions, and the committed
   CAMPAIGN_*.json baseline's reproducibility. *)

module G = Bfly_graph.Graph
module Generators = Bfly_graph.Generators
module Sweep = Bfly_graph.Sweep
module Certificate = Bfly_cuts.Certificate
module Campaign = Bfly_check.Campaign
module Bounds = Bfly_check.Bounds
module Json = Bfly_obs.Json
module Metrics = Bfly_obs.Metrics
module Job = Bfly_serve.Job
module Protocol = Bfly_serve.Protocol
open Tu

let with_domains_str s f =
  let old = Sys.getenv_opt "BFLY_DOMAINS" in
  Unix.putenv "BFLY_DOMAINS" s;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "BFLY_DOMAINS" (match old with Some s -> s | None -> ""))
    f

let with_domains d f = with_domains_str (string_of_int d) f

(* run [f] with the persistent cache disabled, so campaign solves are
   honest recomputations whatever earlier suites left cached *)
let without_cache f =
  let was = Bfly_cache.Config.enabled () in
  Bfly_cache.Config.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Bfly_cache.Config.set_enabled was)
    f

let counter name = Metrics.counter_value (Metrics.counter name)

(* ---- the K_N-embedding certificate ---- *)

let test_certificate_pins () =
  (* K_8: every BFS tree is a star, worst bundle congestion 2, so the
     bound is 2*4*4/2 = 16 — exactly BW(K_8) *)
  check "K_8 congestion" 2
    (Option.get (Certificate.kn_congestion (Generators.complete 8)));
  check "K_8 bound (exact)" 16 (Certificate.kn_bound (Generators.complete 8));
  (* a path's middle edge carries ceil(n/2)*floor(n/2) pairs each way, so
     the bound collapses to exactly 1 — the path's true bisection width *)
  check "path_8 bound (exact)" 1 (Certificate.kn_bound (Generators.path 8));
  check "cycle_8 bound (exact)" 2 (Certificate.kn_bound (Generators.cycle 8));
  (* disconnected graphs have a free bisection; the certificate must not
     claim otherwise *)
  let disconnected = G.of_edge_list ~n:4 [ (0, 1); (2, 3) ] in
  checkb "disconnected congestion is None" true
    (Certificate.kn_congestion disconnected = None);
  check "disconnected bound" 0 (Certificate.kn_bound disconnected);
  check "trivial graph bound" 0 (Certificate.kn_bound (G.of_edge_list ~n:1 []))

let test_certificate_sound =
  qcheck ~count:40 "certificate never exceeds the true bisection width"
    (seeded QCheck2.Gen.(pair (int_range 4 10) (int_range 0 8)))
    (fun ((n, extra), seed) ->
      let g = random_graph ~rng:(rng seed) n ~extra_edges:extra in
      Certificate.kn_bound g <= brute_bw g)

let test_certificate_deterministic_across_domains () =
  let g = Generators.random_regular ~simple:true ~rng:(rng 3) ~n:64 ~degree:3 in
  let at d = with_domains d (fun () -> Certificate.kn_bound g) in
  check "1 domain = 3 domains" (at 1) (at 3)

(* ---- the grid sweep ---- *)

let test_sweep_grid_order () =
  let pts = Sweep.points ~sizes:[ 8; 4 ] ~seeds:2 in
  checkb "size-major, seeds ascending from 1" true
    (pts
    = [
        { Sweep.n = 8; seed = 1 }; { Sweep.n = 8; seed = 2 };
        { Sweep.n = 4; seed = 1 }; { Sweep.n = 4; seed = 2 };
      ]);
  let results =
    Sweep.run ~sizes:[ 8; 4 ] ~seeds:2 (fun ~n ~seed -> (n, seed))
  in
  checkb "run returns points order" true
    (Array.to_list results = [ (8, 1); (8, 2); (4, 1); (4, 2) ]);
  check "empty grid" 0 (Array.length (Sweep.run ~sizes:[] ~seeds:5 (fun ~n:_ ~seed:_ -> ())))

let test_sweep_counts_points () =
  let before = counter "sweep.points" in
  ignore (Sweep.run ~sizes:[ 2; 3 ] ~seeds:3 (fun ~n ~seed -> n * seed));
  check "sweep.points ticked per point" 6 (counter "sweep.points" - before)

(* ---- pinned small-n regression ---- *)

let test_pinned_small_instance () =
  (* the campaign's (degree 3, n 14, seed 1) instance, pinned against the
     exact solver: the sampled graph, its certificate and the true width
     must never drift (the rng derivation and generator are contracts) *)
  let g = Campaign.instance_graph ~degree:3 ~n:14 ~seed:1 in
  check "edges" 21 (G.n_edges g);
  check "certified lb" 3 (Certificate.kn_bound g);
  check "exact bisection width" 3 (fst (Bfly_cuts.Exact.bisection_width g));
  (* the certificate is tight here — and must stay a lower bound *)
  checkb "lb <= exact" true (Certificate.kn_bound g <= 3)

(* ---- end-to-end determinism ---- *)

let campaign_exn ?restarts ~sizes ~seeds () =
  match Campaign.run ?restarts ~degree:3 ~sizes ~seeds () with
  | Ok t -> t
  | Error e -> Alcotest.failf "campaign failed: %s" e

let test_campaign_deterministic_across_domains () =
  without_cache @@ fun () ->
  let doc d =
    with_domains d (fun () ->
        Json.to_string
          (Campaign.to_json
             (campaign_exn ~restarts:2 ~sizes:[ 16; 24 ] ~seeds:2 ())))
  in
  Alcotest.(check string) "1 domain = 3 domains" (doc 1) (doc 3)

let test_campaign_warm_cache_identical () =
  (* a fresh cache directory: the cold run populates it (multilevel
     caches internally), the warm run must serve hits and produce the
     byte-identical document *)
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bfly-campaign-test-%d" (Unix.getpid ()))
  in
  let was_enabled = Bfly_cache.Config.enabled () in
  let old_dir = Bfly_cache.Config.dir () in
  let restore () =
    Bfly_cache.Config.set_enabled true;
    Bfly_cache.Config.set_dir dir;
    ignore (Bfly_cache.Store.clear ());
    (try Unix.rmdir dir with Unix.Unix_error _ | Sys_error _ -> ());
    Bfly_cache.Config.set_enabled was_enabled;
    Bfly_cache.Config.set_dir old_dir;
    Bfly_cache.Store.reset_memory ()
  in
  Bfly_cache.Config.set_enabled true;
  Bfly_cache.Config.set_dir dir;
  Bfly_cache.Store.reset_memory ();
  Fun.protect ~finally:restore @@ fun () ->
  let doc () =
    Json.to_string
      (Campaign.to_json (campaign_exn ~restarts:2 ~sizes:[ 16 ] ~seeds:2 ()))
  in
  let cold = doc () in
  let hit0 = counter "cache.hit" in
  let warm = doc () in
  Alcotest.(check string) "cold = warm" cold warm;
  checkb "warm run hit the cache" true (counter "cache.hit" > hit0)

(* ---- parameter validation ---- *)

let test_campaign_validation () =
  let err ?restarts ~degree ~sizes ~seeds () =
    match Campaign.run ?restarts ~degree ~sizes ~seeds () with
    | Ok _ -> Alcotest.fail "expected Error"
    | Error _ -> ()
  in
  err ~degree:1 ~sizes:[ 16 ] ~seeds:1 ();
  err ~degree:3 ~sizes:[] ~seeds:1 ();
  err ~degree:3 ~sizes:[ 16 ] ~seeds:0 ();
  err ~degree:3 ~sizes:[ 4 ] ~seeds:1 () (* n < 2*degree *);
  err ~degree:3 ~sizes:[ 15 ] ~seeds:1 () (* odd n*degree *);
  err ~degree:3 ~sizes:[ 32768 ] ~seeds:1 ();
  err ~restarts:0 ~degree:3 ~sizes:[ 16 ] ~seeds:1 ()

(* ---- the statistical oracles, both directions ---- *)

let mk ~n ~lb ~ml ~spectral =
  { Campaign.n; seed = 1; edges = 3 * n / 2; lb; ml; spectral }

let test_sanity_oracle () =
  let ok_instance = mk ~n:64 ~lb:5 ~ml:9 ~spectral:10 in
  checkb "clean instances pass" true
    (Campaign.sanity ~degree:3 [ ok_instance ]).Bounds.ok;
  checkb "lb > ml fails" false
    (Campaign.sanity ~degree:3 [ mk ~n:64 ~lb:10 ~ml:9 ~spectral:10 ]).Bounds.ok;
  checkb "lb > spectral fails" false
    (Campaign.sanity ~degree:3 [ mk ~n:64 ~lb:11 ~ml:12 ~spectral:10 ])
      .Bounds.ok;
  checkb "ml worse than the random cut fails" false
    (Campaign.sanity ~degree:3 [ mk ~n:64 ~lb:5 ~ml:49 ~spectral:50 ]).Bounds.ok;
  checkb "witness faults fail" false
    (Campaign.sanity ~degree:3 ~witness_faults:[ "n=64 seed=1: bad side" ]
       [ ok_instance ])
      .Bounds.ok

let summary_with ~n ~mean_ml ~mean_lb =
  {
    Campaign.s_n = n;
    count = 20;
    mean_lb;
    mean_ml;
    min_ml = mean_ml -. 0.005;
    max_ml = mean_ml +. 0.005;
    mean_spectral = mean_ml +. 0.01;
  }

let test_window_oracle () =
  (* in-window mean at a pinned size: both aggregate checks green *)
  let good = summary_with ~n:4096 ~mean_ml:0.136 ~mean_lb:0.059 in
  let checks = Campaign.aggregate ~degree:3 [ good ] in
  check "two checks at a windowed size" 2 (List.length checks);
  checkb "good summary passes" true
    (List.for_all (fun c -> c.Bounds.ok) checks);
  (* a heuristic collapse (mean above the bracket) must fail *)
  let high = summary_with ~n:4096 ~mean_ml:0.20 ~mean_lb:0.059 in
  checkb "mean above the window fails" true
    (List.exists
       (fun c -> not c.Bounds.ok)
       (Campaign.aggregate ~degree:3 [ high ]));
  (* a mean below the theorem's lower constant must fail too: the true
     width is a.a.s. >= mb_lower*n and ml upper-bounds it *)
  let low = summary_with ~n:4096 ~mean_ml:0.08 ~mean_lb:0.059 in
  checkb "mean below the window fails" true
    (List.exists
       (fun c -> not c.Bounds.ok)
       (Campaign.aggregate ~degree:3 [ low ]));
  (* an LB ratio crossing the upper constant would contradict the theorem *)
  let lb_bad = summary_with ~n:4096 ~mean_ml:0.136 ~mean_lb:0.145 in
  checkb "lb above mb_upper fails" true
    (List.exists
       (fun c -> not c.Bounds.ok)
       (Campaign.aggregate ~degree:3 [ lb_bad ]));
  (* no windows off the pinned sizes, or off degree 3 *)
  check "no checks at unpinned sizes" 0
    (List.length
       (Campaign.aggregate ~degree:3
          [ summary_with ~n:64 ~mean_ml:0.17 ~mean_lb:0.11 ]));
  check "no checks for other degrees" 0
    (List.length (Campaign.aggregate ~degree:4 [ good ]));
  checkb "window edges pinned" true
    (Campaign.window ~n:4096 = Some (Campaign.mb_lower, 0.140)
    && Campaign.window ~n:64 = None)

(* ---- the bfly-campaign/1 document ---- *)

let test_document_schema_and_roundtrip () =
  without_cache @@ fun () ->
  let t = campaign_exn ~restarts:2 ~sizes:[ 16 ] ~seeds:2 () in
  let doc = Campaign.to_json t in
  let str k = Option.bind (Json.member k doc) Json.to_string_opt in
  let int_ k = Option.bind (Json.member k doc) Json.to_int_opt in
  Alcotest.(check (option string)) "schema" (Some "bfly-campaign/1") (str "schema");
  Alcotest.(check (option int)) "degree" (Some 3) (int_ "degree");
  Alcotest.(check (option int)) "seeds" (Some 2) (int_ "seeds");
  Alcotest.(check (option int)) "restarts" (Some 2) (int_ "restarts");
  (match Json.member "constants" doc with
  | Some c ->
      checkb "constants carry the arXiv source" true
        (Option.bind (Json.member "source" c) Json.to_string_opt
        = Some "arXiv:2009.00598")
  | None -> Alcotest.fail "document has no constants object");
  (match Json.member "instances" doc with
  | Some (Json.List l) -> check "one instance row per grid point" 2 (List.length l)
  | _ -> Alcotest.fail "document has no instances list");
  (match Option.bind (Json.member "oracle" doc) (Json.member "ok") with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.fail "oracle verdict missing or false");
  (* byte-stable under our own parser/printer, like every committed doc *)
  let printed = Json.to_string doc in
  match Json.of_string printed with
  | Error e -> Alcotest.failf "reparse: %s" e
  | Ok doc2 ->
      Alcotest.(check string) "print/parse/print fixed point" printed
        (Json.to_string doc2)

let test_compare_docs_drift_directions () =
  without_cache @@ fun () ->
  let t = campaign_exn ~restarts:2 ~sizes:[ 16 ] ~seeds:2 () in
  let doc = Campaign.to_json t in
  Alcotest.(check (list string)) "self-compare is clean" []
    (gate Campaign.gate ~baseline:doc doc);
  (* drifted ml on one instance must be reported *)
  let tampered =
    Campaign.to_json
      { t with
        Campaign.instances =
          (match t.Campaign.instances with
          | i :: rest -> { i with Campaign.ml = i.Campaign.ml + 1 } :: rest
          | [] -> []);
      }
  in
  checkb "per-instance drift detected" true
    (gate Campaign.gate ~baseline:doc tampered <> []);
  (* an instance outside the baseline grid is drift, not silence *)
  let bigger =
    Campaign.to_json
      { t with
        Campaign.instances =
          t.Campaign.instances @ [ mk ~n:99 ~lb:1 ~ml:2 ~spectral:2 ];
      }
  in
  checkb "unknown instance detected" true
    (gate Campaign.gate ~baseline:doc bigger <> []);
  checkb "schema mismatch detected" true
    (gate Campaign.gate ~baseline:(Json.Obj [ ("schema", Json.Str "x") ]) doc
    <> [])

(* ---- serve wiring ---- *)

let test_job_fingerprint () =
  Alcotest.(check string) "pinned fingerprint" "campaign/3?sizes=32,64&seeds=3"
    (Job.fingerprint (Job.Campaign { degree = 3; sizes = [ 32; 64 ]; seeds = 3 }));
  checkb "different grids do not coalesce" true
    (Job.fingerprint (Job.Campaign { degree = 3; sizes = [ 32 ]; seeds = 3 })
    <> Job.fingerprint (Job.Campaign { degree = 3; sizes = [ 32 ]; seeds = 4 }))

let parse line =
  Protocol.parse_request ~default_id:"t" line

let test_protocol_campaign () =
  (match parse {|{"id":"c","job":"campaign","degree":3,"sizes":[16,24],"seeds":2}|} with
  | Ok
      {
        Protocol.payload =
          Protocol.Job { spec = Job.Campaign { degree; sizes; seeds }; _ };
        _;
      } ->
      checkb "parsed grid" true
        (degree = 3 && sizes = [ 16; 24 ] && seeds = 2)
  | _ -> Alcotest.fail "campaign request did not parse");
  (match parse {|{"id":"c","job":"campaign"}|} with
  | Ok
      {
        Protocol.payload =
          Protocol.Job { spec = Job.Campaign { degree; sizes; seeds }; _ };
        _;
      } ->
      checkb "defaults" true (degree = 3 && sizes = [ 32; 64 ] && seeds = 3)
  | _ -> Alcotest.fail "default campaign request did not parse");
  let rejected l =
    match parse l with Error _ -> true | Ok _ -> false
  in
  checkb "seeds capped when serving" true
    (rejected {|{"job":"campaign","seeds":17}|});
  checkb "size capped when serving" true
    (rejected {|{"job":"campaign","sizes":[2048]}|});
  checkb "sizes must be an int list" true
    (rejected {|{"job":"campaign","sizes":"16,24"}|})

let test_job_run_matches_render () =
  without_cache @@ fun () ->
  (* the served bytes are exactly the render of the same campaign — the
     serve/one-shot byte-identity contract, extended to campaign jobs *)
  match Job.run (Job.Campaign { degree = 3; sizes = [ 16 ]; seeds = 2 }) with
  | Error e -> Alcotest.failf "job failed: %s" e
  | Ok out ->
      let t =
        campaign_exn ~restarts:Campaign.default_restarts ~sizes:[ 16 ] ~seeds:2 ()
      in
      Alcotest.(check string) "served = rendered" (Campaign.render t) out

(* ---- the battery integration ---- *)

let test_check_battery_carries_campaign () =
  without_cache @@ fun () ->
  let json, ok = Bfly_check.Run.execute ~seed:1 ~rounds:1 ~smoke:true () in
  checkb "battery green" true ok;
  let text = Json.to_string json in
  checkb "campaign family in the battery" true
    (let needle = {|"campaign/sanity"|} in
     let lh = String.length text and ln = String.length needle in
     let rec go i = i + ln <= lh && (String.sub text i ln = needle || go (i + 1)) in
     go 0)

(* ---- the committed baseline ---- *)

let baseline_path = "../CAMPAIGN_2026-08-08.json"

let load_baseline () =
  let text = In_channel.with_open_text baseline_path In_channel.input_all in
  match Json.of_string text with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "campaign baseline is not valid JSON: %s" e

let test_baseline_contract () =
  let doc = load_baseline () in
  checkb "schema" true
    (Option.bind (Json.member "schema" doc) Json.to_string_opt
    = Some "bfly-campaign/1");
  checkb "degree 3" true
    (Option.bind (Json.member "degree" doc) Json.to_int_opt = Some 3);
  let instances =
    match Json.member "instances" doc with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "baseline has no instances"
  in
  check "full grid: 7 sizes x 20 seeds" 140 (List.length instances);
  (match Option.bind (Json.member "oracle" doc) (Json.member "ok") with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.fail "committed oracle verdict is not ok:true");
  Alcotest.(check (list string)) "baseline self-compare is clean" []
    (gate Campaign.gate ~baseline:doc doc);
  (* recompute the largest-size mean ml ratio from the committed rows and
     re-judge it against the pinned window — the aggregate the oracle
     asserts is derivable from the instances it ships with *)
  let big =
    List.filter_map
      (fun i ->
        match
          ( Option.bind (Json.member "n" i) Json.to_int_opt,
            Option.bind (Json.member "ml" i) Json.to_int_opt )
        with
        | Some 4096, Some ml -> Some (float_of_int ml /. 4096.)
        | _ -> None)
      instances
  in
  check "20 seeds at n=4096" 20 (List.length big);
  let mean = List.fold_left ( +. ) 0. big /. 20. in
  let lo, hi = Option.get (Campaign.window ~n:4096) in
  checkb "recomputed mean inside the pinned window" true
    (mean >= lo && mean <= hi);
  (* byte-stable round-trip, like the other committed documents *)
  let text = In_channel.with_open_text baseline_path In_channel.input_all in
  let printed = Json.to_string (Result.get_ok (Json.of_string text)) in
  checkb "round-trip fixed point" true
    (Json.to_string (Result.get_ok (Json.of_string printed)) = printed)

(* a sub-grid document cut from the committed baseline itself — sizes
   [64], seeds 1..3 — so the gate's field classes can be probed without
   re-running a campaign *)
let baseline_subgrid () =
  let in_subgrid i =
    Json.member "n" i = Some (Json.Int 64)
    && Option.bind (Json.member "seed" i) Json.to_int_opt
       |> Option.fold ~none:false ~some:(fun s -> s <= 3)
  in
  load_baseline ()
  |> tamper [ "instances" ] (function
       | Json.List l -> Some (Json.List (List.filter in_subgrid l))
       | v -> Some v)
  |> tamper [ "sizes" ] (fun _ -> Some (Json.List [ Json.Int 64 ]))
  |> tamper [ "seeds" ] (fun _ -> Some (Json.Int 3))

let test_gate_field_classes () =
  let baseline = load_baseline () in
  let sub = baseline_subgrid () in
  Alcotest.(check (list string)) "sub-grid passes" [] (gate Campaign.gate ~baseline sub);
  (* rows missing a column used to be filtered away, leaving zero
     comparable rows and a vacuous pass *)
  check "ml removed from every row: one drift per row" 3
    (List.length
       (gate Campaign.gate ~baseline
          (tamper [ "instances"; "*"; "ml" ] (fun _ -> None) sub)));
  checkb "an empty instance list is drift" true
    (gate Campaign.gate ~baseline
       (tamper [ "instances" ] (fun _ -> Some (Json.List [])) sub)
    <> []);
  checkb "a degree change refuses" true
    (refused Campaign.gate ~baseline
       (tamper [ "degree" ] (fun _ -> Some (Json.Int 4)) sub));
  let shift_summary = tamper [ "summary" ] (fun _ -> Some (Json.List [])) in
  checkb "same grid: summary drift is caught" true
    (gate Campaign.gate ~baseline (shift_summary baseline) <> []);
  checkb "same grid: oracle verdict drift is caught" true
    (gate Campaign.gate ~baseline
       (tamper [ "oracle"; "ok" ] (fun _ -> Some (Json.Bool false)) baseline)
    <> []);
  Alcotest.(check (list string))
    "sub-grid: summaries are not compared" []
    (gate Campaign.gate ~baseline (shift_summary sub))

let test_subgrid_reproduces_baseline () =
  without_cache @@ fun () ->
  (* the ci.sh campaign stage's property, in-process: a fresh sub-grid
     run must reproduce the committed per-instance triples exactly *)
  let t = campaign_exn ~sizes:[ 64 ] ~seeds:2 () in
  Alcotest.(check (list string)) "no drift against the committed baseline" []
    (gate Campaign.gate ~baseline:(load_baseline ()) (Campaign.to_json t))

let suite =
  [
    case "certificate: pinned exact values" test_certificate_pins;
    test_certificate_sound;
    case "certificate: deterministic across domains"
      test_certificate_deterministic_across_domains;
    case "sweep: grid order is the contract" test_sweep_grid_order;
    case "sweep: counts completed points" test_sweep_counts_points;
    case "pinned small-n instance vs exact solver" test_pinned_small_instance;
    case "campaign: deterministic across BFLY_DOMAINS"
      test_campaign_deterministic_across_domains;
    case "campaign: warm cache is byte-identical"
      test_campaign_warm_cache_identical;
    case "campaign: parameter validation" test_campaign_validation;
    case "sanity oracle: pass and fail directions" test_sanity_oracle;
    case "window oracle: pass and fail directions" test_window_oracle;
    case "document: schema and byte-stable round-trip"
      test_document_schema_and_roundtrip;
    case "compare_docs: drift directions" test_compare_docs_drift_directions;
    case "gate: field classes against a baseline sub-grid"
      test_gate_field_classes;
    case "serve: campaign fingerprints" test_job_fingerprint;
    case "serve: protocol parses and caps campaign jobs"
      test_protocol_campaign;
    case "serve: job output equals render" test_job_run_matches_render;
    case "check battery carries the campaign family"
      test_check_battery_carries_campaign;
    case "committed baseline: schema, oracle, windows" test_baseline_contract;
    slow_case "sub-grid run reproduces the committed baseline"
      test_subgrid_reproduces_baseline;
  ]
