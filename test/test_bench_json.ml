(* The CI pipeline greps bench --json documents for counter fields and
   diffs them against the committed baseline (ci.sh warm/compare stages).
   These tests pin both sides of that contract in-process:

   - the counters the gates key on keep their literal metric names, and
     solving actually ticks them into Metrics.to_json_string's output
     (which is the "metrics" field of the bench document);
   - the committed baseline document itself stays on schema bfly-bench/2
     with every field the gates read: mode, domains, experiments
     (name+output), the pre-Bechamel "gate" counter snapshot, and the
     embedded oracle summary;
   - the committed loadgen baseline (LOADGEN_*.json, schema
     bfly-loadgen/1) keeps the deterministic/timing field split the
     `loadgen --compare` latency gate reads, stays reproducible from the
     committed trace, and actually fails on an injected p99/throughput
     regression. *)

module Json = Bfly_obs.Json
module Metrics = Bfly_obs.Metrics
module Butterfly = Bfly_networks.Butterfly
open Tu

(* every counter ci.sh's warm stage reads and bench --compare diffs,
   pinned literally: Bench_gate.counters must stay equal to it *)
let gate_fields =
  [
    "exact.bb.nodes"; "cache.hit"; "cache.miss"; "ml.levels"; "ml.refine.moves";
    "fabric.builds"; "constructions.dimension.cuts"; "product.sandwich.checks";
    "campaign.instances"; "campaign.oracle.checks";
  ]

let counter name = Metrics.counter_value (Metrics.counter name)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_gate_counters_tick () =
  (* a fresh cache directory makes the solve's counter behaviour
     deterministic: first run misses and searches, second run hits *)
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bfly-benchjson-test-%d" (Unix.getpid ()))
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
  let solve () =
    ignore
      (Bfly_cuts.Exact.bisection_width_supervised
         (Butterfly.graph (Butterfly.of_inputs 4)))
  in
  let nodes0 = counter "exact.bb.nodes" in
  let miss0 = counter "cache.miss" in
  solve ();
  checkb "cold exact solve ticks exact.bb.nodes" true
    (counter "exact.bb.nodes" > nodes0);
  checkb "cold exact solve misses the cache" true (counter "cache.miss" > miss0);
  let nodes1 = counter "exact.bb.nodes" in
  let hit0 = counter "cache.hit" in
  solve ();
  check "warm exact solve does not search" 0 (counter "exact.bb.nodes" - nodes1);
  checkb "warm exact solve hits the cache" true (counter "cache.hit" > hit0)

let test_metrics_json_carries_gate_fields () =
  (* to_json_string renders the bench document's "metrics" field, so the
     literal quoted names must appear *)
  let doc = Metrics.to_json_string () in
  List.iter
    (fun name ->
      checkb
        (Printf.sprintf "metrics JSON mentions %S" name)
        true
        (contains doc (Printf.sprintf "%S:" name)))
    gate_fields

(* ---- the committed baseline document ---- *)

let baseline_path =
  (* materialized in the build tree by the (deps ...) of test/dune; the
     test action runs in _build/default/test *)
  "../BENCH_2026-08-08.json"

let load_baseline () =
  let text = In_channel.with_open_text baseline_path In_channel.input_all in
  match Json.of_string text with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "baseline is not valid JSON: %s" e

let str doc k = Option.bind (Json.member k doc) Json.to_string_opt
let int_ doc k = Option.bind (Json.member k doc) Json.to_int_opt

let test_baseline_schema () =
  let doc = load_baseline () in
  Alcotest.(check (option string))
    "schema" (Some "bfly-bench/2") (str doc "schema");
  Alcotest.(check (option string)) "mode" (Some "full") (str doc "mode");
  (* the compare gate refuses to diff across pool widths, so the baseline
     must declare its own *)
  Alcotest.(check (option int)) "domains" (Some 1) (int_ doc "domains")

let test_baseline_gate_snapshot () =
  let doc = load_baseline () in
  match Json.member "gate" doc with
  | None -> Alcotest.fail "baseline has no gate object"
  | Some gate ->
      List.iter
        (fun name ->
          match int_ gate name with
          | None -> Alcotest.failf "gate snapshot lacks %s" name
          | Some v -> checkb (Printf.sprintf "%s >= 0" name) true (v >= 0))
        gate_fields;
      (* a full cold run certainly searched *)
      checkb "baseline searched" true
        (Option.value (int_ gate "exact.bb.nodes") ~default:0 > 0)

let test_baseline_experiments () =
  let doc = load_baseline () in
  match Json.member "experiments" doc with
  | Some (Json.List (_ :: _ as l)) ->
      List.iter
        (fun e ->
          match (str e "name", str e "output") with
          | Some name, Some out ->
              checkb
                (Printf.sprintf "experiment %s has output" name)
                true
                (String.length out > 0)
          | _ ->
              Alcotest.failf "experiment entry lacks name/output: %s"
                (Json.to_string e))
        l
  | _ -> Alcotest.fail "baseline has no non-empty experiments list"

let test_baseline_check_summary () =
  let doc = load_baseline () in
  match Json.member "check" doc with
  | None -> Alcotest.fail "baseline has no embedded oracle summary"
  | Some check ->
      Alcotest.(check (option string))
        "oracle tool" (Some "bfly_check") (str check "tool");
      (match Option.bind (Json.member "ok" check) Json.to_bool_opt with
      | Some true -> ()
      | _ -> Alcotest.fail "baseline oracle summary is not ok:true");
      (* fixed configuration, so smoke and full documents stay comparable *)
      Alcotest.(check (option int)) "oracle seed" (Some 42) (int_ check "seed")

(* round-trip: the values document fields ci.sh cmp's are reproducible
   through our own parser/printer (cmp compares bytes, so to_string must
   be stable under parse) *)
let test_baseline_roundtrip () =
  let text = In_channel.with_open_text baseline_path In_channel.input_all in
  match Json.of_string text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok doc -> (
      let printed = Json.to_string doc in
      match Json.of_string printed with
      | Error e -> Alcotest.failf "reparse: %s" e
      | Ok doc2 ->
          Alcotest.(check string)
            "print/parse/print is a fixed point" printed (Json.to_string doc2))

(* ---- the bench --compare gate (Bench_gate.schema) ---- *)

let test_gate_counters_declared_once () =
  Alcotest.(check (list string))
    "Bench_gate.counters is the pinned list" gate_fields
    Bfly_check.Bench_gate.counters

(* PERFORMANCE.md documents the gate counters by name; each must appear
   backtick-quoted so a rename fails here instead of silently drifting *)
let test_perf_docs_name_gate_counters () =
  let text = In_channel.with_open_text "../PERFORMANCE.md" In_channel.input_all in
  List.iter
    (fun c ->
      checkb
        (Printf.sprintf "PERFORMANCE.md documents `%s`" c)
        true
        (contains text ("`" ^ c ^ "`")))
    Bfly_check.Bench_gate.counters

let test_bench_gate_injected_drift () =
  let doc = load_baseline () in
  let schema = Bfly_check.Bench_gate.schema in
  Alcotest.(check (list string))
    "baseline passes against itself" [] (gate schema ~baseline:doc doc);
  (* one line of the first experiment's output *)
  let edited =
    tamper [ "experiments" ]
      (function
        | Json.List (e :: rest) ->
            let mark_line_2 = function
              | Json.Str out -> (
                  match String.split_on_char '\n' out with
                  | l1 :: l2 :: ls ->
                      Some (Json.Str (String.concat "\n" (l1 :: (l2 ^ "!") :: ls)))
                  | _ -> Alcotest.fail "first experiment output is one line")
              | _ -> Alcotest.fail "experiment output is not a string"
            in
            Some (Json.List (tamper [ "output" ] mark_line_2 e :: rest))
        | v -> Some v)
      doc
  in
  (match gate schema ~baseline:doc edited with
  | [ d ] ->
      checkb ("first divergent line reported: " ^ d) true
        (contains d "experiments[name=F1]/output: line 2: ")
  | ds -> Alcotest.failf "expected one drift, got [%s]" (String.concat "; " ds));
  let bump = function Json.Int v -> Some (Json.Int (v + 1)) | v -> Some v in
  Alcotest.(check (list string))
    "one gate counter" [ "gate/cache.hit: baseline 75, current 76" ]
    (gate schema ~baseline:doc (tamper [ "gate"; "cache.hit" ] bump doc));
  check "the check summary" 1
    (List.length (gate schema ~baseline:doc (tamper [ "check"; "seed" ] bump doc)));
  check "a failing oracle battery" 2
    (List.length
       (gate schema ~baseline:doc
          (tamper [ "check"; "ok" ] (fun _ -> Some (Json.Bool false)) doc)));
  checkb "mode refuses" true
    (refused schema ~baseline:doc
       (tamper [ "mode" ] (fun _ -> Some (Json.Str "smoke")) doc));
  checkb "domains refuses" true
    (refused schema ~baseline:doc (tamper [ "domains" ] bump doc));
  check "timings, kernels and metrics are ignored" 0
    (List.length
       (gate schema ~baseline:doc
          (doc
          |> tamper [ "kernels" ] (fun _ -> Some (Json.List []))
          |> tamper [ "metrics" ] (fun _ -> None)
          |> tamper [ "experiments"; "*"; "wall_ns" ] bump)))

(* ---- the committed loadgen baseline (bfly-loadgen/1) ---- *)

let loadgen_baseline_path = "../LOADGEN_2026-08-08.json"
let loadgen_trace_path = "../bench/loadgen_trace.ndjson"

let load_loadgen_baseline () =
  let text =
    In_channel.with_open_text loadgen_baseline_path In_channel.input_all
  in
  match Json.of_string text with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "loadgen baseline is not valid JSON: %s" e

(* every deterministic field the loadgen --compare gate diffs, by its
   literal name; renaming one silently un-gates CI *)
let loadgen_deterministic_fields =
  [
    "seed"; "clients"; "repeat"; "requests"; "responses"; "ok"; "errors";
  ]

let loadgen_fingerprint_fields =
  [ "trace_fingerprint"; "schedule_fingerprint"; "outputs_fingerprint" ]

let loadgen_timing_fields =
  [ "wall_ns"; "p50_ns"; "p90_ns"; "p99_ns"; "max_ns" ]

let test_loadgen_baseline_schema () =
  let doc = load_loadgen_baseline () in
  Alcotest.(check (option string))
    "schema" (Some "bfly-loadgen/1") (str doc "schema");
  List.iter
    (fun name ->
      match int_ doc name with
      | None -> Alcotest.failf "baseline lacks int field %s" name
      | Some v -> checkb (Printf.sprintf "%s >= 0" name) true (v >= 0))
    loadgen_deterministic_fields;
  List.iter
    (fun name ->
      match str doc name with
      | None -> Alcotest.failf "baseline lacks fingerprint %s" name
      | Some fp -> check (name ^ " is a 64-bit hex digest") 16 (String.length fp))
    loadgen_fingerprint_fields;
  checkb "a real run: requests > 0" true
    (Option.value (int_ doc "requests") ~default:0 > 0);
  Alcotest.(check (option int))
    "every request answered" (int_ doc "requests") (int_ doc "responses");
  match Json.member "timing" doc with
  | None -> Alcotest.fail "baseline has no timing object"
  | Some t ->
      List.iter
        (fun name ->
          match int_ t name with
          | None -> Alcotest.failf "timing lacks %s" name
          | Some v -> checkb (Printf.sprintf "timing %s >= 0" name) true (v >= 0))
        loadgen_timing_fields;
      checkb "achieved_qps present and positive" true
        (match Json.member "achieved_qps" t with
        | Some (Json.Float f) -> f > 0.
        | Some (Json.Int i) -> i > 0
        | _ -> false)

(* the data-center fabric mix rides the same schema and gate; its trace
   exercises serve with product-network jobs (ml/exact/spectral on
   meshes, tori, bcubes) plus the malformed-request rejection paths *)
let dc_baseline_path = "../LOADGEN_DC_2026-08-08.json"
let dc_trace_path = "../bench/loadgen_dc_trace.ndjson"

(* the committed trace and the committed baseline describe the same
   replay: regenerating the document from the trace cannot drift its
   schedule unnoticed *)
let baseline_matches_trace ~baseline_path ~trace_path =
  let doc =
    let text = In_channel.with_open_text baseline_path In_channel.input_all in
    match Json.of_string text with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "loadgen baseline is not valid JSON: %s" e
  in
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (In_channel.with_open_text trace_path In_channel.input_lines)
  in
  Alcotest.(check (option string))
    "trace fingerprint matches committed trace"
    (Some (Bfly_serve.Loadgen.fingerprint_lines lines))
    (str doc "trace_fingerprint");
  let seed = Option.value (int_ doc "seed") ~default:0 in
  let clients = Option.value (int_ doc "clients") ~default:0 in
  let repeat = Option.value (int_ doc "repeat") ~default:0 in
  let events =
    Bfly_serve.Loadgen.schedule ~seed ~clients ~repeat ~trace:lines
  in
  Alcotest.(check (option string))
    "schedule fingerprint reproducible from (trace, seed, clients, repeat)"
    (Some (Bfly_serve.Loadgen.schedule_fingerprint events))
    (str doc "schedule_fingerprint");
  Alcotest.(check (option int))
    "request count is the schedule's length"
    (Some (Array.length events))
    (int_ doc "requests")

let test_loadgen_baseline_matches_trace () =
  baseline_matches_trace ~baseline_path:loadgen_baseline_path
    ~trace_path:loadgen_trace_path

let test_loadgen_dc_baseline_matches_trace () =
  baseline_matches_trace ~baseline_path:dc_baseline_path
    ~trace_path:dc_trace_path

(* the DC trace must actually contain fabric jobs and the malformed lines
   the serve protocol rejects — otherwise the gate stops covering the
   product-network serving path *)
let test_loadgen_dc_trace_mix () =
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (In_channel.with_open_text dc_trace_path In_channel.input_lines)
  in
  let count p = List.length (List.filter p lines) in
  checkb "has torus jobs" true (count (fun l -> contains l "torus:") >= 2);
  checkb "has mesh jobs" true (count (fun l -> contains l "mesh:") >= 2);
  checkb "has a bcube job" true (count (fun l -> contains l "bcube:") >= 1);
  checkb "has a mixed product job" true
    (count (fun l -> contains l "product:") >= 1);
  checkb "has exact solves" true (count (fun l -> contains l "exact") >= 2);
  (* every line must at least parse as JSON except the duplicate-key
     probe, which of_string accepts but the protocol screens out *)
  List.iter
    (fun l ->
      match Json.of_string l with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "unparseable trace line %s: %s" l e)
    lines;
  checkb "has a duplicate-key probe the protocol rejects" true
    (count
       (fun l ->
         match Json.of_string l with
         | Ok doc -> Json.duplicate_key doc <> None
         | Error _ -> false)
     >= 1)

(* the gate actually fires on an injected regression against the
   committed baseline — the end-to-end property ci.sh's loadgen stage
   relies on *)
let test_loadgen_baseline_gates_regression () =
  let doc = load_loadgen_baseline () in
  Alcotest.(check (list string))
    "baseline passes against itself" []
    (gate (Bfly_serve.Loadgen.gate ()) ~baseline:doc doc);
  let degrade f =
    match doc with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (function
               | "timing", Json.Obj tf -> ("timing", Json.Obj (List.map f tf))
               | kv -> kv)
             fields)
    | other -> other
  in
  let slow =
    degrade (function
      | "p99_ns", Json.Int v -> ("p99_ns", Json.Int (v * 10))
      | kv -> kv)
  in
  checkb "p99 x10 fails the gate" true
    (gate (Bfly_serve.Loadgen.gate ~slack:3.0 ()) ~baseline:doc slow <> []);
  let starved =
    degrade (function
      | "achieved_qps", Json.Float v -> ("achieved_qps", Json.Float (v /. 10.))
      | "achieved_qps", Json.Int v ->
          ("achieved_qps", Json.Float (float_of_int v /. 10.))
      | kv -> kv)
  in
  checkb "throughput /10 fails the gate" true
    (gate (Bfly_serve.Loadgen.gate ~slack:3.0 ()) ~baseline:doc starved <> []);
  checkb "no-timing mode ignores both" true
    (gate (Bfly_serve.Loadgen.gate ~timing:false ()) ~baseline:doc slow = []
    && gate (Bfly_serve.Loadgen.gate ~timing:false ()) ~baseline:doc starved = [])

(* the loadgen gate's other field classes against the committed baseline:
   a deleted timing section is drift (never a silent pass), a schema
   change refuses, and fields outside the schema are free to move *)
let test_loadgen_gate_field_classes () =
  let doc = load_loadgen_baseline () in
  let no_timing = tamper [ "timing" ] (fun _ -> None) doc in
  check "timing deleted from the current document" 2
    (List.length (gate (Bfly_serve.Loadgen.gate ()) ~baseline:doc no_timing));
  check "timing deleted from the baseline" 2
    (List.length (gate (Bfly_serve.Loadgen.gate ()) ~baseline:no_timing doc));
  check "no-timing mode does not need the section" 0
    (List.length
       (gate (Bfly_serve.Loadgen.gate ~timing:false ()) ~baseline:doc no_timing));
  check "a zero baseline p99 gates nothing" 0
    (List.length
       (gate (Bfly_serve.Loadgen.gate ())
          ~baseline:(tamper [ "timing"; "p99_ns" ] (fun _ -> Some (Json.Int 0)) doc)
          doc));
  checkb "schema change refuses" true
    (refused (Bfly_serve.Loadgen.gate ()) ~baseline:doc
       (tamper [ "schema" ] (fun _ -> Some (Json.Str "bfly-loadgen/2")) doc));
  check "mode, workers and server stats are ignored" 0
    (List.length
       (gate (Bfly_serve.Loadgen.gate ()) ~baseline:doc
          (doc
          |> tamper [ "mode" ] (fun _ -> Some (Json.Str "connect"))
          |> tamper [ "workers" ] (fun _ -> Some (Json.Int 64))
          |> tamper [ "server" ] (fun _ -> None))))

let test_loadgen_baseline_roundtrip () =
  let text =
    In_channel.with_open_text loadgen_baseline_path In_channel.input_all
  in
  match Json.of_string text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok doc -> (
      let printed = Json.to_string doc in
      match Json.of_string printed with
      | Error e -> Alcotest.failf "reparse: %s" e
      | Ok doc2 ->
          Alcotest.(check string)
            "print/parse/print is a fixed point" printed (Json.to_string doc2))

let suite =
  [
    case "solving ticks the gate counters" test_gate_counters_tick;
    case "metrics JSON carries the grepped field names"
      test_metrics_json_carries_gate_fields;
    case "baseline: schema, mode, domains" test_baseline_schema;
    case "baseline: gate counter snapshot" test_baseline_gate_snapshot;
    case "baseline: experiments carry name+output" test_baseline_experiments;
    case "baseline: embedded oracle summary" test_baseline_check_summary;
    case "baseline: JSON round-trips byte-stably" test_baseline_roundtrip;
    case "bench gate: counters declared once" test_gate_counters_declared_once;
    case "bench gate: PERFORMANCE.md names every counter"
      test_perf_docs_name_gate_counters;
    case "bench gate: injected drift fails or refuses"
      test_bench_gate_injected_drift;
    case "loadgen baseline: schema and field names" test_loadgen_baseline_schema;
    case "loadgen baseline: reproducible from the committed trace"
      test_loadgen_baseline_matches_trace;
    case "loadgen DC baseline: reproducible from the committed trace"
      test_loadgen_dc_baseline_matches_trace;
    case "loadgen DC trace: fabric mix and malformed probes"
      test_loadgen_dc_trace_mix;
    case "loadgen baseline: injected regressions fail the gate"
      test_loadgen_baseline_gates_regression;
    case "loadgen baseline: JSON round-trips byte-stably"
      test_loadgen_baseline_roundtrip;
    case "loadgen gate: missing timing, config and ignored fields"
      test_loadgen_gate_field_classes;
  ]
