(* Bfly_obs: counter atomicity under domains, gauge/timer behavior, and
   the shape of the hand-rolled JSON. *)

module Json = Bfly_obs.Json
module Metrics = Bfly_obs.Metrics
module Span = Bfly_obs.Span
open Tu

(* ---- counters are atomic across domains ---- *)

let test_counter_atomic () =
  let c = Metrics.counter "test.obs.atomic" in
  let before = Metrics.counter_value c in
  let per_domain = 25_000 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Metrics.incr c
            done))
  in
  List.iter Domain.join domains;
  check "no lost increments" (before + (4 * per_domain))
    (Metrics.counter_value c)

let test_counter_idempotent_registration () =
  let a = Metrics.counter "test.obs.same" in
  let b = Metrics.counter "test.obs.same" in
  Metrics.add a 3;
  Metrics.incr b;
  check "one cell behind one name" 4 (Metrics.counter_value a)

let test_gauge () =
  let g = Metrics.gauge "test.obs.gauge" in
  Metrics.set g 2.5;
  Alcotest.(check (float 0.0)) "last write wins" 2.5 (Metrics.gauge_value g);
  Metrics.set g 1.0;
  Alcotest.(check (float 0.0)) "overwritten" 1.0 (Metrics.gauge_value g)

let test_timer_and_span () =
  let before = (Metrics.timer_stat (Metrics.timer "test.obs.span")).count in
  let result = Span.time ~name:"test.obs.span" (fun () -> 1 + 1) in
  check "span returns the body's value" 2 result;
  (try Span.time ~name:"test.obs.span" (fun () -> failwith "x")
   with Failure _ -> ());
  let st = Metrics.timer_stat (Metrics.timer "test.obs.span") in
  check "both spans recorded (even the raising one)" (before + 2) st.count;
  checkb "total covers max" true (st.total_ns >= st.max_ns);
  checkb "durations non-negative" true (st.total_ns >= 0)

let test_reset () =
  let c = Metrics.counter "test.obs.reset" in
  Metrics.add c 7;
  ignore (Span.time ~name:"test.obs.reset_t" (fun () -> ()));
  Metrics.reset ();
  check "counter zeroed" 0 (Metrics.counter_value c);
  check "timer zeroed" 0
    (Metrics.timer_stat (Metrics.timer "test.obs.reset_t")).count

(* ---- JSON ---- *)

let test_json_serialization () =
  Alcotest.(check string)
    "escaping" "{\"a\":\"x\\\"y\\n\\\\z\"}"
    (Json.to_string (Json.Obj [ ("a", Json.Str "x\"y\n\\z") ]));
  Alcotest.(check string)
    "scalars" "[null,true,42,1.5,\"s\"]"
    (Json.to_string
       (Json.List [ Json.Null; Json.Bool true; Json.Int 42; Json.Float 1.5; Json.Str "s" ]));
  Alcotest.(check string)
    "non-finite floats become null" "[null,null]"
    (Json.to_string (Json.List [ Json.Float Float.nan; Json.Float Float.infinity ]));
  Alcotest.(check string)
    "control characters" "\"\\u0001\""
    (Json.to_string (Json.Str "\001"))

let test_metrics_json_shape () =
  Metrics.add (Metrics.counter "test.obs.json_c") 11;
  Metrics.set (Metrics.gauge "test.obs.json_g") 3.25;
  ignore (Span.time ~name:"test.obs.json_t" (fun () -> ()));
  let s = Metrics.to_json_string () in
  let contains needle =
    let n = String.length needle and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  checkb "counters section" true (contains "\"counters\":{");
  checkb "gauges section" true (contains "\"gauges\":{");
  checkb "timers section" true (contains "\"timers\":{");
  checkb "counter value" true (contains "\"test.obs.json_c\":11");
  checkb "gauge value" true (contains "\"test.obs.json_g\":3.25");
  checkb "timer fields" true (contains "\"test.obs.json_t\":{\"count\":1,");
  (* the snapshot, and hence the JSON, is sorted by name *)
  let snap = Metrics.snapshot () in
  let sorted l = List.sort compare l = l in
  checkb "counters sorted" true (sorted (List.map fst snap.Metrics.counters));
  checkb "timers sorted" true (sorted (List.map fst snap.Metrics.timers))

(* ---- Doc: the document-and-gate engine ---- *)

module Doc = Bfly_obs.Doc

let doc_of text =
  match Json.of_string text with
  | Ok d -> d
  | Error e -> Alcotest.failf "fixture: %s" e

let base =
  doc_of
    {|{"schema":"s/1","mode":"full","n":3,"note":"x","t":{"p99":100,"qps":50.0},
       "out":"a\nb\nc","rows":[{"k":1,"v":10},{"k":2,"v":20}]}|}

let test_doc_get () =
  let get p = Option.map Json.to_string (Doc.get base p) in
  Alcotest.(check (option string)) "nested" (Some "100") (get "t/p99");
  Alcotest.(check (option string)) "list index" (Some "20") (get "rows/1/v");
  Alcotest.(check (option string)) "missing" None (get "t/p50");
  Alcotest.(check (option string)) "index out of range" None (get "rows/2");
  Alcotest.(check (option string)) "negative index" None (get "rows/-1");
  Alcotest.(check (option string)) "through a scalar" None (get "n/x")

let test_doc_exact () =
  let schema = [ Doc.exact "n"; Doc.exact "out" ] in
  check "self-compare clean" 0 (List.length (gate schema ~baseline:base base));
  let drifts = gate schema ~baseline:base (tamper [ "n" ] (fun _ -> Some (Json.Int 4)) base) in
  Alcotest.(check (list string)) "scalar drift" [ "n: baseline 3, current 4" ] drifts;
  Alcotest.(check (list string))
    "a multi-line string reports its first divergent line"
    [ {|out: line 2: "B" vs baseline "b"|} ]
    (gate schema ~baseline:base
       (tamper [ "out" ] (fun _ -> Some (Json.Str "a\nB\nc")) base));
  Alcotest.(check (list string))
    "missing on the current side is drift"
    [ "n: missing from current document" ]
    (gate schema ~baseline:base (tamper [ "n" ] (fun _ -> None) base));
  checkb "mistyped is drift" true
    (gate schema ~baseline:base (tamper [ "n" ] (fun _ -> Some (Json.Str "3")) base)
    <> [])

let test_doc_config () =
  let schema = [ Doc.config "mode" ~hint:"pass --full"; Doc.exact "n" ] in
  let smoke = tamper [ "mode" ] (fun _ -> Some (Json.Str "smoke")) base in
  (match Doc.compare ~schema ~baseline:base (tamper [ "n" ] (fun _ -> Some (Json.Int 9)) smoke) with
  | Doc.Refused m ->
      Alcotest.(check string) "refusal names the field and hint"
        {|mode: baseline "full", this run "smoke" — pass --full|} m
  | Doc.Drifts _ -> Alcotest.fail "a config mismatch must refuse, not drift");
  checkb "missing config refuses" true
    (refused schema ~baseline:(tamper [ "mode" ] (fun _ -> None) base) base)

let test_doc_slack () =
  let schema =
    [ Doc.slack ~better:`Lower 3.0 "t/p99"; Doc.slack ~better:`Higher 3.0 "t/qps" ]
  in
  let set k v = tamper [ "t"; k ] (fun _ -> Some v) base in
  check "within slack" 0
    (List.length (gate schema ~baseline:base (set "p99" (Json.Int 300))));
  check "p99 beyond slack" 1
    (List.length (gate schema ~baseline:base (set "p99" (Json.Int 301))));
  check "qps beyond slack" 1
    (List.length (gate schema ~baseline:base (set "qps" (Json.Float 16.))));
  check "a zero baseline gates nothing" 0
    (List.length
       (gate schema ~baseline:(set "p99" (Json.Int 0)) (set "p99" (Json.Int 999))));
  check "missing timing object on the current side" 2
    (List.length (gate schema ~baseline:base (tamper [ "t" ] (fun _ -> None) base)));
  check "missing on the baseline side" 1
    (List.length
       (gate schema ~baseline:(tamper [ "t"; "qps" ] (fun _ -> None) base) base))

let test_doc_rows () =
  let schema sub = [ Doc.rows "rows" ~subset:sub ~key:[ "k" ] [ Doc.exact "v" ] ] in
  let first_only =
    tamper [ "rows" ] (function Json.List (r :: _) -> Some (Json.List [ r ]) | v -> Some v) base
  in
  check "subset accepted" 0 (List.length (gate (schema true) ~baseline:base first_only));
  Alcotest.(check (list string))
    "a missing baseline row is drift without subset"
    [ "rows[k=2]: in baseline, not in current document" ]
    (gate (schema false) ~baseline:base first_only);
  Alcotest.(check (list string))
    "column drift names the row"
    [ "rows[k=1]/v: baseline 10, current 11" ]
    (gate (schema true) ~baseline:base
       (tamper [ "rows"; "*"; "v" ] (function Json.Int 10 -> Some (Json.Int 11) | v -> Some v) base));
  Alcotest.(check (list string))
    "a row outside the baseline is drift"
    [ "rows[k=2]: not in baseline" ]
    (gate (schema true) ~baseline:first_only base);
  check "a column missing from every row is drift per row" 2
    (List.length
       (gate (schema true) ~baseline:base (tamper [ "rows"; "*"; "v" ] (fun _ -> None) base)));
  checkb "zero current rows is drift, not a vacuous pass" true
    (gate (schema true) ~baseline:base (tamper [ "rows" ] (fun _ -> Some (Json.List [])) base)
    <> []);
  checkb "a row without its key is drift" true
    (gate (schema true) ~baseline:base (tamper [ "rows"; "*"; "k" ] (fun _ -> None) base)
    <> []);
  checkb "a non-list is drift" true
    (gate (schema true) ~baseline:base (tamper [ "rows" ] (fun _ -> Some (Json.Int 0)) base)
    <> [])

let test_doc_when_same_and_ignored () =
  let schema = [ Doc.when_same [ "mode" ] [ Doc.exact "n" ] ] in
  let n9 = tamper [ "n" ] (fun _ -> Some (Json.Int 9)) base in
  check "guard equal: compared" 1 (List.length (gate schema ~baseline:base n9));
  check "guard differs: skipped" 0
    (List.length
       (gate schema ~baseline:base (tamper [ "mode" ] (fun _ -> Some (Json.Str "smoke")) n9)));
  check "undeclared fields are ignored" 0
    (List.length
       (gate [ Doc.exact "n" ] ~baseline:base
          (tamper [ "note" ] (fun _ -> Some (Json.Str "y")) base)))

let suite =
  [
    case "counter atomic under domains" test_counter_atomic;
    case "registration idempotent" test_counter_idempotent_registration;
    case "gauge" test_gauge;
    case "timer spans" test_timer_and_span;
    case "reset" test_reset;
    case "json serialization" test_json_serialization;
    case "metrics json shape" test_metrics_json_shape;
    case "doc: get paths" test_doc_get;
    case "doc: exact fields" test_doc_exact;
    case "doc: config fields refuse" test_doc_config;
    case "doc: slack fields" test_doc_slack;
    case "doc: keyed rows" test_doc_rows;
    case "doc: when_same guards, undeclared ignored"
      test_doc_when_same_and_ignored;
  ]
