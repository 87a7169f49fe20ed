(* Tests for the deterministic load generator (lib/serve/loadgen): the
   schedule is a pure function of (trace, seed, clients, repeat); repeated
   runs agree on every deterministic field of the bfly-loadgen/1 document;
   sequential and concurrent replays produce identical output bytes; and
   Loadgen.gate gates exactly what it should — deterministic drift always,
   timing drift only beyond the slack factor (and not at all under
   timing:false, the cross-machine mode). *)

module Loadgen = Bfly_serve.Loadgen
module Json = Bfly_obs.Json
open Tu

let trace =
  [
    {|{"job":"mos","j":2}|};
    {|{"job":"mos","j":3}|};
    {|{"job":"bw","solver":"kl","network":"butterfly","n":8,"seed":1}|};
    {|{"job":"bw","solver":"spectral","network":"butterfly","n":8}|};
    (* a deterministic error: replies are part of the fingerprint too *)
    {|{"job":"mos","j":0}|};
  ]

let run ?(seed = 3) ?(clients = 3) ?(repeat = 4) ?mode () =
  match Loadgen.run ~seed ~clients ~repeat ?mode ~trace () with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "loadgen run failed: %s" e

let str doc k =
  match Option.bind (Json.member k doc) Json.to_string_opt with
  | Some s -> s
  | None -> Alcotest.failf "document lacks string field %S" k

let int_ doc k =
  match Option.bind (Json.member k doc) Json.to_int_opt with
  | Some i -> i
  | None -> Alcotest.failf "document lacks int field %S" k

let test_schedule_deterministic () =
  let s1 = Loadgen.schedule ~seed:7 ~clients:3 ~repeat:5 ~trace in
  let s2 = Loadgen.schedule ~seed:7 ~clients:3 ~repeat:5 ~trace in
  let s3 = Loadgen.schedule ~seed:8 ~clients:3 ~repeat:5 ~trace in
  check "length = repeat * trace" (5 * List.length trace) (Array.length s1);
  Alcotest.(check string)
    "same seed, same schedule"
    (Loadgen.schedule_fingerprint s1)
    (Loadgen.schedule_fingerprint s2);
  checkb "different seed, different schedule" true
    (Loadgen.schedule_fingerprint s1 <> Loadgen.schedule_fingerprint s3);
  Array.iter
    (fun ev ->
      checkb "client in range" true Loadgen.(ev.client >= 0 && ev.client < 3))
    s1;
  (* every round replays the full trace: each line appears exactly
     [repeat] times *)
  List.iter
    (fun line ->
      check "line multiplicity" 5
        (Array.fold_left
           (fun acc ev -> if Loadgen.(ev.line) = line then acc + 1 else acc)
           0 s1))
    trace

let test_repeat_runs_identical () =
  Test_serve.with_fresh_cache @@ fun () ->
  let d1 = run ~mode:Loadgen.Sequential () in
  let d2 = run ~mode:Loadgen.Sequential () in
  Alcotest.(check (list string))
    "deterministic fields identical" []
    (gate (Loadgen.gate ~timing:false ()) ~baseline:d1 d2);
  (* and the error line is visible, deterministically *)
  check "errors counted" 4 (int_ d1 "errors");
  check "every request answered" (int_ d1 "requests") (int_ d1 "responses")

let test_modes_byte_identical () =
  Test_serve.with_fresh_cache @@ fun () ->
  let seq = run ~mode:Loadgen.Sequential () in
  let conc = run ~mode:Loadgen.Concurrent () in
  Alcotest.(check string)
    "outputs fingerprint equal across modes"
    (str seq "outputs_fingerprint")
    (str conc "outputs_fingerprint");
  Alcotest.(check (list string))
    "no deterministic drift between modes" []
    (gate (Loadgen.gate ~timing:false ()) ~baseline:seq conc)

(* rebuild the document with one timing field scaled — the shape of an
   injected performance regression *)
let with_timing doc k f =
  match doc with
  | Json.Obj fields ->
      Json.Obj
        (List.map
           (function
             | "timing", Json.Obj tf ->
                 ( "timing",
                   Json.Obj
                     (List.map
                        (function
                          | k', v when k' = k -> (k', f v)
                          | kv -> kv)
                        tf) )
             | kv -> kv)
           fields)
  | other -> other

let scale_int factor = function
  | Json.Int i -> Json.Int (i * factor)
  | v -> v

let div_float factor = function
  | Json.Float f -> Json.Float (f /. factor)
  | Json.Int i -> Json.Float (float_of_int i /. factor)
  | v -> v

let test_compare_gates_timing () =
  Test_serve.with_fresh_cache @@ fun () ->
  let doc = run ~mode:Loadgen.Sequential () in
  Alcotest.(check (list string))
    "identical doc passes with timing" []
    (gate (Loadgen.gate ()) ~baseline:doc doc);
  let slow = with_timing doc "p99_ns" (scale_int 10) in
  checkb "p99 regression caught" true
    (gate (Loadgen.gate ~slack:3.0 ()) ~baseline:doc slow <> []);
  let starved = with_timing doc "achieved_qps" (div_float 10.) in
  checkb "throughput regression caught" true
    (gate (Loadgen.gate ~slack:3.0 ()) ~baseline:doc starved <> []);
  (* generous slack forgives, no-timing ignores *)
  Alcotest.(check (list string))
    "within slack passes" []
    (gate (Loadgen.gate ~slack:100.0 ()) ~baseline:doc slow);
  Alcotest.(check (list string))
    "no-timing ignores timing entirely" []
    (gate (Loadgen.gate ~timing:false ()) ~baseline:doc slow)

let test_compare_gates_determinism () =
  Test_serve.with_fresh_cache @@ fun () ->
  let doc = run () in
  let other_seed = run ~seed:4 () in
  checkb "seed drift always fails, even under no-timing" true
    (gate (Loadgen.gate ~timing:false ()) ~baseline:doc other_seed <> []);
  let forged =
    match doc with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (function
               | "outputs_fingerprint", _ ->
                   ("outputs_fingerprint", Json.Str "0000000000000000")
               | kv -> kv)
             fields)
    | other -> other
  in
  checkb "output drift always fails" true
    (gate (Loadgen.gate ~timing:false ()) ~baseline:forged doc <> [])

let test_fingerprint_primitives () =
  Alcotest.(check string)
    "fnv64 is stable" (Loadgen.fnv64 "butterfly") (Loadgen.fnv64 "butterfly");
  checkb "fnv64 separates" true
    (Loadgen.fnv64 "butterfly" <> Loadgen.fnv64 "butterflz");
  checkb "line digest order-sensitive" true
    (Loadgen.fingerprint_lines [ "a"; "b" ]
    <> Loadgen.fingerprint_lines [ "b"; "a" ])

let suite =
  [
    case "schedule is a pure function of its parameters"
      test_schedule_deterministic;
    slow_case "repeated runs agree on every deterministic field"
      test_repeat_runs_identical;
    slow_case "sequential and concurrent replays byte-identical"
      test_modes_byte_identical;
    slow_case "compare gates p99/throughput within slack"
      test_compare_gates_timing;
    slow_case "compare fails deterministic drift unconditionally"
      test_compare_gates_determinism;
    case "fingerprint primitives" test_fingerprint_primitives;
  ]
