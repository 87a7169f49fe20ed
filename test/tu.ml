(* Shared test utilities. *)

module G = Bfly_graph.Graph
module Bitset = Bfly_graph.Bitset

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* Every randomized helper takes an explicit [rng]; [rng seed] makes one.
   There is deliberately no shared process-global state: suites used to
   mutate one [Random.State] in registration order, so adding a test case
   reseeded every generator registered after it. Seeding per case keeps
   each test's instances stable under suite growth. *)
let rng seed = Random.State.make [| seed; 0x7e57 |]

(* Append a per-case seed to a QCheck generator: randomized properties
   draw their instances from [rng seed], so every invocation owns its
   stream and the seed shrinks (toward 0) with the rest of the case. *)
let seeded gen = QCheck2.Gen.(pair gen (int_bound 0xffffff))

(* Erdős–Rényi-ish random graph, made connected by a random spanning path. *)
let random_graph ~rng n ~extra_edges =
  let edges = ref [] in
  let perm = Bfly_graph.Perm.random ~rng n in
  for i = 0 to n - 2 do
    edges := (Bfly_graph.Perm.apply perm i, Bfly_graph.Perm.apply perm (i + 1)) :: !edges
  done;
  for _ = 1 to extra_edges do
    let u = Random.State.int rng n and v = Random.State.int rng n in
    if u <> v then edges := (u, v) :: !edges
  done;
  G.of_edge_list ~n !edges

let random_subset ~rng n k =
  let p = Bfly_graph.Perm.random ~rng n in
  let s = Bitset.create n in
  for i = 0 to k - 1 do
    Bitset.add s (Bfly_graph.Perm.apply p i)
  done;
  s

(* Brute-force bisection width for tiny graphs. The historical in-test
   implementation grew into [Bfly_check.Reference], which the whole
   differential-oracle layer now builds on; this alias keeps the test
   suites reading the same. *)
let brute_bw g = fst (Bfly_check.Reference.bisection_width g)

(* ---- document gates ---- *)

(* Drift messages of a Bfly_obs.Doc gate; a refusal counts as one. *)
let gate schema ~baseline doc =
  match Bfly_obs.Doc.compare ~schema ~baseline doc with
  | Bfly_obs.Doc.Drifts drifts -> drifts
  | Bfly_obs.Doc.Refused m -> [ "refused: " ^ m ]

let refused schema ~baseline doc =
  match Bfly_obs.Doc.compare ~schema ~baseline doc with
  | Bfly_obs.Doc.Refused _ -> true
  | Bfly_obs.Doc.Drifts _ -> false

(* [tamper path f doc] rewrites the field at [path] (object keys; "*"
   maps over every element of a list) to [f value], deleting it when [f]
   returns [None] — the shape of an injected drift. *)
let rec tamper path f (doc : Bfly_obs.Json.t) =
  match (path, doc) with
  | [ k ], Bfly_obs.Json.Obj fields ->
      Bfly_obs.Json.Obj
        (List.filter_map
           (fun (k', v) ->
             if k' = k then Option.map (fun v -> (k', v)) (f v) else Some (k', v))
           fields)
  | k :: rest, Bfly_obs.Json.Obj fields ->
      Bfly_obs.Json.Obj
        (List.map (fun (k', v) -> (k', if k' = k then tamper rest f v else v)) fields)
  | "*" :: rest, Bfly_obs.Json.List l ->
      Bfly_obs.Json.List (List.map (tamper rest f) l)
  | _ -> doc
