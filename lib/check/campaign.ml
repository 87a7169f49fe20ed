module G = Bfly_graph.Graph
module Generators = Bfly_graph.Generators
module Sweep = Bfly_graph.Sweep
module Cancel = Bfly_resil.Cancel
module Multilevel = Bfly_cuts.Multilevel
module Heuristics = Bfly_cuts.Heuristics
module Certificate = Bfly_cuts.Certificate
module Json = Bfly_obs.Json
module Doc = Bfly_obs.Doc
module Metrics = Bfly_obs.Metrics

(* arXiv:2009.00598: the minimum bisection of a random cubic graph is
   asymptotically almost surely between these two constants times n. *)
let mb_lower = 0.10300
let mb_upper = 0.13932

(* The pinned statistical-oracle windows for the degree-3 campaign: the
   mean ml-heuristic cut ratio at each of the largest sizes must land
   inside [lo, hi]. The lower edge is the arXiv constant itself — the
   heuristic upper-bounds the true minimum bisection, which a.a.s.
   exceeds mb_lower·n — and the upper edge is the committed campaign's
   measured mean (0.13584 / 0.13418 / 0.13625) plus at least six
   standard errors of the 20-seed mean (EXPERIMENTS.md, chapter C1,
   derives the widths from the committed seed spread); it sits just
   above mb_upper, so passing certifies the heuristic tracks the
   theorem's upper constant to within noise. *)
let windows =
  [ (1024, (mb_lower, 0.140)); (2048, (mb_lower, 0.140)); (4096, (mb_lower, 0.140)) ]

let window ~n = List.assoc_opt n windows

let default_sizes = [ 64; 128; 256; 512; 1024; 2048; 4096 ]
let default_seeds = 20
let default_restarts = 4

type instance = {
  n : int;
  seed : int;
  edges : int;
  lb : int;
  ml : int;
  spectral : int;
}

type summary = {
  s_n : int;
  count : int;
  mean_lb : float;
  mean_ml : float;
  min_ml : float;
  max_ml : float;
  mean_spectral : float;
}

type t = {
  degree : int;
  sizes : int list;
  seeds : int;
  restarts : int;
  instances : instance list;
  summaries : summary list;
  checks : Bounds.check list;
  ok : bool;
}

let c_instances = Metrics.counter "campaign.instances"
let c_oracle = Metrics.counter "campaign.oracle.checks"

(* Seed prefixes keep the campaign's rng streams disjoint from every
   other seeded stream in the repo (tests 0x7e57, jobs 0x5e4e/0x5e4a);
   instance wiring and solver restarts draw from separate streams so a
   different restart count cannot change which graph seed k names. *)
let instance_rng ~degree ~n ~seed = Random.State.make [| 0xca9a; degree; n; seed |]
let solver_rng ~degree ~n ~seed = Random.State.make [| 0xca9b; degree; n; seed |]

let instance_graph ~degree ~n ~seed =
  Generators.random_regular ~simple:true
    ~rng:(instance_rng ~degree ~n ~seed)
    ~n ~degree

let validate what g ~value ~witness =
  match Invariants.bisection_cut g ~value ~witness with
  | Invariants.Pass -> None
  | Invariants.Fail m -> Some (Printf.sprintf "%s witness invalid: %s" what m)

let run_instance ?cancel ~degree ~restarts ~n ~seed () =
  let g = instance_graph ~degree ~n ~seed in
  let lb = Certificate.kn_bound g in
  let ml, ml_witness =
    Multilevel.bisect ~rng:(solver_rng ~degree ~n ~seed) ~restarts ?cancel g
  in
  let spectral, sp_witness = Heuristics.spectral g in
  let faults =
    List.filter_map
      (Option.map (Printf.sprintf "n=%d seed=%d: %s" n seed))
      [
        validate "multilevel" g ~value:ml ~witness:ml_witness;
        validate "spectral" g ~value:spectral ~witness:sp_witness;
      ]
  in
  Metrics.incr c_instances;
  ({ n; seed; edges = G.n_edges g; lb; ml; spectral }, faults)

(* ---- statistical oracles ---- *)

let ratio v n = float_of_int v /. float_of_int n

(* Per-instance sanity: the certified LB must not exceed either
   heuristic (both are upper bounds on the true bisection width), and
   the heuristics must beat the expected random balanced cut,
   degree·n/4 — a broad hard bound that still catches a partitioner
   reduced to coin flipping. [witness_faults] carries any failed
   Invariants re-validation from the sweep. *)
let sanity ~degree ?(witness_faults = []) instances =
  let violation i =
    if i.lb < 0 then Some "certified LB negative"
    else if i.lb > i.ml then Some "certified LB exceeds the ml heuristic"
    else if i.lb > i.spectral then Some "certified LB exceeds the spectral cut"
    else if 4 * i.ml > degree * i.n then
      Some "ml heuristic worse than the expected random cut degree*n/4"
    else if 4 * i.spectral > degree * i.n then
      Some "spectral cut worse than the expected random cut degree*n/4"
    else None
  in
  let bad =
    List.filter_map
      (fun i ->
        Option.map
          (fun m -> Printf.sprintf "n=%d seed=%d: %s" i.n i.seed m)
          (violation i))
      instances
    @ witness_faults
  in
  {
    Bounds.name = "campaign/sanity";
    ok = bad = [];
    detail =
      (match bad with
      | [] ->
          Printf.sprintf "%d instances, 0 violations" (List.length instances)
      | first :: _ ->
          Printf.sprintf "%d violation(s), first: %s" (List.length bad) first);
  }

(* Aggregate oracles, defined only for the cubic campaign at the pinned
   window sizes: the mean ml ratio must land inside the committed
   bracket around the arXiv:2009.00598 constants, and the mean certified
   LB ratio must stay inside (0, mb_upper] — a lower bound that crossed
   the upper constant would contradict the theorem it certifies against. *)
let aggregate ~degree summaries =
  if degree <> 3 then []
  else
    List.concat_map
      (fun s ->
        match window ~n:s.s_n with
        | None -> []
        | Some (lo, hi) ->
            [
              {
                Bounds.name = Printf.sprintf "campaign/lb/n=%d" s.s_n;
                ok = s.mean_lb > 0. && s.mean_lb <= mb_upper;
                detail =
                  Printf.sprintf "mean lb ratio %.5f in (0, %.5f]" s.mean_lb
                    mb_upper;
              };
              {
                Bounds.name = Printf.sprintf "campaign/window/n=%d" s.s_n;
                ok = s.mean_ml >= lo && s.mean_ml <= hi;
                detail =
                  Printf.sprintf "mean ml ratio %.5f, window [%.5f, %.5f]"
                    s.mean_ml lo hi;
              };
            ])
      summaries

let summarize ~sizes instances =
  List.map
    (fun n ->
      let xs = List.filter (fun i -> i.n = n) instances in
      let k = float_of_int (List.length xs) in
      let mean f =
        List.fold_left (fun acc i -> acc +. ratio (f i) i.n) 0. xs /. k
      in
      {
        s_n = n;
        count = List.length xs;
        mean_lb = mean (fun i -> i.lb);
        mean_ml = mean (fun i -> i.ml);
        min_ml =
          List.fold_left (fun acc i -> min acc (ratio i.ml i.n)) infinity xs;
        max_ml =
          List.fold_left
            (fun acc i -> max acc (ratio i.ml i.n))
            neg_infinity xs;
        mean_spectral = mean (fun i -> i.spectral);
      })
    sizes

(* ---- the campaign ---- *)

let run ?cancel ?(restarts = default_restarts) ~degree ~sizes ~seeds () =
  let sizes = List.sort_uniq compare sizes in
  if degree < 2 || degree > 16 then Error "degree must be in [2, 16]"
  else if seeds < 1 then Error "seeds must be >= 1"
  else if restarts < 1 then Error "restarts must be >= 1"
  else if sizes = [] then Error "sizes must be non-empty"
  else if List.exists (fun n -> n < 2 * degree || n > 16384) sizes then
    Error "every size must satisfy 2*degree <= n <= 16384"
  else if List.exists (fun n -> n * degree mod 2 <> 0) sizes then
    Error "n*degree must be even for every size (no odd-degree pairing)"
  else begin
    (* resolve the ambient token once, on this domain: sweep tasks run on
       pool workers, whose ambient slots are their own *)
    let cancel = Cancel.resolve cancel in
    let results =
      Sweep.run ?cancel ~sizes ~seeds (fun ~n ~seed ->
          run_instance ?cancel ~degree ~restarts ~n ~seed ())
    in
    let instances = List.map fst (Array.to_list results) in
    let witness_faults = List.concat_map snd (Array.to_list results) in
    let summaries = summarize ~sizes instances in
    let checks =
      sanity ~degree ~witness_faults instances :: aggregate ~degree summaries
    in
    Metrics.add c_oracle (List.length checks);
    let ok = List.for_all (fun c -> c.Bounds.ok) checks in
    Ok { degree; sizes; seeds; restarts; instances; summaries; checks; ok }
  end

(* ---- bfly-campaign/1 document ---- *)

let schema = "bfly-campaign/1"

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("degree", Json.Int t.degree);
      ("seeds", Json.Int t.seeds);
      ("restarts", Json.Int t.restarts);
      ("sizes", Json.List (List.map (fun n -> Json.Int n) t.sizes));
      ( "constants",
        Json.Obj
          [
            ("mb_lower", Json.Float mb_lower);
            ("mb_upper", Json.Float mb_upper);
            ("source", Json.Str "arXiv:2009.00598");
          ] );
      ( "instances",
        Json.List
          (List.map
             (fun i ->
               Json.Obj
                 [
                   ("n", Json.Int i.n);
                   ("seed", Json.Int i.seed);
                   ("edges", Json.Int i.edges);
                   ("lb", Json.Int i.lb);
                   ("ml", Json.Int i.ml);
                   ("spectral", Json.Int i.spectral);
                 ])
             t.instances) );
      ( "summary",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("n", Json.Int s.s_n);
                   ("instances", Json.Int s.count);
                   ("mean_lb", Json.Float s.mean_lb);
                   ("mean_ml", Json.Float s.mean_ml);
                   ("min_ml", Json.Float s.min_ml);
                   ("max_ml", Json.Float s.max_ml);
                   ("mean_spectral", Json.Float s.mean_spectral);
                   ( "window",
                     match
                       if t.degree = 3 then window ~n:s.s_n else None
                     with
                     | None -> Json.Null
                     | Some (lo, hi) ->
                         Json.List [ Json.Float lo; Json.Float hi ] );
                 ])
             t.summaries) );
      ( "oracle",
        Json.Obj
          [
            ("ok", Json.Bool t.ok);
            ("checks", Json.List (List.map Bounds.check_json t.checks));
          ] );
    ]

let render t =
  let buf = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf
    "random-regular bisection campaign: degree %d, seeds 1..%d per size, ml \
     restarts %d\n"
    t.degree t.seeds t.restarts;
  pf
    "columns are cut/n ratios; LB is the certified K_N-embedding congestion \
     bound;\n\
     min bisection of random cubic graphs lies in [%.5f, %.5f]*n a.a.s.\n\
     (arXiv:2009.00598)\n\n"
    mb_lower mb_upper;
  pf "%6s %5s %9s %9s %9s %9s %9s  %s\n" "n" "inst" "mean lb" "mean ml"
    "min ml" "max ml" "mean sp" "window";
  List.iter
    (fun s ->
      pf "%6d %5d %9.5f %9.5f %9.5f %9.5f %9.5f  %s\n" s.s_n s.count s.mean_lb
        s.mean_ml s.min_ml s.max_ml s.mean_spectral
        (match if t.degree = 3 then window ~n:s.s_n else None with
        | None -> "-"
        | Some (lo, hi) -> Printf.sprintf "[%.5f, %.5f]" lo hi))
    t.summaries;
  pf "\noracle:\n";
  List.iter
    (fun c ->
      pf "  %-26s %-4s %s\n" c.Bounds.name
        (if c.Bounds.ok then "ok" else "FAIL")
        c.Bounds.detail)
    t.checks;
  pf "campaign: %d instances, %d oracle checks, %s\n"
    (List.length t.instances) (List.length t.checks)
    (if t.ok then "all passed" else "FAILURES");
  Buffer.contents buf

(* ---- drift gate against a committed document ---- *)

let gate =
  [
    Doc.config "schema";
    Doc.config "degree";
    Doc.config "restarts";
    Doc.rows "instances" ~subset:true ~key:[ "n"; "seed" ]
      (List.map Doc.exact [ "edges"; "lb"; "ml"; "spectral" ]);
    Doc.when_same [ "sizes"; "seeds" ]
      [ Doc.exact "summary"; Doc.exact "oracle/ok" ];
  ]

(* ---- the registered experiment (chapter C1 of EXPERIMENTS.md) ---- *)

let c1 () =
  match run ~degree:3 ~sizes:[ 64; 128; 256; 512 ] ~seeds:5 () with
  | Ok t -> render t
  | Error e -> Printf.sprintf "campaign error: %s\n" e
