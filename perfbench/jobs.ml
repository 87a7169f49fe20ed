(* The closed-loop job lists of the batch workloads, their seed-commit
   reference outputs, and the traced decomposition of a job into the
   layer calls [Job.run] makes. *)

module Job = Bfly_serve.Job
module Span = Spans

let net s =
  match Job.net_of_string s with Ok n -> n | Error e -> invalid_arg e

let bw ?(seed = 1) solver nw n =
  Job.Bw
    {
      solver;
      net = net nw;
      n;
      seed;
      restarts = 4;
      max_nodes = None;
      resume = false;
    }

(* Every seeded job of variant [v] draws its rng from seed [v + 1]; the
   exact, spectral and campaign jobs are deterministic. A pass runs one
   variant, so all its fingerprints are distinct and all miss a fresh
   cache. *)
let bisect_large v =
  let seed = v + 1 in
  [
    bw ~seed Ml "butterfly" 1024;
    bw ~seed Ml "butterfly" 2048;
    bw ~seed Ml "butterfly" 4096;
    bw ~seed Ml "wrapped" 1024;
    bw ~seed Ml "ccc" 256;
    bw ~seed Ml "torus:16x16x16" 0;
    bw ~seed Ml "mesh:64x64" 0;
    bw ~seed Kl "butterfly" 512;
    bw ~seed Sa "butterfly" 512;
    bw ~seed Fm "butterfly" 1024;
    bw Spectral "butterfly" 1024;
    bw Exact "butterfly" 8;
    bw Exact "wrapped" 8;
    bw Exact "ccc" 8;
    bw Exact "ccc" 16;
    bw Exact "mesh:4x4x2" 0;
    bw Exact "mesh:6x6" 0;
    Job.Campaign { degree = 3; sizes = [ 64; 128; 256 ]; seeds = 8 };
  ]

let expansion_exact v =
  let ex nw n k exact =
    Job.Expansion { kind = `Both; net = net nw; n; k; exact; seed = v + 1 }
  in
  List.concat_map (fun k -> [ ex "butterfly" 8 k true; ex "wrapped" 8 k true ])
    [ 6; 7; 8 ]
  @ [ ex "butterfly" 64 16 false; ex "wrapped" 64 32 false ]

type workload = {
  name : string;
  jobs : int -> Job.spec list;
  variants : int;
  pass_s : float;
      (* a run of [seconds] makes [seconds / pass_s] passes (at least
         one), so the work per run does not depend on how fast the program
         is; on an idle 2-vCPU machine at two domains the seed commit's
         passes take about 7.5 s (bisect-large) and 14.5 s
         (expansion-exact), and up to twice that when the host is busy *)
}

let workloads =
  [
    { name = "bisect-large"; jobs = bisect_large; variants = 2; pass_s = 18. };
    {
      name = "expansion-exact";
      jobs = expansion_exact;
      variants = 2;
      pass_s = 30.;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads
let passes w ~seconds = max 1 (int_of_float (float seconds /. w.pass_s))

(* Pass [p] of a run with workload seed [seed] runs variant
   [(seed + p) mod variants], its jobs shuffled by a seeded rng. *)
let pass_jobs w ~seed p =
  let v = (seed + p) mod w.variants in
  let jobs = Array.of_list (w.jobs v) in
  let rng = Random.State.make [| 0xbe4c; seed; p |] in
  for i = Array.length jobs - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = jobs.(i) in
    jobs.(i) <- jobs.(j);
    jobs.(j) <- x
  done;
  Array.to_list jobs

(* ---- reference outputs: one line per job, fingerprint TAB output ---- *)

let ref_file ~dir name = Filename.concat dir (name ^ ".ref")

let write_refs path entries =
  let oc = open_out path in
  List.iter (fun (fp, out) -> Printf.fprintf oc "%s\t%S\n" fp out) entries;
  close_out oc

let read_refs path =
  let tbl = Hashtbl.create 64 in
  let ic = open_in path in
  (try
     while true do
       let line = input_line ic in
       match String.index_opt line '\t' with
       | Some i ->
           let out =
             Scanf.sscanf
               (String.sub line (i + 1) (String.length line - i - 1))
               "%S" Fun.id
           in
           Hashtbl.replace tbl (String.sub line 0 i) out
       | None -> ()
     done
   with End_of_file -> close_in ic);
  tbl

let all_specs w = List.concat_map w.jobs (List.init w.variants Fun.id)

let result_text = function Ok s -> s | Error e -> "error: " ^ e

(* ---- traced decomposition ---- *)

(* The same calls [Job.run] makes, each inside a span: [Job.graph_of],
   the solver entry point, then [Invariants]. The rng prefixes are the
   ones [Job] seeds its jobs with; the byte comparison against the
   reference outputs proves the decomposition computes what [Job.run]
   computes. *)
let bw_rng seed = Random.State.make [| 0x5e4e; seed |]
let expansion_rng seed = Random.State.make [| 0x5e4a; seed |]

let solver_span = function
  | Job.Ml -> "ml.bisect"
  | Kl -> "heuristics.kl"
  | Fm -> "heuristics.fm"
  | Sa -> "heuristics.sa"
  | Spectral -> "heuristics.spectral"
  | Exact -> "exact.bb"

let traced tr ~req spec =
  Span.within tr ~req "job" @@ fun parent ->
  let sp name f = Span.within tr ~parent ~req name (fun _ -> f ()) in
  let graph nw n = sp "networks.graph_of" (fun () -> Job.graph_of nw n) in
  let check g ~value ~witness =
    sp "invariants.check" (fun () ->
        Bfly_check.Invariants.bisection_cut g ~value ~witness)
  in
  let validated g value witness text =
    match check g ~value ~witness with
    | Bfly_check.Invariants.Pass -> Ok text
    | Fail m -> Error ("result failed validation: " ^ m)
  in
  match spec with
  | Job.Bw { solver; net; n; seed; restarts; _ } -> (
      match graph net n with
      | Error e -> Error e
      | Ok (g, name) -> (
          let run f = sp (solver_span solver) f in
          let rng () = bw_rng seed in
          let heur label (v, w) =
            validated g v w (Printf.sprintf "%s: BW <= %d (%s)\n" name v label)
          in
          let lbl s = Printf.sprintf "%s, restarts %d, seed %d" s restarts seed in
          match solver with
          | Exact -> (
              match
                run (fun () ->
                    Bfly_cuts.Exact.bisection_width_supervised ~resume:false g)
              with
              | Complete (v, w) ->
                  validated g v w (Printf.sprintf "%s: BW = %d\n" name v)
              | Interval _ -> Error "unexpected interval")
          | Kl ->
              heur (lbl "kl")
                (run (fun () ->
                     Bfly_cuts.Heuristics.kernighan_lin ~rng:(rng ()) ~restarts
                       g))
          | Fm ->
              heur (lbl "fm")
                (run (fun () ->
                     Bfly_cuts.Heuristics.fiduccia_mattheyses ~rng:(rng ())
                       ~restarts g))
          | Sa ->
              heur (lbl "sa")
                (run (fun () ->
                     Bfly_cuts.Heuristics.annealing ~rng:(rng ()) ~restarts g))
          | Spectral ->
              heur "spectral" (run (fun () -> Bfly_cuts.Heuristics.spectral g))
          | Ml ->
              heur (lbl "ml")
                (run (fun () ->
                     Bfly_cuts.Multilevel.bisect ~rng:(rng ()) ~restarts g))))
  | Expansion { kind; net; n; k; exact; seed } -> (
      match graph net n with
      | Error e -> Error e
      | Ok (g, name) ->
          let module E = Bfly_expansion.Expansion in
          let measure which =
            if exact then
              sp "expansion.exact" (fun () ->
                  fst
                    ((match which with `Ee -> E.ee_exact | `Ne -> E.ne_exact)
                       g ~k))
            else
              sp "expansion.anneal" (fun () ->
                  let rng = expansion_rng seed in
                  fst
                    ((match which with `Ee -> E.ee_anneal | `Ne -> E.ne_anneal)
                       ~rng g ~k))
          in
          let rel = if exact then "=" else "<=" in
          let line which =
            Printf.sprintf "%s %s %d" (match which with `Ee -> "EE" | `Ne -> "NE")
              rel (measure which)
          in
          let body =
            match kind with
            | `Ee -> line `Ee
            | `Ne -> line `Ne
            | `Both ->
                let ee = line `Ee in
                ee ^ ", " ^ line `Ne
          in
          Ok (Printf.sprintf "%s, k=%d: %s\n" name k body))
  | Campaign { degree; sizes; seeds } ->
      Result.map Bfly_check.Campaign.render
        (sp "campaign.run" (fun () ->
             Bfly_check.Campaign.run ~degree ~sizes ~seeds ()))
  | Mos _ | Check _ -> Job.run spec

(* Sum over a job list of C(N, k) for its exact enumerations: the subsets
   an exact EE/NE job scores (once for [`Ee], once for [`Ne]). *)
let subsets jobs =
  let choose n k =
    let r = ref 1. in
    for i = 1 to k do
      r := !r *. float (n - k + i) /. float i
    done;
    !r
  in
  List.fold_left
    (fun acc spec ->
      match spec with
      | Job.Expansion { kind; net; n; k; exact = true; _ } -> (
          match Job.graph_of net n with
          | Ok (g, _) ->
              let c = choose (Bfly_graph.Graph.n_nodes g) k in
              acc +. (match kind with `Both -> 2. *. c | _ -> c)
          | Error _ -> acc)
      | _ -> acc)
    0. jobs
