module G = Bfly_graph.Graph
module B = Bfly_networks.Butterfly
module W = Bfly_networks.Wrapped
module Ccc_net = Bfly_networks.Ccc
module Budget = Bfly_resil.Budget
module Cancel = Bfly_resil.Cancel
module Invariants = Bfly_check.Invariants
module Json = Bfly_obs.Json

module Fabric = Bfly_networks.Fabric

type net = Butterfly | Wrapped | Ccc | Fabric of Fabric.spec

type solver = Exact | Kl | Fm | Sa | Spectral | Ml

type bw = {
  solver : solver;
  net : net;
  n : int;
  seed : int;
  restarts : int;
  max_nodes : int option;
  resume : bool;
}

type expansion_kind = [ `Ee | `Ne | `Both ]

type spec =
  | Bw of bw
  | Mos of { j : int }
  | Expansion of {
      kind : expansion_kind;
      net : net;
      n : int;
      k : int;
      exact : bool;
      seed : int;
    }
  | Check of { seed : int; rounds : int }
  | Campaign of { degree : int; sizes : int list; seeds : int }

let net_name = function
  | Butterfly -> "butterfly"
  | Wrapped -> "wrapped"
  | Ccc -> "ccc"
  | Fabric spec -> Fabric.name spec

let is_fabric = function Fabric _ -> true | _ -> false

let net_of_string s =
  match s with
  | "butterfly" | "b" | "bn" -> Ok Butterfly
  | "wrapped" | "w" | "wn" -> Ok Wrapped
  | "ccc" -> Ok Ccc
  | s when Fabric.is_spec s ->
      Result.map (fun spec -> Fabric spec) (Fabric.spec_of_string s)
  | s ->
      Error
        (Printf.sprintf
           "unknown network %S (butterfly|wrapped|ccc, or a fabric spec \
            mesh:|torus:|torus3d:|bcube:|product:)"
           s)

let solver_name = function
  | Exact -> "exact"
  | Kl -> "kl"
  | Fm -> "fm"
  | Sa -> "sa"
  | Spectral -> "spectral"
  | Ml -> "ml"

let solver_of_string = function
  | "exact" -> Ok Exact
  | "kl" -> Ok Kl
  | "fm" -> Ok Fm
  | "sa" | "annealing" -> Ok Sa
  | "spectral" -> Ok Spectral
  | "ml" | "multilevel" -> Ok Ml
  | s ->
      Error (Printf.sprintf "unknown solver %S (exact|kl|fm|sa|spectral|ml)" s)

let graph_of net n =
  match net with
  | Fabric spec -> (
      (* the spec fixes the size; [n] is pinned to 0 by {!parse} so the
         fingerprint stays canonical *)
      match Fabric.create spec with
      | fab -> Ok (Fabric.graph fab, Fabric.name_of fab)
      | exception Invalid_argument m -> Error m)
  | _ -> (
      match B.log2_exact n with
      | None -> Error "n must be a power of two"
      | Some log_n -> (
          match net with
          | Fabric _ -> assert false
          | Butterfly -> Ok (B.graph (B.create ~log_n), Printf.sprintf "B_%d" n)
          | Wrapped ->
              if log_n < 2 then Error "wrapped butterfly needs n >= 4"
              else Ok (W.graph (W.create ~log_n), Printf.sprintf "W_%d" n)
          | Ccc ->
              if log_n < 2 then Error "CCC needs n >= 4"
              else
                Ok
                  (Ccc_net.graph (Ccc_net.create ~log_n), Printf.sprintf "CCC_%d" n)))

(* ---- field decoding ---- *)

let ( let* ) = Result.bind

(* The field table of job.mli, declared once: each field's name, type and
   default appears in exactly one line below. *)
let parse ~job get =
  let field what conv k =
    match get k with
    | None -> Ok None
    | Some v -> (
        match conv v with
        | Some x -> Ok (Some x)
        | None -> Error (Printf.sprintf "field %S must be %s" k what))
  in
  let int = field "an integer" Json.to_int_opt in
  let bool = field "a boolean" Json.to_bool_opt in
  let str = field "a string" Json.to_string_opt in
  let int_list =
    field "a list of integers" (function
      | Json.List l ->
          List.fold_right
            (fun v acc ->
              Option.bind acc (fun tl ->
                  Option.map (fun i -> i :: tl) (Json.to_int_opt v)))
            l (Some [])
      | _ -> None)
  in
  let ( |? ) r d = Result.map (Option.value ~default:d) r in
  let required k r =
    let* v = r k in
    Option.to_result ~none:(Printf.sprintf "field %S is required" k) v
  in
  (* fabric specs fix the instance size themselves; [n] is pinned to 0 so
     equal jobs coalesce under one fingerprint, and a contradictory
     explicit [n] is rejected rather than ignored *)
  let instance () =
    let* net = Result.bind (required "network" str) net_of_string in
    if is_fabric net then
      match get "n" with
      | None -> Ok (net, 0)
      | Some _ ->
          Error
            "field \"n\" must be omitted for fabric networks (the spec \
             fixes the size)"
    else Result.map (fun n -> (net, n)) (required "n" int)
  in
  let expansion kind =
    let* net, n = instance () in
    let* k = required "k" int in
    let* exact = bool "exact" |? false in
    let* seed = int "seed" |? 1 in
    Ok (Expansion { kind; net; n; k; exact; seed })
  in
  match job with
  | "bw" ->
      let* solver = Result.bind (str "solver" |? "exact") solver_of_string in
      let* net, n = instance () in
      let* seed = int "seed" |? 1 in
      let* restarts = int "restarts" |? 4 in
      let* max_nodes = int "max_nodes" in
      let* resume = bool "resume" |? false in
      Ok (Bw { solver; net; n; seed; restarts; max_nodes; resume })
  | "mos" ->
      let* j = required "j" int in
      Ok (Mos { j })
  | "ee" -> expansion `Ee
  | "ne" -> expansion `Ne
  | "expansion" -> expansion `Both
  | "check" ->
      let* seed = int "seed" |? 42 in
      let* rounds = int "rounds" |? 5 in
      Ok (Check { seed; rounds })
  | "campaign" ->
      let* degree = int "degree" |? 3 in
      let* seeds = int "seeds" |? 3 in
      let* sizes = int_list "sizes" |? [ 32; 64 ] in
      (* serve caps: a campaign is the most expensive job in the
         vocabulary, and a shared endpoint must bound what one request can
         pin the pool with (Campaign.run validates the rest) *)
      if seeds > 16 then Error "field \"seeds\" is capped at 16 when serving"
      else if List.length sizes > 8 then
        Error "field \"sizes\" is capped at 8 sizes when serving"
      else if List.exists (fun n -> n > 1024) sizes then
        Error "served campaign sizes are capped at n <= 1024"
      else Ok (Campaign { degree; sizes; seeds })
  | s ->
      Error
        (Printf.sprintf
           "unknown job %S (bw|mos|ee|ne|expansion|check|campaign|stats)" s)

(* ---- fingerprints ---- *)

let kind_name = function `Ee -> "ee" | `Ne -> "ne" | `Both -> "both"

let fingerprint ?deadline spec =
  let body =
    match spec with
    | Bw { solver; net; n; seed; restarts; max_nodes; resume } ->
        Printf.sprintf "bw.%s/%s/%d?seed=%d&restarts=%d&max_nodes=%s&resume=%b"
          (solver_name solver) (net_name net) n seed restarts
          (match max_nodes with None -> "-" | Some k -> string_of_int k)
          resume
    | Mos { j } -> Printf.sprintf "mos/%d" j
    | Expansion { kind; net; n; k; exact; seed } ->
        Printf.sprintf "exp.%s/%s/%d?k=%d&exact=%b&seed=%d" (kind_name kind)
          (net_name net) n k exact seed
    | Check { seed; rounds } ->
        Printf.sprintf "check?seed=%d&rounds=%d" seed rounds
    | Campaign { degree; sizes; seeds } ->
        Printf.sprintf "campaign/%d?sizes=%s&seeds=%d" degree
          (String.concat "," (List.map string_of_int sizes))
          seeds
  in
  match deadline with
  | None -> body
  | Some b -> body ^ "@" ^ Budget.to_string b

(* ---- execution ---- *)

(* Seed prefixes keep the job-level rng streams disjoint from every other
   seeded stream in the repo (tests use 0x7e57, heuristics use their
   kernel tags): the same [seed] field can safely appear in a bw job and
   an expansion job without correlating their instances. *)
let bw_rng seed = Random.State.make [| 0x5e4e; seed |]
let expansion_rng seed = Random.State.make [| 0x5e4a; seed |]

let run_bw_exact ?deadline { net; n; max_nodes; resume; _ } =
  match graph_of net n with
  | Error e -> Error e
  | Ok (g, name) -> (
      if match max_nodes with Some k -> k < 1 | None -> false then
        Error "max-nodes must be >= 1"
      else
        let budget =
          match (deadline, max_nodes) with
          | None, None -> None
          | _ ->
              let wall_s =
                Option.bind deadline (fun b ->
                    Option.map
                      (fun ns -> float_of_int ns /. 1e9)
                      (Budget.wall_ns b))
              in
              Some (Budget.make ?wall_s ?steps:max_nodes ())
        in
        let cancel = Option.map (fun budget -> Cancel.create ~budget ()) budget in
        match Bfly_cuts.Exact.bisection_width_supervised ?cancel ~resume g with
        | Bfly_cuts.Exact.Complete (v, witness) -> (
            match Invariants.bisection_cut g ~value:v ~witness with
            | Invariants.Fail m ->
                Error (Printf.sprintf "result failed validation: %s" m)
            | Invariants.Pass -> Ok (Printf.sprintf "%s: BW = %d\n" name v))
        | Bfly_cuts.Exact.Interval { lower; upper; witness; reason } -> (
            match Invariants.bisection_interval g ~lower ~upper ~witness with
            | Invariants.Fail m ->
                Error
                  (Printf.sprintf "certified interval failed validation: %s" m)
            | Invariants.Pass ->
                Ok
                  (Printf.sprintf "%s: BW in [%d, %d] (interrupted: %s%s)\n"
                     name lower upper reason
                     (if Bfly_cache.Config.enabled () then
                        "; checkpoint saved, rerun with --resume to continue"
                      else ""))))

let run_bw_heuristic { solver; net; n; seed; restarts; _ } =
  match graph_of net n with
  | Error e -> Error e
  | Ok (g, name) ->
      if restarts < 1 then Error "restarts must be >= 1"
      else
        let rng = bw_rng seed in
        let value, witness, label =
          match solver with
          | Kl ->
              let v, w = Bfly_cuts.Heuristics.kernighan_lin ~rng ~restarts g in
              (v, w, Printf.sprintf "kl, restarts %d, seed %d" restarts seed)
          | Fm ->
              let v, w =
                Bfly_cuts.Heuristics.fiduccia_mattheyses ~rng ~restarts g
              in
              (v, w, Printf.sprintf "fm, restarts %d, seed %d" restarts seed)
          | Sa ->
              let v, w = Bfly_cuts.Heuristics.annealing ~rng ~restarts g in
              (v, w, Printf.sprintf "sa, restarts %d, seed %d" restarts seed)
          | Spectral ->
              let v, w = Bfly_cuts.Heuristics.spectral g in (v, w, "spectral")
          | Ml ->
              let v, w = Bfly_cuts.Multilevel.bisect ~rng ~restarts g in
              (v, w, Printf.sprintf "ml, restarts %d, seed %d" restarts seed)
          | Exact -> assert false
        in
        (match Invariants.bisection_cut g ~value ~witness with
        | Invariants.Fail m ->
            Error (Printf.sprintf "result failed validation: %s" m)
        | Invariants.Pass ->
            Ok (Printf.sprintf "%s: BW <= %d (%s)\n" name value label))

let run_mos ~j =
  if j < 1 then Error "j must be >= 1"
  else
    let bw, density, ratio = Bfly_mos.Mos_analysis.convergence_row j in
    Ok
      (Printf.sprintf
         "BW(MOS_{%d,%d}, M2) = %d; density %.5f; sqrt(2)-1 = %.5f; ratio \
          %.4f\n"
         j j bw density Bfly_mos.Mos_analysis.f_min ratio)

let run_expansion ~kind ~net ~n ~k ~exact ~seed =
  match graph_of net n with
  | Error e -> Error e
  | Ok (g, name) ->
      if k < 1 || k >= G.n_nodes g then Error "k out of range"
      else begin
        let rel = if exact then "=" else "<=" in
        let measure which =
          if exact then
            match which with
            | `Ee -> fst (Bfly_expansion.Expansion.ee_exact g ~k)
            | `Ne -> fst (Bfly_expansion.Expansion.ne_exact g ~k)
          else
            let rng = expansion_rng seed in
            match which with
            | `Ee -> fst (Bfly_expansion.Expansion.ee_anneal ~rng g ~k)
            | `Ne -> fst (Bfly_expansion.Expansion.ne_anneal ~rng g ~k)
        in
        match kind with
        | `Ee ->
            Ok (Printf.sprintf "%s, k=%d: EE %s %d\n" name k rel (measure `Ee))
        | `Ne ->
            Ok (Printf.sprintf "%s, k=%d: NE %s %d\n" name k rel (measure `Ne))
        | `Both ->
            let ee = measure `Ee in
            let ne = measure `Ne in
            Ok
              (Printf.sprintf "%s, k=%d: EE %s %d, NE %s %d\n" name k rel ee
                 rel ne)
      end

let run_campaign ~degree ~sizes ~seeds =
  Result.map Bfly_check.Campaign.render
    (Bfly_check.Campaign.run ~degree ~sizes ~seeds ())

let run_check ~seed ~rounds =
  if rounds < 1 then Error "rounds must be >= 1"
  else
    let json, _ok = Bfly_check.Run.execute ~seed ~rounds ~smoke:true () in
    Ok (Json.to_string json ^ "\n")

let run ?deadline spec =
  match spec with
  (* the exact search takes a direct token so [max_nodes] and the wall
     deadline combine into one budget, exactly as [bfly_tool bw exact] does *)
  | Bw ({ solver = Exact; _ } as b) -> run_bw_exact ?deadline b
  | _ -> (
      let f () =
        match spec with
        | Bw b -> run_bw_heuristic b
        | Mos { j } -> run_mos ~j
        | Expansion { kind; net; n; k; exact; seed } ->
            run_expansion ~kind ~net ~n ~k ~exact ~seed
        | Check { seed; rounds } -> run_check ~seed ~rounds
        | Campaign { degree; sizes; seeds } ->
            run_campaign ~degree ~sizes ~seeds
      in
      match deadline with
      | None -> f ()
      | Some budget -> Cancel.with_ambient (Cancel.create ~budget ()) f)
