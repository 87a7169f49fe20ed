module G = Bfly_graph.Graph
module Bitset = Bfly_graph.Bitset
module Perm = Bfly_graph.Perm
module Metrics = Bfly_obs.Metrics
module Span = Bfly_obs.Span
module State = Cut.State
module Cancel = Bfly_resil.Cancel

type config = { matching_ratio : float; coarsening_threshold : int }

let default_config = { matching_ratio = 0.9; coarsening_threshold = 64 }

let ml_levels = Metrics.counter "ml.levels"
let ml_moves = Metrics.counter "ml.refine.moves"
let ml_arena = Arena.create ()

(* ------------------------------------------------------------------ *)
(* Coarsening                                                          *)
(* ------------------------------------------------------------------ *)

module Coarsen = struct
  type level = { graph : G.t; vwgt : int array; map : int array }

  let unit_weights g = Array.make (G.n_nodes g) 1

  (* Heavy-cycle matching: visit nodes in a seeded random order; each
     unmatched node merges with the unmatched candidate of highest
     connectivity score, where score(v, u) counts the parallel edges
     between v and u plus the length-2 paths connecting them (first
     candidate touched wins ties), or stays alone when isolated among
     matched nodes. Scoring 2-hop candidates is what lets the contraction
     collapse the butterfly's 4-cycles — the wing pairs of Lemma 2.12,
     which share two common neighbors but no edge — so the hierarchy
     reproduces the paper's mesh-of-stars quotient instead of shredding
     it the way pure heavy-edge matching does. Coarse ids are assigned in
     visit order, so the whole contraction is a deterministic function of
     the rng stream. When [side] is given, only same-side pairs match, so
     the given cut survives the contraction with its exact capacity — the
     invariant the guided (iterated) V-cycles build on. *)
  (* arena slots used by [step]: int buffers 0 = candidate scores,
     1 = touched stack, 2/3 = coarse edge endpoint stacks, 4/5/6 = the
     deduplicated multiplicity CSR *)
  let step ?side ~matching_ratio ~rng ~vwgt g =
    let n = G.n_nodes g in
    if n < 4 then None
    else begin
      let offsets = G.csr_offsets g and adj = G.csr_adj g in
      (* Deduplicate the multiplicity-expanded CSR into (neighbor, mult)
         rows. Parallel slots are contiguous (the adjacency is scattered
         from the sorted edge list), so one linear scan suffices. The
         scoring scan below then multiplies multiplicities instead of
         replaying a bundle's whole neighborhood once per parallel edge —
         the coarse graphs are multigraphs with heavy bundles, where the
         replay is quadratic. Scores and first-touch tie-break order are
         unchanged: a bundle's repeat slots only re-touch nodes already
         touched by its first slot. *)
      let deg2 = Array.length adj in
      let doff = Arena.raw_ints ml_arena ~slot:4 (n + 1) in
      let dadj = Arena.raw_ints ml_arena ~slot:5 (max deg2 1) in
      let dmul = Arena.raw_ints ml_arena ~slot:6 (max deg2 1) in
      let dc = ref 0 in
      for v = 0 to n - 1 do
        doff.(v) <- !dc;
        let i = ref (Array.unsafe_get offsets v) in
        let stop = Array.unsafe_get offsets (v + 1) in
        while !i < stop do
          let u = Array.unsafe_get adj !i in
          let j = ref (!i + 1) in
          while !j < stop && Array.unsafe_get adj !j = u do
            incr j
          done;
          Array.unsafe_set dadj !dc u;
          Array.unsafe_set dmul !dc (!j - !i);
          incr dc;
          i := !j
        done
      done;
      doff.(n) <- !dc;
      let sw = Option.map Bitset.unsafe_words side in
      (* same-side test against the incumbent's backing words (1 = eligible
         when unguided) *)
      let eligible v u =
        match sw with
        | None -> true
        | Some w ->
            (Array.unsafe_get w (Bitset.word_index v) lsr (Bitset.bit_index v)) land 1
            = (Array.unsafe_get w (Bitset.word_index u) lsr (Bitset.bit_index u)) land 1
      in
      let map = Array.make n (-1) in
      let order = Perm.random ~rng n in
      let next_id = ref 0 in
      let score = Arena.ints ml_arena ~slot:0 n in
      let touched = Arena.raw_ints ml_arena ~slot:1 n in
      let top = ref 0 in
      let bump u k =
        if Array.unsafe_get score u = 0 then begin
          touched.(!top) <- u;
          incr top
        end;
        Array.unsafe_set score u (Array.unsafe_get score u + k)
      in
      for i = 0 to n - 1 do
        let v = Perm.apply order i in
        if map.(v) < 0 then begin
          for i = doff.(v) to doff.(v + 1) - 1 do
            let u = Array.unsafe_get dadj i in
            let mu = Array.unsafe_get dmul i in
            if u <> v && map.(u) < 0 && eligible v u then bump u mu;
            (* the intermediate node of a 2-path may itself be matched;
               the path still becomes a parallel bundle after v and u
               merge, so it counts either way *)
            if u <> v then
              for j = doff.(u) to doff.(u + 1) - 1 do
                let w = Array.unsafe_get dadj j in
                if w <> v && w <> u && map.(w) < 0 && eligible v w then
                  bump w (mu * Array.unsafe_get dmul j)
              done
          done;
          let best = ref (-1) and bs = ref 0 in
          (* the stack records candidates in touch order, so the first
             candidate seen wins ties *)
          for s = 0 to !top - 1 do
            let u = Array.unsafe_get touched s in
            if Array.unsafe_get score u > !bs then begin
              bs := score.(u);
              best := u
            end
          done;
          for s = 0 to !top - 1 do
            Array.unsafe_set score (Array.unsafe_get touched s) 0
          done;
          top := 0;
          let id = !next_id in
          incr next_id;
          map.(v) <- id;
          if !best >= 0 then map.(!best) <- id
        end
      done;
      let cn = !next_id in
      if float_of_int cn > matching_ratio *. float_of_int n then None
      else begin
        let cvw = Array.make cn 0 in
        for v = 0 to n - 1 do
          cvw.(map.(v)) <- cvw.(map.(v)) + vwgt.(v)
        done;
        (* parallel edges encode the merged edge weights; edges internal
           to a contracted pair disappear (they can never be cut once the
           pair moves as one node) *)
        let m = G.n_edges g in
        let us = Arena.raw_ints ml_arena ~slot:2 m in
        let vs = Arena.raw_ints ml_arena ~slot:3 m in
        let mc = ref 0 in
        G.iter_edges g (fun a b ->
            let ca = map.(a) and cb = map.(b) in
            if ca <> cb then begin
              us.(!mc) <- ca;
              vs.(!mc) <- cb;
              incr mc
            end);
        Some { graph = G.of_endpoints ~n:cn ~m:!mc us vs; vwgt = cvw; map }
      end
    end

  let project ~map ~n_fine cside =
    let side = Bitset.create n_fine in
    let cw = Bitset.unsafe_words cside in
    let fw = Bitset.unsafe_words side in
    for v = 0 to n_fine - 1 do
      let c = Array.unsafe_get map v in
      let bit = (Array.unsafe_get cw (Bitset.word_index c) lsr (Bitset.bit_index c)) land 1 in
      let wv = Bitset.word_index v in
      Array.unsafe_set fw wv (Array.unsafe_get fw wv lor (bit lsl (Bitset.bit_index v)))
    done;
    side
end

(* ------------------------------------------------------------------ *)
(* Refinement                                                          *)
(* ------------------------------------------------------------------ *)

module Refine = struct
  let tolerance ~vwgt = Array.fold_left max 1 vwgt

  let weight_of ~vwgt side =
    let sw = Bitset.unsafe_words side in
    let wa = ref 0 in
    for v = 0 to Array.length vwgt - 1 do
      let bit = (Array.unsafe_get sw (Bitset.word_index v) lsr (Bitset.bit_index v)) land 1 in
      wa := !wa + (bit * Array.unsafe_get vwgt v)
    done;
    !wa

  let imbalance ~vwgt side =
    let total = Array.fold_left ( + ) 0 vwgt in
    abs ((2 * weight_of ~vwgt side) - total)

  let initial ~rng ~vwgt g =
    let n = G.n_nodes g in
    let total = Array.fold_left ( + ) 0 vwgt in
    let half = total / 2 in
    let perm = Perm.random ~rng n in
    let side = Bitset.create n in
    let wa = ref 0 in
    for i = 0 to n - 1 do
      let v = Perm.apply perm i in
      if !wa + vwgt.(v) <= half then begin
        Bitset.add side v;
        wa := !wa + vwgt.(v)
      end
    done;
    side

  (* Move best-gain nodes off the heavy side until the imbalance is
     within tolerance. Only nodes strictly lighter than the imbalance
     qualify, so every move strictly shrinks it and the loop terminates;
     if no node qualifies (a few huge coarse nodes) the level keeps the
     imbalance it inherited — a finer level will repair it, and at the
     finest level all weights are 1 so the bound is always reached. *)
  let rebalance ~vwgt ~tolerance g st wa total =
    let n = G.n_nodes g in
    let continue = ref true in
    while !continue do
      let d = (2 * !wa) - total in
      if abs d <= tolerance then continue := false
      else begin
        let from_a = d > 0 in
        let need = abs d in
        let best = ref (-1) and bg = ref min_int in
        for v = 0 to n - 1 do
          if State.in_side st v = from_a && vwgt.(v) < need then begin
            let gv = State.gain st v in
            if gv > !bg then begin
              bg := gv;
              best := v
            end
          end
        done;
        if !best < 0 then continue := false
        else begin
          let v = !best in
          wa := (if from_a then !wa - vwgt.(v) else !wa + vwgt.(v));
          State.flip st v
        end
      end
    done

  (* One FM pass over two gain-bucket structures (one per side): pop the
     best feasible move, lock it, update neighbor gains in place, and
     hill-climb — negative-gain moves are taken too — rolling back to the
     best prefix whose imbalance is within tolerance. Moves may wander up
     to [tolerance + 2·wmax] away from balance so a heavy node can cross
     and be compensated later in the pass. *)
  (* one reusable pair of gain-bucket structures per domain: a pass resets
     them to the level's dimensions instead of allocating two fresh
     structures (a reset structure is observationally fresh) *)
  let gain_scratch =
    Domain.DLS.new_key (fun () ->
        (Gain.create ~max_gain:0 0, Gain.create ~max_gain:0 0))

  let fm_pass ?cancel ~vwgt ~tolerance ~wmax g st wa total =
    let n = G.n_nodes g in
    let offsets = G.csr_offsets g and adj = G.csr_adj g in
    let maxg = G.max_degree g in
    let ba, bb = Domain.DLS.get gain_scratch in
    Gain.reset ba ~max_gain:maxg n;
    Gain.reset bb ~max_gain:maxg n;
    let gains = State.gains_array st in
    for v = 0 to n - 1 do
      if State.in_side st v then Gain.insert ba v (Array.unsafe_get gains v)
      else Gain.insert bb v (Array.unsafe_get gains v)
    done;
    let start_cap = State.capacity st in
    let best_cap = ref start_cap in
    let best_len = ref 0 in
    let moves = Arena.raw_ints ml_arena ~slot:7 (n + 1) in
    let n_moves = ref 0 in
    let move_bound = tolerance + (2 * wmax) in
    let feasible v =
      let w = vwgt.(v) in
      let wa' = if State.in_side st v then !wa - w else !wa + w in
      abs ((2 * wa') - total) <= move_bound
    in
    let continue = ref true in
    while !continue do
      if !n_moves land 255 = 255 && Cancel.stop cancel then continue := false
      else begin
        let cand =
          match (Gain.peek ba, Gain.peek bb) with
          | None, None -> None
          | Some (v, _), None | None, Some (v, _) ->
              if feasible v then Some v else None
          | Some (va, ga), Some (vb, gb) ->
              (* higher gain first; ties move off the heavier side so the
                 pass also pulls toward balance *)
              let a_first =
                if ga <> gb then ga > gb else (2 * !wa) - total >= 0
              in
              let first, second = if a_first then (va, vb) else (vb, va) in
              if feasible first then Some first
              else if feasible second then Some second
              else None
        in
        match cand with
        | None -> continue := false
        | Some v ->
            if Gain.mem ba v then Gain.remove ba v else Gain.remove bb v;
            wa := (if State.in_side st v then !wa - vwgt.(v) else !wa + vwgt.(v));
            State.flip st v;
            Array.unsafe_set moves !n_moves v;
            incr n_moves;
            for i = Array.unsafe_get offsets v to
                    Array.unsafe_get offsets (v + 1) - 1 do
              let u = Array.unsafe_get adj i in
              if Gain.mem ba u then Gain.update ba u (Array.unsafe_get gains u)
              else if Gain.mem bb u then Gain.update bb u (Array.unsafe_get gains u)
            done;
            if
              State.capacity st < !best_cap
              && abs ((2 * !wa) - total) <= tolerance
            then begin
              best_cap := State.capacity st;
              best_len := !n_moves
            end
      end
    done;
    (* roll back, newest first, to the best balanced prefix *)
    for s = !n_moves - 1 downto !best_len do
      let v = Array.unsafe_get moves s in
      wa := (if State.in_side st v then !wa - vwgt.(v) else !wa + vwgt.(v));
      State.flip st v
    done;
    Metrics.add ml_moves !best_len;
    !best_cap < start_cap

  let refine ?cancel ~vwgt ~tolerance g side =
    Span.time ~name:"ml.refine" @@ fun () ->
    let st = State.create g side in
    let total = Array.fold_left ( + ) 0 vwgt in
    let wa = ref (weight_of ~vwgt side) in
    rebalance ~vwgt ~tolerance g st wa total;
    let wmax = Array.fold_left max 1 vwgt in
    let improving = ref true in
    while !improving && not (Cancel.stop cancel) do
      improving := fm_pass ?cancel ~vwgt ~tolerance ~wmax g st wa total
    done;
    State.side st
end

(* ------------------------------------------------------------------ *)
(* The V-cycle and the cached, restarted solver                        *)
(* ------------------------------------------------------------------ *)

(* One descent from scratch (side = None) or guided by an incumbent cut
   (side = Some s: coarsening respects s, so the coarsest start is exactly
   s contracted — refinement can only improve on it). *)
let descent ~config ~cancel ~rng ?side g =
  let rec build acc g vwgt side =
    if G.n_nodes g <= config.coarsening_threshold || Cancel.stop cancel then
      (acc, g, vwgt, side)
    else
      match
        Span.time ~name:"ml.coarsen" @@ fun () ->
        Coarsen.step ?side ~matching_ratio:config.matching_ratio ~rng ~vwgt g
      with
      | None -> (acc, g, vwgt, side)
      | Some { Coarsen.graph = cg; vwgt = cvw; map } ->
          let cside =
            Option.map
              (fun s ->
                let cs = Bitset.create (G.n_nodes cg) in
                for v = 0 to G.n_nodes g - 1 do
                  if Bitset.mem s v then Bitset.add cs map.(v)
                done;
                cs)
              side
          in
          build ((g, vwgt, map) :: acc) cg cvw cside
  in
  let stack, cg, cvw, cside = build [] g (Coarsen.unit_weights g) side in
  Metrics.add ml_levels (List.length stack + 1);
  let ctol = Refine.tolerance ~vwgt:cvw in
  let side =
    match cside with
    | Some s -> Refine.refine ?cancel ~vwgt:cvw ~tolerance:ctol cg s
    | None ->
        (* the coarsest graph is tiny, so afford it several greedy starts
           and keep the cheapest refined cut (earliest start wins ties) *)
        let best = ref None in
        for _ = 1 to 4 do
          let s = Refine.initial ~rng ~vwgt:cvw cg in
          let s = Refine.refine ?cancel ~vwgt:cvw ~tolerance:ctol cg s in
          let c = Bfly_graph.Traverse.boundary_edges cg s in
          match !best with
          | Some (bc, _) when bc <= c -> ()
          | _ -> best := Some (c, s)
        done;
        snd (Option.get !best)
  in
  List.fold_left
    (fun cside (fg, fvw, map) ->
      let fside = Coarsen.project ~map ~n_fine:(G.n_nodes fg) cside in
      Refine.refine ?cancel ~vwgt:fvw
        ~tolerance:(Refine.tolerance ~vwgt:fvw)
        fg fside)
    side stack

(* A restart: one descent from scratch, then guided descents re-coarsening
   around the incumbent cut until one fails to improve it. The guided
   rounds move whole same-side clusters across the cut, which is what
   lifts the result out of the column-cut local optimum the flat kernels
   get stuck in. *)
let vcycle ~config ~cancel ~seed g =
  let rng = Random.State.make [| 0x6d6c; seed |] in
  let side = ref (descent ~config ~cancel ~rng g) in
  let cap = ref (Bfly_graph.Traverse.boundary_edges g !side) in
  let improving = ref true in
  let rounds = ref 0 in
  while !improving && !rounds < 4 && not (Cancel.stop cancel) do
    incr rounds;
    let side' = descent ~config ~cancel ~rng ~side:!side g in
    let cap' = Bfly_graph.Traverse.boundary_edges g side' in
    if cap' < !cap then begin
      cap := cap';
      side := side'
    end
    else improving := false
  done;
  (!cap, !side)

let bisect ?rng ?(restarts = 4) ?(config = default_config) ?cancel g =
  let cancel = Cancel.resolve cancel in
  Restarts.run ~kernel:"ml" ~salt:"ml/1"
    ~params:
      [
        ("restarts", string_of_int restarts);
        ("matching_ratio", string_of_float config.matching_ratio);
        ("coarsening_threshold", string_of_int config.coarsening_threshold);
      ]
    ?rng ~restarts ~cancel g
  @@ fun seed -> vcycle ~config ~cancel ~seed g
