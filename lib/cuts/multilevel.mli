(** Multilevel minimum-bisection heuristic: heavy-edge-matching coarsening,
    gain-bucket FM refinement per level, parallel V-cycle restarts.

    This is the scale tier of the heuristic family ({!Heuristics} covers
    the flat kernels): it produces balanced cuts of butterflies far beyond
    exact reach, giving the E1 convergence table a heuristic upper-bound
    column that tracks Theorem 2.20's [2(√2−1)n ≈ 0.8284n] at [n = 4096]
    and beyond, where flat KL/FM no longer converge in useful time.

    {1 The V-cycle}

    Each restart runs one V-cycle. {e Coarsening} repeatedly contracts a
    heavy-edge matching ({!Coarsen.step}): nodes are visited in a seeded
    random order and merged with the unmatched neighbor sharing the
    heaviest edge bundle. Edge weights are represented as parallel edges
    of the coarse multigraph — {!Bfly_graph.Graph} counts multiplicity
    everywhere, so the weighted cut of a coarse side {e equals} the cut of
    its projection (contracted pairs sit on one side; only their external
    edges survive, with multiplicity preserved), and total edge weight
    never exceeds the original edge count. Vertex weights are carried
    explicitly and conserved: the weight of a coarse node is the number
    of original nodes inside it, so weighted balance at any level is
    exactly the balance of the projected cut.

    Coarsening stops at [coarsening_threshold] nodes, or when a round
    leaves more than [matching_ratio · n] coarse nodes (the matching
    stalled). The coarsest graph is bisected from a seeded greedy start,
    then each level is {e refined}: the side is first rebalanced to the
    level's tolerance (the maximum vertex weight — a single move cannot
    do better), then Fiduccia–Mattheyses passes run on two {!Gain} bucket
    structures (one per side) with O(1) best-move selection, each pass
    hill-climbing through infeasible territory and rolling back to its
    best balanced prefix. At the finest level all weights are 1, the
    tolerance is 1, and the result is a true bisection.

    {1 Determinism, caching, degradation}

    Restart seeds are drawn sequentially from [rng] before any restart
    runs and the best cut ties toward the earliest restart
    ({!Bfly_graph.Parallel.best_of}), so results are identical at any
    [BFLY_DOMAINS]. Results are cached in {!Bfly_cache} keyed on (graph,
    parameters, derived seeds) under solver [cuts.heuristics.ml] through
    the same {!Restarts} plumbing as the flat kernels: seeds are drawn {e before} the
    lookup, so a hit returns the identical cut and leaves the rng stream
    in the identical state, and entries are re-verified (balance,
    recounted capacity) before being served. A triggered
    {!Bfly_resil.Cancel} token stops coarsening between rounds and
    refinement between moves; the degraded result is still projected to
    the finest level and rebalanced — a valid bisection, just not
    converged — and is not written to the cache.

    Metrics: [ml.levels] (hierarchy levels built, summed over restarts),
    [ml.refine.moves] (accepted refinement moves), and the standard
    kernel pair [heuristics.ml.restarts] / [heuristics.ml.best_capacity],
    all advancing only on actual compute; timer span [heuristics.ml]. *)

type config = {
  matching_ratio : float;
      (** Stop coarsening when a matching round leaves more than
          [matching_ratio · n] coarse nodes. In [(0, 1]]; default [0.9]. *)
  coarsening_threshold : int;
      (** Stop coarsening at or below this many nodes; the coarsest graph
          is partitioned directly. Default [64]. *)
}

val default_config : config

val bisect :
  ?rng:Random.State.t ->
  ?restarts:int ->
  ?config:config ->
  ?cancel:Bfly_resil.Cancel.t ->
  Bfly_graph.Graph.t ->
  int * Bfly_graph.Bitset.t
(** [bisect ?rng ?restarts ?config ?cancel g] — the best balanced cut over
    [restarts] (default 4) independent V-cycles run concurrently on the
    domain pool. Returns the capacity and the witness side (sizes within
    one of [N/2]). Near-linear per restart: O(levels · (N + M)). *)

(** {1 Internal surfaces}

    The coarsening and refinement stages, exposed so the differential
    tests can drive a V-cycle one level at a time and check the
    invariants (cut preservation under projection, vertex-weight
    conservation, per-level balance) that {!bisect} relies on. *)

module Coarsen : sig
  type level = {
    graph : Bfly_graph.Graph.t;
        (** The coarse multigraph; parallel edges encode edge weight. *)
    vwgt : int array;  (** Coarse vertex weights. *)
    map : int array;  (** Fine node to coarse node. *)
  }

  val unit_weights : Bfly_graph.Graph.t -> int array
  (** All-ones weights for the finest level. *)

  val step :
    ?side:Bfly_graph.Bitset.t ->
    matching_ratio:float ->
    rng:Random.State.t ->
    vwgt:int array ->
    Bfly_graph.Graph.t ->
    level option
  (** One heavy-edge-matching contraction, or [None] when the graph is
      already tiny or the matching stalled (see {!config}). With [?side],
      only same-side pairs are matched, so the side survives contraction
      with its exact cut capacity — the guided rounds of {!bisect} iterate
      on this to lift an incumbent cut out of local optima. *)

  val project :
    map:int array -> n_fine:int -> Bfly_graph.Bitset.t -> Bfly_graph.Bitset.t
  (** Pull a coarse side back to the finer level: a fine node is in the
      projected side iff its coarse node is in the given side. *)
end

module Refine : sig
  val tolerance : vwgt:int array -> int
  (** The level's balance tolerance: [max 1 (max vertex weight)]. *)

  val imbalance : vwgt:int array -> Bfly_graph.Bitset.t -> int
  (** [|2·w(S) − w(V)|] — the quantity {!refine} bounds by the
      tolerance. [0] or [1] exactly when the side is a weighted
      bisection. *)

  val initial :
    rng:Random.State.t -> vwgt:int array -> Bfly_graph.Graph.t -> Bfly_graph.Bitset.t
  (** Seeded greedy weighted half-fill, the coarsest-level start. *)

  val refine :
    ?cancel:Bfly_resil.Cancel.t ->
    vwgt:int array ->
    tolerance:int ->
    Bfly_graph.Graph.t ->
    Bfly_graph.Bitset.t ->
    Bfly_graph.Bitset.t
  (** Rebalance the side to within [tolerance], then run gain-bucket FM
      passes to a fixpoint (or until [cancel] fires). The input side is
      not mutated; the returned side always satisfies the tolerance. *)
end
