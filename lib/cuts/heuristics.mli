(** Heuristic minimum-bisection solvers for instances beyond exact reach.

    None of these are part of the paper; they provide independent upper
    bounds on [BW] that the experiments compare against the paper's
    constructions (Theorem 2.20's [2(√2−1)n] upper bound for [B_n]) and its
    certified lower bounds. All return balanced cuts (side sizes within one
    of [N/2]).

    Restarted solvers run their restarts concurrently on the
    {!Bfly_graph.Parallel} domain pool. Restart seeds are derived
    sequentially from [rng] before any restart runs and ties are broken
    toward the earliest restart, so a fixed [rng] seed gives identical
    results at any [BFLY_DOMAINS] setting. Each solver records its work in
    {!Bfly_obs.Metrics} under [heuristics.<kernel>.*] and a timer span of
    the same stem (e.g. [heuristics.kl.restarts], [heuristics.kl]).

    Because results are deterministic in (graph, parameters, derived
    seeds), every kernel persists its result in the {!Bfly_cache} store
    keyed on exactly those, through {!Restarts}: a hit returns the
    identical cut {e and} leaves the caller's rng stream in the identical
    state, and the [heuristics.<kernel>.*] counters only advance on actual
    compute.

    {1 Graceful degradation}

    The restarted solvers accept a {!Bfly_resil.Cancel} token ([?cancel],
    falling back to the ambient token). A triggered token stops refinement
    at the next pass/step boundary; the cut returned is whatever the
    restarts had reached — still balanced and correctly counted, just not
    converged. Degraded results are {e not} written to the result cache
    (a later uninterrupted run must not be served them), though a cached
    converged result is still served under an expired token. {!spectral}
    ignores cancellation: it is cheap and anchors the portfolio. *)

val kernighan_lin :
  ?rng:Random.State.t ->
  ?restarts:int ->
  ?cancel:Bfly_resil.Cancel.t ->
  Bfly_graph.Graph.t ->
  int * Bfly_graph.Bitset.t
(** [kernighan_lin ?rng ?restarts ?cancel g] — classic KL swap passes from
    random balanced starts, restarts in parallel. O(passes·n²) work per
    restart; intended for [n <= ~2000]. [restarts] defaults to 4.
    Cancellation is honored between KL passes. *)

val fiduccia_mattheyses :
  ?rng:Random.State.t ->
  ?restarts:int ->
  ?cancel:Bfly_resil.Cancel.t ->
  Bfly_graph.Graph.t ->
  int * Bfly_graph.Bitset.t
(** [fiduccia_mattheyses ?rng ?restarts ?cancel g] — FM single-node moves
    with bucketed gains and balance tolerance 1, restarts in parallel.
    O(passes·m) work per restart; practical to hundreds of thousands of
    edges. [restarts] defaults to 4. Cancellation is honored between FM
    passes. *)

val spectral : Bfly_graph.Graph.t -> int * Bfly_graph.Bitset.t
(** [spectral g] — Fiedler-vector median split (power iteration on the
    Laplacian complement, ones-deflated), refined by one FM descent.
    Deterministic: no rng, no restarts. *)

val annealing :
  ?rng:Random.State.t ->
  ?steps:int ->
  ?restarts:int ->
  ?cancel:Bfly_resil.Cancel.t ->
  Bfly_graph.Graph.t ->
  int * Bfly_graph.Bitset.t
(** [annealing ?rng ?steps ?restarts ?cancel g] — simulated annealing over
    balanced-swap moves with geometric cooling. [restarts] (default 1)
    independent chains run in parallel; the coolest final cut wins.
    Cancellation is checked every 1024 annealing steps; the best cut seen
    so far in each chain is kept. *)

val best_of :
  ?rng:Random.State.t ->
  ?cancel:Bfly_resil.Cancel.t ->
  Bfly_graph.Graph.t ->
  int * Bfly_graph.Bitset.t * string
(** [best_of ?rng ?cancel g] runs a portfolio appropriate to the graph's
    size — concurrently, each member on its own derived seed — and returns
    the best cut found, labeled by the winning method (earliest listed wins
    ties, so the label is deterministic too). The token (explicit, else
    ambient) is resolved once and handed to every cancellable member. *)
