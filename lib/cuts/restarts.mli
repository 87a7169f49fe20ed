(** Seeded, cached, parallel restarts: the plumbing shared by the
    restarted bisection kernels ({!Heuristics} KL/FM/SA, {!Multilevel}).

    Restart seeds are drawn sequentially from the caller's rng {e before}
    the result cache is consulted — the same draws a computed run makes —
    so a hit returns the identical cut {e and} leaves the rng stream in
    the identical state. The cache key is solver
    [cuts.heuristics.<kernel>], the caller's [salt] and [params], and a
    fingerprint of the graph and the seeds. Cached cuts are re-verified
    (balance, recounted capacity) before being served, and a result
    computed under a triggered {!Bfly_resil.Cancel} token is never
    written. *)

val default_rng : unit -> Random.State.t
(** The fixed stream used when a kernel is called without [?rng]. *)

val derive_seeds : Random.State.t -> int -> int array
(** [derive_seeds rng k] draws [k] restart seeds sequentially, fixing the
    work list before any domain runs. *)

val cached :
  kernel:string ->
  salt:string ->
  params:(string * string) list ->
  seeds:int array ->
  cancel:Bfly_resil.Cancel.t option ->
  Bfly_graph.Graph.t ->
  (unit -> int * Bfly_graph.Bitset.t) ->
  int * Bfly_graph.Bitset.t
(** [cached ~kernel ~salt ~params ~seeds ~cancel g compute] serves a
    verified cache hit, else runs [compute] and stores its cut unless
    [cancel] has fired. *)

val run :
  kernel:string ->
  salt:string ->
  params:(string * string) list ->
  ?rng:Random.State.t ->
  restarts:int ->
  cancel:Bfly_resil.Cancel.t option ->
  Bfly_graph.Graph.t ->
  (int -> int * Bfly_graph.Bitset.t) ->
  int * Bfly_graph.Bitset.t
(** [run ~kernel ~salt ~params ?rng ~restarts ~cancel g restart] — inside
    the timer span [heuristics.<kernel>]: derive [restarts] seeds, then
    {!cached} over {!Bfly_graph.Parallel.best_of} of [restart seed] (lowest
    capacity wins, ties toward the earliest restart). On compute it
    records the counter [heuristics.<kernel>.restarts] and the gauge
    [heuristics.<kernel>.best_capacity]. *)
