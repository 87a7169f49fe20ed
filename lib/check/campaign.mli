(** Seeded random-regular bisection campaigns with statistical oracles.

    A campaign sweeps the configuration-model family
    [random_regular ~simple:true ~degree] over a size × seed grid
    ({!Bfly_graph.Sweep}) and records, per instance, the triple

    - certified lower bound — {!Bfly_cuts.Certificate.kn_bound},
    - [ml] — the {!Bfly_cuts.Multilevel.bisect} heuristic (the repo's
      [bw ml] path), and
    - [spectral] — {!Bfly_cuts.Heuristics.spectral},

    both heuristic witnesses re-validated through
    {!Invariants.bisection_cut}. Per size it aggregates mean/min/max
    cut-per-[n] ratios and judges them against literature brackets:
    arXiv:2009.00598 proves the minimum bisection of a random cubic
    graph is a.a.s. in [[0.10300, 0.13932]·n], so at the pinned window
    sizes the mean [ml] ratio must land inside a committed bracket whose
    lower edge is the theorem's lower constant and whose upper edge is
    the committed campaign mean plus a seed-noise margin (EXPERIMENTS.md
    chapter C1 derives the widths). Every instance additionally passes a
    broad sanity oracle ([lb <= ml], [lb <= spectral], heuristics no
    worse than the expected random cut [degree·n/4]).

    Determinism contract: instance graphs and solver restarts draw from
    disjoint seed streams keyed only by [(degree, n, seed)] (prefixes
    [0xca9a]/[0xca9b]), the certificate and both heuristics are
    deterministic, and the sweep returns grid order — so a campaign
    document is byte-identical at any [BFLY_DOMAINS] and across warm
    cache hits, which is what lets CI diff a smoke sub-grid against the
    committed [CAMPAIGN_*.json] baseline.

    Metrics: counters [campaign.instances] and [campaign.oracle.checks]
    (both in the bench gate snapshot). *)

(** {1 Literature constants and pinned windows} *)

val mb_lower : float
(** [0.10300] — lower constant of arXiv:2009.00598. *)

val mb_upper : float
(** [0.13932] — upper constant of arXiv:2009.00598. *)

val window : n:int -> (float * float) option
(** The pinned oracle bracket for the mean [ml] ratio at size [n] of the
    degree-3 campaign; [None] for sizes too small for the asymptotic
    bracket to bind (windows are committed for [n >= 1024] only). *)

val default_sizes : int list
val default_seeds : int
val default_restarts : int

(** {1 Results} *)

type instance = {
  n : int;
  seed : int;
  edges : int;  (** edge count of the sampled simple graph *)
  lb : int;  (** certified lower bound *)
  ml : int;  (** multilevel heuristic cut *)
  spectral : int;  (** spectral heuristic cut *)
}

type summary = {
  s_n : int;
  count : int;  (** instances aggregated at this size *)
  mean_lb : float;  (** mean certified-LB/[n] ratio *)
  mean_ml : float;
  min_ml : float;
  max_ml : float;
  mean_spectral : float;
}

type t = {
  degree : int;
  sizes : int list;  (** sorted, deduplicated *)
  seeds : int;
  restarts : int;
  instances : instance list;  (** grid order: size-major, seed ascending *)
  summaries : summary list;
  checks : Bounds.check list;  (** sanity first, then per-window oracles *)
  ok : bool;
}

(** {1 Running} *)

val run :
  ?cancel:Bfly_resil.Cancel.t ->
  ?restarts:int ->
  degree:int ->
  sizes:int list ->
  seeds:int ->
  unit ->
  (t, string) result
(** [run ?cancel ?restarts ~degree ~sizes ~seeds ()] executes the
    campaign on the domain pool. [Error] on invalid parameters (degree
    outside [[2, 16]], a size outside [[2·degree, 16384]], odd [n·degree],
    [seeds < 1]…). Honors [?cancel] or the ambient token
    ({!Bfly_resil.Cancel.resolve}) — cancellation raises
    {!Bfly_resil.Cancel.Cancelled}, never returns a partial grid. *)

val instance_graph : degree:int -> n:int -> seed:int -> Bfly_graph.Graph.t
(** The exact graph the campaign names [(degree, n, seed)] — exposed so
    tests can pin small instances against the exact solver. *)

(** {1 Oracles} (exposed for the synthetic pass/fail tests) *)

val sanity :
  degree:int -> ?witness_faults:string list -> instance list -> Bounds.check

val aggregate : degree:int -> summary list -> Bounds.check list
(** Window and certified-LB oracles; empty unless [degree = 3]. *)

val summarize : sizes:int list -> instance list -> summary list

(** {1 Documents} *)

val schema : string
(** ["bfly-campaign/1"]. *)

val to_json : t -> Bfly_obs.Json.t
(** The [bfly-campaign/1] document: schema, grid parameters, literature
    constants, per-instance triples, per-size summaries (with their
    window or [null]) and the oracle verdict. Byte-stable. *)

val gate : Bfly_obs.Doc.schema
(** The [--compare] gate. [schema], [degree] and [restarts] must match
    (else the comparison is refused); every instance row of the current
    document must reproduce the baseline's [edges]/[lb]/[ml]/[spectral]
    exactly, matched on [(n, seed)] — the current grid may be a sub-grid
    of the baseline's, which is how the CI smoke stage diffs against the
    committed full run; when [sizes] and [seeds] coincide, [summary] and
    the oracle verdict are compared too. *)

val render : t -> string
(** Human-readable report: the E1-style convergence table (cut/[n]
    ratios per size), the oracle verdicts, and a one-line summary. *)

val c1 : unit -> string
(** Experiment C1 (EXPERIMENTS.md): a reduced campaign — degree 3,
    sizes 64…512, 5 seeds — rendered through {!render}. *)
