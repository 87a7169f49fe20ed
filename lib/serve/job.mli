(** Solver jobs: the one vocabulary shared by the one-shot CLI and the
    batch query service.

    A {!spec} names a deterministic solver invocation — the same set the
    paper's quantities need at serving time: bisection-width solvers
    (exact branch and bound, the KL/FM/SA/spectral heuristics, the
    multilevel partitioner), the
    mesh-of-stars closed form (Lemmas 2.17–2.19), the Section 4 expansion
    enumerations/annealers, and the differential-oracle battery. {!run}
    executes one and returns {e exactly} the text the corresponding
    [bfly_tool] subcommand prints — [bfly_tool bw], [bfly_tool expansion]
    and [bfly_tool mos] are themselves implemented on top of this module,
    so a served response is byte-identical to a one-shot invocation by
    construction, warm or cold cache.

    {!fingerprint} canonically names a [(spec, deadline)] pair; the server
    coalesces concurrent requests with equal fingerprints into one solve.
    Every solver underneath already persists through {!Bfly_cache.Store},
    so warm fingerprints never re-search. *)

type net =
  | Butterfly
  | Wrapped
  | Ccc
  | Fabric of Bfly_networks.Fabric.spec
      (** A data-center product network; the spec fixes the instance size,
          so the [n] field of jobs on fabrics is pinned to [0]
          (see {!parse}). *)

type solver = Exact | Kl | Fm | Sa | Spectral | Ml

(** What a bisection-width job runs. [max_nodes]/[resume] only affect
    [Exact] (step budget / checkpoint continuation); [seed]/[restarts]
    only the seeded heuristics ([Spectral] is deterministic). *)
type bw = {
  solver : solver;
  net : net;
  n : int;
  seed : int;
  restarts : int;
  max_nodes : int option;
  resume : bool;
}

(** Which expansion lines to print: [`Ee], [`Ne], or both (the classic
    [bfly_tool expansion] output). *)
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
      (** A random-regular bisection sweep rendered through
          {!Bfly_check.Campaign.render}; deterministic for a given grid,
          so equal grids coalesce like any other fingerprint. *)

val net_name : net -> string
(** ["butterfly"] | ["wrapped"] | ["ccc"]. *)

val net_of_string : string -> (net, string) result
(** Accepts the same spellings as the CLI ([butterfly|b|bn], [wrapped|w|wn],
    [ccc]) plus the {!Bfly_networks.Fabric} specs ([mesh:2x4x8],
    [torus:4x4x4], [torus3d:4x4x4], [bcube:4x2],
    [product:path2xring3xk4]); fabric validation errors are reported
    here. *)

val is_fabric : net -> bool

val solver_name : solver -> string

val solver_of_string : string -> (solver, string) result
(** [exact|kl|fm|sa|spectral|ml] ([annealing] is accepted for [sa],
    [multilevel] for [ml]). *)

val graph_of : net -> int -> (Bfly_graph.Graph.t * string, string) result
(** The instance graph and its display name ([B_16], [W_16], [CCC_16], or
    the canonical fabric spec such as [mesh:2x4x8]); errors match the
    CLI's ("n must be a power of two", …). Fabric nets ignore [n] — the
    spec already fixes the size. *)

(** {1 Job fields}

    {!parse} is the one decoder from named fields to a {!spec}: the wire
    protocol ({!Protocol}) hands it the request object's members, and the
    [bfly_tool bw|expansion|mos] subcommands hand it their flag values
    under the same names. The field table:

    {v
    job        field     type        default
    bw         solver    string      "exact"  (exact|kl|fm|sa|spectral|ml)
               network   string      required
               n         int         required; must be omitted for fabrics
               seed      int         1        (kl|fm|sa|ml)
               restarts  int         4        (kl|fm|sa|ml)
               max_nodes int         none     (exact: step budget)
               resume    bool        false    (exact: continue checkpoint)
    ee|ne|     network   string      required
    expansion  n         int         required; must be omitted for fabrics
               k         int         required
               exact     bool        false
               seed      int         1        (annealer, when not exact)
    mos        j         int         required
    check      seed      int         42
               rounds    int         5
    campaign   degree    int         3
               sizes     int list    [32, 64]  capped: 8 sizes, n <= 1024
               seeds     int         3         capped: 16
    v}

    A fabric [network] ([mesh:], [torus:], …) fixes the instance size, so
    [n] is pinned to [0] and an explicit [n] is an error. Campaign grids
    are capped because a campaign is the most expensive job a shared
    endpoint serves. Unknown fields are ignored. Range checks that do not
    depend on the field source ([restarts >= 1], [j >= 1], [k] in range,
    …) stay in {!run}, so specs built directly are checked too. *)

val parse :
  job:string -> (string -> Bfly_obs.Json.t option) -> (spec, string) result
(** [parse ~job field] decodes the fields of a [job]
    ([bw|mos|ee|ne|expansion|check|campaign]) through the lookup [field].
    Errors name the offending field (["field \"k\" is required"],
    ["field \"seed\" must be an integer"], …); they are the texts both the
    wire and the CLI report. *)

val fingerprint : ?deadline:Bfly_resil.Budget.t -> spec -> string
(** Canonical one-line identity of a [(spec, deadline)] pair. Equal
    fingerprints mean equal requests — same solver, same parameters, same
    deadline — which is the coalescing criterion: batching a request onto
    an in-flight twin must not change its answer, and a deadline is part
    of the answer (it decides whether an exact search may degrade to an
    interval). *)

val run : ?deadline:Bfly_resil.Budget.t -> spec -> (string, string) result
(** Execute the job. [Ok text] is the bytes the matching one-shot
    [bfly_tool] subcommand writes to stdout (trailing newline included);
    [Error msg] the message it prints to stderr. [deadline] supervises the
    run the way [bfly_tool --deadline] does: an ambient
    {!Bfly_resil.Cancel} token for heuristics and annealers, a direct
    token (combined with [max_nodes]) for the exact search — which then
    degrades to a certified, validated interval instead of completing.
    Every witness-carrying result is re-validated through
    {!Bfly_check.Invariants} before the text is produced. *)
