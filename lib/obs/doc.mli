(** Declarative gates over JSON run documents.

    Every committed document this repo reproduces against
    ([BENCH_*.json], [LOADGEN_*.json], [CAMPAIGN_*.json]) is guarded the
    same way: a fresh run's document is diffed against the committed
    baseline, and any drift fails CI. A {!schema} declares how each field
    is diffed — {!exact}, {!config}, {!slack}, keyed {!rows}, guarded by
    {!when_same} — and every undeclared field is ignored; {!compare} is
    the one engine that applies it. A declared field that is missing or
    mistyped on either side is drift, never a silent pass. *)

type path = string
(** A ['/']-separated field path from the document root, e.g.
    ["timing/p99_ns"] or ["gate/exact.bb.nodes"] (keys may contain
    dots). A segment that is a decimal integer indexes into a list. *)

val get : Json.t -> path -> Json.t option
(** [get doc path] is the value at [path], or [None]. *)

val load : string -> (Json.t, string) result
(** [load file] reads and parses one JSON document. *)

(** {1 Schemas} *)

type field

type schema = field list

val exact : path -> field
(** The values must be equal (canonical JSON text). *)

val config : ?hint:string -> path -> field
(** A mismatch means the documents describe different experiments: the
    comparison is refused, with [hint] (how to rerun matching) appended. *)

val slack : better:[ `Lower | `Higher ] -> float -> path -> field
(** [slack ~better factor path]: with [`Lower], the current value may
    not exceed [factor] × baseline; with [`Higher], it may not fall
    below baseline / [factor]. A baseline [<= 0] gates nothing. *)

val rows : ?subset:bool -> key:path list -> path -> schema -> field
(** [rows ~key path cols] matches the objects of the list at [path] by
    their [key] fields and compares each matched pair under [cols]. A
    current row absent from the baseline is drift, and so is an empty
    current list; a baseline row absent from the current document is
    drift unless [subset] (default [false]). *)

val when_same : path list -> schema -> field
(** [when_same guards fields] compares [fields] only when every guard
    path holds the same value in both documents. *)

(** {1 Comparing} *)

type verdict =
  | Refused of string  (** a {!config} field differs or is missing *)
  | Drifts of string list  (** [[]] when the gate passes *)

val compare : schema:schema -> baseline:Json.t -> Json.t -> verdict
(** [compare ~schema ~baseline current] applies [schema] field by field,
    in declaration order. Drift messages name the field path (rows as
    [path[k=v,…]/col]); a multi-line string's message quotes its first
    divergent line. *)
