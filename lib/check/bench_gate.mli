(** The bench harness's [--compare] gate over [bfly-bench/2] documents,
    declared outside [bench/main.ml] so the tests pin the same
    declaration the harness gates with. *)

val counters : string list
(** The counters snapshotted into the document's [gate] object before
    the Bechamel stage — fixed for a fixed build, domain count and
    (fresh) cache state. *)

val config : Bfly_obs.Doc.schema
(** [schema], [mode] and [domains] must match, else the comparison is
    refused (cache traffic depends on the pool width). *)

val schema : Bfly_obs.Doc.schema
(** {!config}, every experiment's [output] (matched by [name], both
    ways), the oracle summary [check] and each [gate] counter. *)
