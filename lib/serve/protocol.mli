(** The newline-delimited JSON wire protocol of [bfly_tool serve].

    One request per line, one response line per request, in arrival order
    per connection. A request is a JSON object:

    {v
    {"id":"r1","job":"bw","solver":"kl","network":"butterfly","n":64,
     "seed":7,"restarts":4}
    {"id":"r2","job":"mos","j":64}
    {"id":"r3","job":"ee","network":"wrapped","n":8,"k":6,"exact":true}
    {"id":"r4","job":"check","seed":42,"rounds":2}
    {"id":"r5","job":"campaign","degree":3,"sizes":[32,64],"seeds":3}
    {"id":"r6","job":"stats"}
    v}

    [job] selects the solver family — [bw], [mos], [ee]/[ne]/[expansion],
    [check], [campaign] — or [stats] (live server introspection, answered
    immediately, never queued). A job's own fields, their defaults and
    the serve caps are the field table of {!Job.parse}, the decoder the
    one-shot CLI shares. This module reads only the envelope: [id] is any
    string (echoed verbatim in the response; assigned [r<N>] when
    omitted); [deadline] is a per-request budget in
    [Bfly_resil.Budget.of_string] syntax (["250ms"], ["1.5s"]). Unknown
    fields are ignored; a duplicated key rejects the request.

    Responses:

    {v
    {"id":"r1","ok":true,"batch":3,"output":"B_64: BW <= 64 (kl, ...)\n"}
    {"id":"r9","ok":false,"error":"overloaded"}
    v}

    [output] is byte-identical to the matching one-shot [bfly_tool]
    subcommand's stdout; [batch] counts how many requests were coalesced
    into the solve that produced it. [error] is the admission verdict
    (["overloaded"], ["draining"]), a parse diagnostic, or the solver
    error the one-shot CLI would print. *)

type payload =
  | Job of { spec : Job.spec; deadline : Bfly_resil.Budget.t option }
  | Stats

type request = { id : string; payload : payload }

val parse_request : default_id:string -> string -> (request, string * string) result
(** [parse_request ~default_id line] parses one request line. Errors carry
    [(message, id)] — the request's [id] when the line parsed far enough
    to have one, else [default_id] — so a malformed line still gets an
    addressable response. *)

val ok_response : id:string -> batch:int -> output:string -> string
(** One response line (no trailing newline). *)

val error_response : id:string -> string -> string

val stats_response : id:string -> Bfly_obs.Json.t -> string
(** [{"id":..,"ok":true, <fields of the stats object>}]. *)
