(** NDJSON wire records of the serving layer.

    One self-contained JSON object per line, schema
    [sl-monitor-report/1] — the same verdict vocabulary as the offline
    {!Sl_runtime.Verdict} report ([violation]/[admissible]/[vacuous]
    with the same 1-based bad-prefix positions), emitted incrementally
    per trip/retire instead of only at EOF. Every renderer returns a
    complete line including the trailing newline; field order is fixed,
    so the output is byte-stable across runs and [jobs] values, record
    order included (the engine fires retirements in event order).

    Record types: [hello] (one per connection, on accept), [verdict]
    (per (trace, property), with a [cause] of [trip]/[retire]/
    [pretripped]/[eof]), [error] (a structured {!Sl_runtime.Ingest}
    per-line defect echoed to the offending client), and [summary]
    (one per connection, at client EOF). *)

val escape : string -> string
(** JSON string-body escaping (quotes, backslashes, control bytes). *)

(** {1 Buffer renderers}

    Each [add_*] appends the exact bytes its string counterpart returns
    into the caller's buffer — the serving hot path renders a whole
    chunk's records into one reusable scratch buffer and hands the
    output queue a single coalesced slab. The string renderers are
    wrappers over these, so the two can never diverge. *)

val add_escape : Buffer.t -> string -> unit

val add_hello :
  Buffer.t -> version:string -> props:int -> monitors:int ->
  fingerprint:string -> unit

val add_verdict_violation :
  Buffer.t -> trace:string -> prop:string -> position:int -> cause:string ->
  unit

val add_verdict_admissible :
  Buffer.t -> trace:string -> prop:string -> cause:string -> unit

val add_verdict_vacuous : Buffer.t -> trace:string -> prop:string -> unit

val add_error :
  Buffer.t -> line:int -> trace:string option -> reason:string -> unit

val add_summary :
  Buffer.t -> traces:int -> events:int -> props:int -> monitors:int ->
  tripped:int -> retired_admissible:int -> live:int -> conn_events:int ->
  conn_errors:int -> unit

val hello :
  version:string -> props:int -> monitors:int -> fingerprint:string ->
  string

val verdict_violation :
  trace:string -> prop:string -> position:int -> cause:string -> string

val verdict_admissible : trace:string -> prop:string -> cause:string -> string
val verdict_vacuous : trace:string -> prop:string -> string

val error : line:int -> trace:string option -> reason:string -> string
(** The daemon's echo of a malformed input line: the client that sent
    it gets the line number (its own stream's numbering), the trace id
    when one was recognizable, and the reason — the connection stays
    open and the line is skipped. *)

val summary :
  traces:int -> events:int -> props:int -> monitors:int -> tripped:int ->
  retired_admissible:int -> live:int -> conn_events:int ->
  conn_errors:int -> string
(** Engine-global counters plus this connection's own event/error
    tallies; sent once, after the final per-trace verdict dump. *)
