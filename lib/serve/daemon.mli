(** The serving core: one monitoring {!Sl_runtime.Session} shared by
    every connection.

    All client streams multiplex onto a single engine — "which
    connection an event arrived on" is deliberately not part of the
    monitoring semantics, only trace ids are, so two clients feeding the
    same trace id interleave into one trace exactly as two files
    concatenated offline would.

    The daemon owns the {!Sl_runtime.Engine} retire hook and routes its
    firings to whichever sink is feeding right now: {!feed} installs the
    caller's sink for the duration of the engine feed, so incremental
    trip/retire records land on the connection that delivered the
    triggering chunk. Pre-tripped (empty-property) verdicts — which
    retire at trace materialization, below the hook — are announced by
    {!feed} for every newly materialized trace. The per-trace EOF
    {!dump} then re-states every property's current verdict, making each
    connection's total output a superset of the offline report rows for
    the traces it touched. *)

type t

val make : Sl_runtime.Session.t -> t
(** Wrap a session (fresh or restored) and install the retire hook on
    its engine. Traces already present (a [--resume]d snapshot) are
    treated as announced: their verdicts surface via {!dump}, not as
    spurious incremental records. *)

val session : t -> Sl_runtime.Session.t
val registry : t -> Sl_runtime.Registry.t
val engine : t -> Sl_runtime.Engine.t
val ingest : t -> Sl_runtime.Ingest.t
val alphabet : t -> int
val fingerprint : t -> string

val feed : t -> buf:Buffer.t -> Sl_runtime.Ingest.chunk -> unit
(** Feed one chunk through the engine, appending the NDJSON verdict
    records it causes (trips, admissible retirements, and pre-tripped
    announcements for traces materialized by this chunk) to [buf] — the
    caller's reusable scratch buffer, so a whole chunk's records
    coalesce into one output slab. The buffer is installed as the hook's
    target only for the duration of the call. *)

val dump : t -> buf:Buffer.t -> trace:int -> unit
(** Append the current verdict of every property on [trace] (cause
    ["eof"]) to [buf] — the connection-close dump that squares the
    served stream with the offline {!Sl_runtime.Verdict} report. *)

val add_summary : t -> Buffer.t -> conn_events:int -> conn_errors:int -> unit
(** Append the per-connection EOF summary record over the engine-global
    counters. *)

val swap_session : t -> Sl_runtime.Session.t -> unit
(** Hot-reload commit point: detach the hook from the old engine,
    adopt [s] and install the hook there. All monitor/property lookup
    tables are rebuilt from the new registry; traces present in [s]
    count as announced. *)
