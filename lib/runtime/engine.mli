(** The streaming monitoring engine: M compiled monitors over N
    concurrent traces.

    Per-trace monitor state is packed in [int array]s (one current DFA
    state per distinct monitor, a compact live list, a trip-position
    array); the per-event step is a flat-array walk over the live
    monitors with no allocation. Monitors retire early — on trip
    (violation is irrevocable), and as admissible-forever once no
    rejecting state is reachable from their current state; vacuous
    (pure-liveness) monitors never enter the live list at all. *)

type verdict =
  | Vacuous
      (** the property's safety part is universal: no finite prefix can
          ever be rejected (unmonitorable liveness) *)
  | Admissible  (** no bad prefix seen (so far, or provably ever) *)
  | Violation of { position : int }
      (** tripped at the [position]-th event of the trace (1-based; [0]
          for the empty property, whose empty prefix is already bad) *)

type t

type plan
(** The immutable compiled plan: monitors, alphabet, the derived
    vacuous/pre-tripped census, and the fused transition megatable
    ({!Packed_dfa.fuse}) the step loop walks — one contiguous array
    with per-monitor base offsets, so the per-event inner loop reads a
    single cache-friendly table instead of chasing M monitor records.
    A pure function of the registry's compiled monitors — shareable
    across engines and never mutated by a run, which is what lets the
    session layer snapshot only the mutable run state and re-attach it
    to a plan recompiled elsewhere; per-trace states, the session
    codec, and reload carry-over keep indexing monitors by their
    unchanged canonical keys. *)

val plan_of_monitors : Packed_dfa.t array -> plan
(** All monitors must share an alphabet (the registry guarantees this).
    @raise Invalid_argument otherwise. *)

val of_plan : plan -> t
(** A fresh run (no traces, zero counters) over [plan]. *)

val plan : t -> plan
val plan_monitors : plan -> Packed_dfa.t array
val plan_alphabet : plan -> int

val create : monitors:Packed_dfa.t array -> unit -> t
(** [plan_of_monitors] composed with [of_plan].
    @raise Invalid_argument if the monitors disagree on alphabet. *)

val step : t -> trace:int -> symbol:int -> unit
(** Feed one event. Trace ids are dense nonnegative ints (see
    [Ingest]); a fresh id allocates its packed state block on first
    use. @raise Invalid_argument if the symbol is outside the
    alphabet. *)

val feed :
  t -> ?off:int -> n:int -> traces:int array -> symbols:int array ->
  unit -> unit
(** Batched ingestion of [n] events from parallel arrays
    [traces.(off..)] / [symbols.(off..)] — the chunk shape produced by
    [Ingest]. Equivalent to [n] calls to {!step}, without per-event
    call/option overhead. *)

val verdict : t -> trace:int -> monitor:int -> verdict
(** Current verdict of a distinct monitor on a trace (never-seen traces
    report the fresh verdict). Property-level verdicts go through
    [Registry.monitor_of_prop]. *)

val reset : t -> unit
(** Reset all known traces to the initial state, in place (no
    allocation); counters restart from zero. *)

(** {1 Incremental verdict hook}

    The serving layer's window into the run: retirements surface as
    they happen instead of only in the EOF report. *)

val set_retire_hook :
  t ->
  (trace:int -> monitor:int -> position:int -> tripped:bool -> unit) option ->
  unit
(** Install (or clear) a callback fired once per (trace, distinct
    monitor) retirement: [tripped = true] for a violation ([position]
    is the 1-based shortest-bad-prefix position), [false] for
    admissible-forever ([position] is the event at which no rejecting
    state remained reachable). Each monitor instance retires at most
    once ever, so the hook fires at most [ntraces * nmonitors] times
    over a run. Pre-tripped (empty-property) monitors and vacuous
    monitors never pass through the hook — they retire at trace
    materialization, not at a step; callers see them in the plan.

    The hook fires in exact event order, from inside the step. It must
    not call back into the engine's stepping API. Restoring a snapshot
    fires no hooks. *)

(** {1 Metrics counters} *)

val nmonitors : t -> int

val ntraces : t -> int
val events : t -> int
(** Events ingested since creation/reset. *)

val trace_events : t -> int -> int
val live : t -> int
(** Live (still undecided) monitor instances across all traces. *)

val tripped : t -> int
(** Monitor instances retired by violation. *)

val retired_admissible : t -> int
(** Monitor instances retired admissible-forever. *)

val nvacuous : t -> int
(** Vacuous monitors (per trace; they are never instantiated live). *)

(** {1 Introspection census}

    Exact counts derived from the trace table itself (not the
    process-local telemetry counters), so they square with the offline
    report even after a [--resume] — the serving layer's [/monitors]
    and [/traces] endpoints read these. *)

type monitor_counts = {
  mc_live : int;  (** traces where this monitor is still undecided *)
  mc_tripped : int;  (** traces where it retired by violation *)
  mc_retired : int;  (** traces where it retired admissible-forever *)
}

val monitor_counts : t -> monitor_counts array
(** One entry per distinct monitor, over every materialized trace.
    Vacuous monitors count all-zero (they are never instantiated).
    O(ntraces x nmonitors). *)

val trace_summary : t -> int -> (int * int * int) option
(** [(events, live, tripped)] for a materialized trace id, [None]
    otherwise. Allocation-light ([export_trace] copies state out;
    this only counts). *)

(** {1 Run-state externalization}

    The session codec's view of a run: per-trace packed state as plain
    arrays, plus the engine-global counters. Exporting copies out of the
    engine; restoring validates every field against the plan before
    touching engine state, so a corrupted snapshot can never leave the
    engine in a state the run loop couldn't have produced. *)

type trace_state = {
  ts_events : int;  (** events this trace has seen *)
  ts_states : int array;  (** current DFA state per monitor (length M) *)
  ts_live : int array;
      (** live monitor indices in live-list order — order matters for
          byte-identical continuation *)
  ts_tripped_at : int array;
      (** trip position per monitor, [-1] if not tripped (length M) *)
}

val export_trace : t -> int -> trace_state option
(** [None] for ids the engine has never materialized. *)

val restore_trace : t -> int -> trace_state -> unit
(** Materialize trace [id] and overwrite its state. Validates lengths
    against the monitor count, states against each monitor's state
    count, trip positions against the event count, and the live list
    for range/duplicates/consistency with [ts_tripped_at].
    @raise Invalid_argument on any inconsistency.

    Restore traces {e first}, then {!set_counters}: materializing a
    trace counts pre-tripped monitors into the engine's [tripped]
    counter, which [set_counters] then overwrites with the snapshot's
    totals. *)

val set_counters :
  t -> events:int -> tripped:int -> retired_admissible:int -> unit
(** Overwrite the engine-global counters with a snapshot's totals.
    @raise Invalid_argument if any is negative. *)
