(** Compile-once monitor registry.

    Each property is parsed/translated/decomposed once and its safety
    part compiled to a {!Packed_dfa.t}; the canonical packed key
    hash-conses language-equal monitors, so properties whose safety
    parts coincide share one compiled table and the streaming engine
    steps it once per event regardless of how many properties ride on
    it. *)

type prop = {
  id : int;  (** dense property index, in insertion order *)
  name : string;  (** source text (or caller-supplied label) *)
  formula : Sl_ltl.Formula.t option;  (** [None] for automaton-sourced *)
  monitor : int;  (** index into {!monitors} *)
}

type t

val create :
  ?alphabet:int -> ?valuation:(int -> string -> bool) -> ?cache:Cache.t ->
  unit -> t
(** Defaults: alphabet 2 with symbol 0 meaning the proposition [a]
    holds — the convention of the CLI and the Section 2.3 examples.
    [cache] is the warm-start compile cache probed before every
    formula translation (automaton-sourced properties always compile);
    default {!Cache.default}, i.e. no caching unless [SLC_CACHE] or
    the CLI's [--cache] set a directory. *)

val add_formula : t -> ?name:string -> Sl_ltl.Formula.t -> int
(** Translate, decompose, compile, hash-cons; returns the property id. *)

val add_buchi : t -> name:string -> Sl_buchi.Buchi.t -> int
(** Register a property given directly as a Büchi automaton. *)

val compile_all :
  ?jobs:int -> ?threshold:int -> t ->
  (string option * Sl_ltl.Formula.t) list -> int list
(** Compile a batch of properties, returning their ids in input order.
    The per-property translate/minimize/pack phase (pure, and the bulk
    of the cost) runs across a domain pool of [jobs] domains (default
    {!Sl_core.Pool.default_jobs}); packed tables are then hash-consed
    and ids assigned in one sequential merge pass in input order, so
    the registry ends up byte-identical at every [jobs]. [None] names
    default to the formula's printed form, as in {!add_formula}.
    [threshold] (default [4]) is the work-size cutoff: batches smaller
    than that compile sequentially even on a wide pool. When the
    registry has a {!Cache.t}, each property probes it before
    translating and publishes on a miss — on the workers, so cache
    I/O parallelizes with the compiles. *)

val load_lines : t -> ?path:string -> string list -> string list
(** Load a property file given as lines: one LTL formula per line, blank
    lines and ['#'] comments skipped. Returns human-readable
    ["path:line: parse error: ..."] messages for malformed lines, which
    are skipped rather than aborting the load. Well-formed lines are
    compiled through {!compile_all} at the default pool width. *)

val load_channel : t -> ?path:string -> in_channel -> string list
(** {!load_lines} over a channel read to end-of-file. *)

val alphabet : t -> int
val nprops : t -> int
val nmonitors : t -> int
(** Distinct compiled monitors (≤ {!nprops}). *)

val hits : t -> int
(** Hash-cons hits: properties that reused an existing monitor. *)

type stats = {
  props : int;  (** total properties compiled into the registry *)
  distinct_monitors : int;  (** deduplicated compiled-monitor count *)
  hashcons_hits : int;
      (** [props - distinct_monitors]: compilations that reused an
          existing packed table — the hash-cons effectiveness, reported
          directly instead of being observable only as the difference *)
}

val stats : t -> stats
(** Total vs deduplicated compiled-monitor counts in one snapshot. *)

val fingerprint : t -> string
(** The registry's structural identity as 16 hex digits: alphabet,
    properties (name and monitor assignment, in order), and each
    distinct monitor's canonical BFS key. Two registries compiled from
    the same property list over the same alphabet — cold, warm-started
    from a cache, at any [jobs] — fingerprint identically; any change
    to a property, its order, or a compiled table changes it. Session
    snapshots embed this and refuse to restore against a registry whose
    fingerprint differs. *)

val prop : t -> int -> prop
val props : t -> prop list
val monitor_of_prop : t -> int -> int
val monitors : t -> Packed_dfa.t array
(** Snapshot of the compiled monitor table, for {!Engine.create}. *)
