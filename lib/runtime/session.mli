(** Snapshotable monitoring sessions.

    A session bundles everything mutable about one monitoring run — the
    engine's per-trace packed state and counters, and the {!Ingest}
    trace-id interner — behind one unit that can be externalized as a
    [sl-artifact/1] blob (kind [session]) and restored in a fresh
    process. The compiled registry is referenced, not serialized: the
    snapshot embeds only the registry {!Registry.fingerprint}, and
    restore refuses a registry whose fingerprint differs, so a resumed
    run can never silently step different monitors than the run that
    was saved.

    The contract is byte-identical continuation: feeding a stream's
    first [k] events, snapshotting, restoring in another process (cold
    or cache-warmed registry), and feeding the rest yields
    exactly the verdicts, bad-prefix positions and counters of the
    uninterrupted run, for every [k]. *)

type t

type restore_error =
  | Fingerprint_mismatch of { snapshot : string; registry : string }
      (** The snapshot was taken against a structurally different
          registry — different properties, order, alphabet or compiled
          tables. Restoring would silently monitor the wrong thing, so
          it is refused. *)
  | Corrupt of string
      (** The blob failed decoding or validation: bad framing, forged
          counts, states outside a monitor's range, inconsistent
          counters, unreadable file. *)

val create : registry:Registry.t -> unit -> t
(** A fresh session over [registry]'s compiled monitors: empty interner,
    no traces, zero counters. *)

val registry : t -> Registry.t
val engine : t -> Engine.t
val ingest : t -> Ingest.t

val to_artifact : t -> string
(** Serialize the run state (never the registry) as one framed
    [sl-artifact/1] blob: fingerprint, interner table in first-seen
    order, engine counters, per-trace packed states. *)

val of_artifact : registry:Registry.t -> string -> (t, restore_error) result
(** Decode and validate a blob against [registry] into a fresh engine.
    Never raises: framing and validation failures (from
    hostile bytes through inconsistent trace state) come back as
    [Error (Corrupt _)]. *)

val save : t -> path:string -> unit
(** {!to_artifact} written atomically (temp file + rename in the
    destination directory), so a crash mid-write never leaves a torn
    snapshot at [path]. @raise Sys_error when the path is unwritable. *)

val load :
  registry:Registry.t -> path:string -> unit -> (t, restore_error) result
(** Read [path] and {!of_artifact} it; unreadable files come back as
    [Error (Corrupt _)] like any other bad blob. *)

val restore_error_to_string : restore_error -> string
(** Human-readable one-liner for CLI error reporting. *)
