(** The daemon event loop: a single-threaded [Unix.select] reactor.

    One process, one {!Daemon} (so one engine, stepping on the loop's
    own domain), many connections. The loop owns all syscalls and signals;
    protocol logic lives in {!Conn}, monitoring in {!Daemon}.

    Per round: commit any pending SIGHUP reload (between rounds every
    connection's chunk is flushed, so no event straddles the registry
    swap), then select readable listeners plus connections that
    {!Conn.wants_read} (back-pressured connections are simply not
    selected — the kernel socket buffer and the client's TCP window
    absorb the stall) and writable connections with pending output.
    Reads are capped per round; writes pump until [EAGAIN]. Connections
    report EOF/reset to {!Conn.on_eof} and close once drained.

    SIGTERM/SIGINT initiate graceful shutdown: stop accepting, write the
    [--snapshot] session artifact (if configured), close everything,
    exit 0 — restarting with [--resume] on that artifact continues the
    run byte-identically. *)

type config = {
  props_file : string;
  unix_socket : string option;
  tcp_port : int option;  (** bound on loopback *)
  snapshot : string option;  (** written on graceful shutdown *)
  resume : string option;  (** session artifact to restore at startup *)
  max_line : int;
  hwm : int;
  quiet : bool;  (** suppress the per-lifecycle stderr notes *)
}

val default_config : props_file:string -> config
(** No listeners configured (callers set at least one), default
    buffer bounds, no snapshot/resume. *)

val run : config -> int
(** Run until SIGTERM/SIGINT. Returns the process exit code: [0] after
    a graceful shutdown (including a clean snapshot write), [2] on
    startup errors (bad property file, unbindable socket, failed
    resume) or a failed shutdown snapshot. Never exits on connection
    errors — a hostile or vanished client only loses its own
    connection. *)
