(* Live introspection: the daemon's /status, /monitors, /traces and
   /healthz endpoints, answered on the same one-shot HTTP path as
   /metrics (Conn's [http] handler). JSON is hand-rolled like Records —
   no dependency, fixed field order (schema sl-status/1), strings
   escaped through Records.escape.

   Everything here is read-only over the daemon's live state: verdict
   counts come from Engine.monitor_counts / trace_summary (the trace
   table itself, not telemetry counters), so they match the offline
   report exactly, including after a --resume. *)

open Sl_runtime

let schema = "sl-status/1"

type conn_info = {
  ci_id : int;
  ci_listener : string;
  ci_mode : string;
  ci_lines : int;
  ci_events : int;
  ci_errors : int;
  ci_pending_out : int;
  ci_stalled : bool;
}

type reload_event = { re_at : float; re_ok : bool; re_detail : string }

let history_cap = 16
let traces_cap = 1000

type t = {
  daemon : Daemon.t;
  version : string;
  start_wall : float;
  resumed_from : string option;
  mutable snapshot_path : string option;
  mutable conns : unit -> conn_info list;
  mutable reloads : reload_event list;  (* newest first, capped *)
  mutable nreloads : int;
  mutable nreload_failures : int;
}

let create ?resumed_from ?snapshot_path ~version daemon =
  {
    daemon;
    version;
    start_wall = Unix.gettimeofday ();
    resumed_from;
    snapshot_path;
    conns = (fun () -> []);
    reloads = [];
    nreloads = 0;
    nreload_failures = 0;
  }

let conn_info_of_conn conn =
  {
    ci_id = Conn.id conn;
    ci_listener = Conn.listener conn;
    ci_mode = Conn.mode_name conn;
    ci_lines = Conn.lines conn;
    ci_events = Conn.events conn;
    ci_errors = Conn.errors conn;
    ci_pending_out = Conn.pending_output conn;
    ci_stalled = Conn.stalled conn;
  }

let set_conns t f = t.conns <- f

let note_reload t ~ok ~detail =
  if ok then t.nreloads <- t.nreloads + 1
  else t.nreload_failures <- t.nreload_failures + 1;
  let ev = { re_at = Unix.gettimeofday (); re_ok = ok; re_detail = detail } in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  t.reloads <- ev :: take (history_cap - 1) t.reloads

let uptime_s t = Unix.gettimeofday () -. t.start_wall

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let esc = Records.escape

let opt_str buf = function
  | None -> Buffer.add_string buf "null"
  | Some s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (esc s);
      Buffer.add_char buf '"'

let bool_str b = if b then "true" else "false"

let render_healthz t =
  Printf.sprintf
    "{\"schema\": \"%s\", \"type\": \"healthz\", \"status\": \"ok\", \
     \"uptime_s\": %.3f}\n"
    schema (uptime_s t)

let render_status t =
  let d = t.daemon in
  let eng = Daemon.engine d in
  let registry = Daemon.registry d in
  let buf = Buffer.create 1024 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "{\"schema\": \"%s\", \"type\": \"status\", \"version\": \"%s\", " schema
    (esc t.version);
  p "\"uptime_s\": %.3f, " (uptime_s t);
  p "\"fingerprint\": \"%s\", " (esc (Registry.fingerprint registry));
  p "\"props\": %d, \"monitors\": %d, \"jobs\": %d, "
    (Registry.nprops registry)
    (Registry.nmonitors registry)
    (Sl_core.Pool.default_jobs ());
  p "\"traces\": %d, \"events\": %d, \"live\": %d, \"tripped\": %d, \
     \"retired_admissible\": %d, "
    (Engine.ntraces eng) (Engine.events eng) (Engine.live eng)
    (Engine.tripped eng)
    (Engine.retired_admissible eng);
  (* connection table, id order *)
  let conns =
    List.sort (fun a b -> compare a.ci_id b.ci_id) (t.conns ())
  in
  p "\"connections\": [";
  List.iteri
    (fun i ci ->
      if i > 0 then p ", ";
      p
        "{\"id\": %d, \"listener\": \"%s\", \"mode\": \"%s\", \"lines\": %d, \
         \"events\": %d, \"errors\": %d, \"pending_out\": %d, \"stalled\": %s}"
        ci.ci_id (esc ci.ci_listener) (esc ci.ci_mode) ci.ci_lines ci.ci_events
        ci.ci_errors ci.ci_pending_out (bool_str ci.ci_stalled))
    conns;
  p "], ";
  p "\"reloads\": {\"count\": %d, \"failures\": %d, \"history\": [" t.nreloads
    t.nreload_failures;
  List.iteri
    (fun i ev ->
      if i > 0 then p ", ";
      p "{\"at\": %.3f, \"ok\": %s, \"detail\": \"%s\"}" ev.re_at
        (bool_str ev.re_ok) (esc ev.re_detail))
    (List.rev t.reloads);
  p "]}, ";
  p "\"resumed_from\": ";
  opt_str buf t.resumed_from;
  p ", \"snapshot_path\": ";
  opt_str buf t.snapshot_path;
  let hits = Cache.hit_count ()
  and misses = Cache.miss_count ()
  and stores = Cache.store_count () in
  let ratio =
    if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses)
  in
  p ", \"cache\": {\"hits\": %d, \"misses\": %d, \"stores\": %d, \
     \"hit_ratio\": %.4f}, "
    hits misses stores ratio;
  p "\"obs\": {\"enabled\": %s, \"spans_dropped\": %d}}\n"
    (bool_str (Sl_obs.Obs.is_enabled ()))
    (Sl_obs.Obs.Span.dropped ());
  Buffer.contents buf

let render_monitors t =
  let d = t.daemon in
  let eng = Daemon.engine d in
  let registry = Daemon.registry d in
  let monitors = Registry.monitors registry in
  let counts = Engine.monitor_counts eng in
  (* property names per distinct monitor, property-id order *)
  let props_of = Array.make (Array.length monitors) [] in
  List.iter
    (fun (pr : Registry.prop) ->
      props_of.(pr.monitor) <- pr.name :: props_of.(pr.monitor))
    (List.rev (Registry.props registry));
  let buf = Buffer.create 1024 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "{\"schema\": \"%s\", \"type\": \"monitors\", \"fingerprint\": \"%s\", \
     \"traces\": %d, \"monitors\": ["
    schema
    (esc (Registry.fingerprint registry))
    (Engine.ntraces eng);
  Array.iteri
    (fun i pd ->
      if i > 0 then p ", ";
      let c = counts.(i) in
      p "{\"index\": %d, \"key\": \"%s\", \"props\": [" i
        (Sl_core.Wire.fnv64_hex pd.Packed_dfa.key);
      List.iteri
        (fun j name ->
          if j > 0 then p ", ";
          p "\"%s\"" (esc name))
        props_of.(i);
      p "], \"vacuous\": %s, \"pre_tripped\": %s, \"live\": %d, \"tripped\": \
         %d, \"retired_admissible\": %d}"
        (bool_str pd.Packed_dfa.vacuous)
        (bool_str pd.Packed_dfa.pre_tripped)
        c.Engine.mc_live c.Engine.mc_tripped c.Engine.mc_retired)
    monitors;
  p "]}\n";
  Buffer.contents buf

let render_traces t =
  let d = t.daemon in
  let eng = Daemon.engine d in
  let ing = Daemon.ingest d in
  let total = Engine.ntraces eng in
  let shown = min total traces_cap in
  let buf = Buffer.create 1024 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "{\"schema\": \"%s\", \"type\": \"traces\", \"total\": %d, \
     \"truncated\": %s, \"traces\": ["
    schema total
    (bool_str (shown < total));
  let first = ref true in
  for id = 0 to shown - 1 do
    match Engine.trace_summary eng id with
    | None -> ()
    | Some (events, live, tripped) ->
        if not !first then p ", ";
        first := false;
        p "{\"id\": %d, \"name\": \"%s\", \"events\": %d, \"live\": %d, \
           \"tripped\": %d}"
          id
          (esc (Ingest.name ing id))
          events live tripped
  done;
  p "]}\n";
  Buffer.contents buf

let json body = Some ("200 OK", "application/json", body)

let handler t path =
  match path with
  | "/status" -> json (render_status t)
  | "/monitors" -> json (render_monitors t)
  | "/traces" -> json (render_traces t)
  | "/healthz" -> json (render_healthz t)
  | _ -> None
