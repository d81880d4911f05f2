open Sl_runtime
module Obs = Sl_obs.Obs

type config = {
  props_file : string;
  unix_socket : string option;
  tcp_port : int option;
  snapshot : string option;
  resume : string option;
  max_line : int;
  hwm : int;
  quiet : bool;
}

let default_config ~props_file =
  {
    props_file;
    unix_socket = None;
    tcp_port = None;
    snapshot = None;
    resume = None;
    max_line = 65536;
    hwm = 262144;
    quiet = false;
  }

(* Metrics (registered eagerly; recording is Obs-gated as usual). *)
let m_conns_total = Obs.Metrics.counter "serve_connections_total"
let m_conns = Obs.Metrics.gauge "serve_connections"
let m_bytes_in = Obs.Metrics.counter "serve_bytes_in_total"
let m_bytes_out = Obs.Metrics.counter "serve_bytes_out_total"
let m_stalled = Obs.Metrics.gauge "serve_backpressure_stalled"
let m_reloads = Obs.Metrics.counter "serve_reloads_total"
let m_reload_failures = Obs.Metrics.counter "serve_reload_failures_total"
let m_conn_errors = Obs.Metrics.counter "serve_line_errors_total"

(* Pipeline-stage timing: one observation per write pump (a connection
   draining its queue to the socket), the last stage of the serving
   pipeline. *)
let h_stage_write =
  Obs.Metrics.histogram
    ~help:"Pipeline stage: socket write pump latency per round"
    "stage_socket_write_ns"

(* Signal flags: handlers only flip refs; the loop acts between
   rounds. *)
let hup = ref false
let term = ref false

let install_signals () =
  Sys.set_signal Sys.sighup (Sys.Signal_handle (fun _ -> hup := true));
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> term := true));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> term := true));
  (* a vanished client must surface as EPIPE on its own write, never
     kill the process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let note cfg fmt =
  if cfg.quiet then Printf.ifprintf stderr fmt
  else Printf.fprintf stderr fmt

let build_registry cfg =
  let registry = Registry.create () in
  let ic =
    if cfg.props_file = "-" then stdin
    else
      try open_in cfg.props_file
      with Sys_error msg -> prerr_endline ("slc serve: " ^ msg); exit 2
  in
  let errs =
    Fun.protect
      ~finally:(fun () -> if ic != stdin then close_in_noerr ic)
      (fun () -> Registry.load_channel registry ~path:cfg.props_file ic)
  in
  List.iter prerr_endline errs;
  if Registry.nprops registry = 0 then begin
    prerr_endline "slc serve: no well-formed properties; nothing to monitor";
    exit 2
  end;
  registry

let build_session cfg registry =
  match cfg.resume with
  | None -> Session.create ~registry ()
  | Some path -> (
      match Session.load ~registry ~path () with
      | Ok s ->
          note cfg "slc serve: resumed %s (%d traces, %d events)\n%!" path
            (Engine.ntraces (Session.engine s))
            (Engine.events (Session.engine s));
          s
      | Error e ->
          prerr_endline
            ("slc serve: --resume " ^ path ^ ": "
           ^ Session.restore_error_to_string e);
          exit 2)

let listen_unix path =
  if Sys.file_exists path then Unix.unlink path;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

let listen_tcp port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

type client = {
  fd : Unix.file_descr;
  conn : Conn.t;
  mutable dead : bool;  (* transport failed; close regardless of drain *)
}

let run cfg =
  (* The daemon exposes /metrics; a dark kernel would scrape as all
     zeros, so serving implies collection. *)
  Obs.enable ();
  let registry = build_registry cfg in
  let session = build_session cfg registry in
  let daemon = Daemon.make session in
  let introspect =
    Introspect.create ?resumed_from:cfg.resume ?snapshot_path:cfg.snapshot
      ~version:"1.0.0" daemon
  in
  let http = Introspect.handler introspect in
  install_signals ();
  hup := false;
  term := false;
  let listeners = ref [] in
  (match cfg.unix_socket with
  | Some path ->
      (try listeners := (listen_unix path, `Unix path) :: !listeners
       with Unix.Unix_error (e, _, _) ->
         prerr_endline
           (Printf.sprintf "slc serve: cannot bind %s: %s" path
              (Unix.error_message e));
         exit 2)
  | None -> ());
  (match cfg.tcp_port with
  | Some port ->
      (try listeners := (listen_tcp port, `Tcp port) :: !listeners
       with Unix.Unix_error (e, _, _) ->
         prerr_endline
           (Printf.sprintf "slc serve: cannot bind 127.0.0.1:%d: %s" port
              (Unix.error_message e));
         exit 2)
  | None -> ());
  if !listeners = [] then begin
    prerr_endline "slc serve: no listener (need --socket and/or --port)";
    exit 2
  end;
  List.iter
    (fun (_, where) ->
      match where with
      | `Unix path -> note cfg "slc serve: listening on %s\n%!" path
      | `Tcp port -> note cfg "slc serve: listening on 127.0.0.1:%d\n%!" port)
    !listeners;
  let clients = ref [] in
  Introspect.set_conns introspect (fun () ->
      List.filter_map
        (fun cl ->
          if cl.dead then None
          else Some (Introspect.conn_info_of_conn cl.conn))
        !clients);
  let rbuf = Bytes.create 65536 in
  let accept_all lfd ~listener =
    let continue = ref true in
    while !continue do
      match Unix.accept ~cloexec:true lfd with
      | fd, _ ->
          Unix.set_nonblock fd;
          let conn =
            Conn.create ~max_line:cfg.max_line ~hwm:cfg.hwm ~listener ~http
              daemon
          in
          clients := { fd; conn; dead = false } :: !clients;
          Obs.Metrics.incr m_conns_total
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
          continue := false
      | exception Unix.Unix_error (EINTR, _, _) -> ()
    done
  in
  let read_client cl =
    match Unix.read cl.fd rbuf 0 (Bytes.length rbuf) with
    | 0 -> Conn.on_eof cl.conn
    | n ->
        Obs.Metrics.add m_bytes_in n;
        let errs0 = Conn.errors cl.conn in
        (* zero-copy: the connection scans [rbuf] in place and retains
           nothing, so the next read may reuse it *)
        Conn.on_bytes_raw cl.conn rbuf 0 n;
        Obs.Metrics.add m_conn_errors (Conn.errors cl.conn - errs0)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> cl.dead <- true
  in
  let write_client cl =
    let t0 =
      if Obs.is_enabled () && Conn.pending_output cl.conn > 0 then
        Obs.Clock.now_us ()
      else 0.
    in
    let continue = ref true in
    while !continue do
      match Conn.next_output cl.conn with
      | None -> continue := false
      | Some (s, off) -> (
          match Unix.write_substring cl.fd s off (String.length s - off) with
          | 0 -> continue := false
          | n ->
              Conn.consumed cl.conn n;
              Obs.Metrics.add m_bytes_out n
          | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
              continue := false
          | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
              cl.dead <- true;
              continue := false)
    done;
    if t0 > 0. then
      Obs.Metrics.observe h_stage_write
        (int_of_float ((Obs.Clock.now_us () -. t0) *. 1e3))
  in
  let do_reload () =
    match
      Reload.from_props_file ~old_session:(Daemon.session daemon)
        ~props_file:cfg.props_file ()
    with
    | Ok (s, carried, errs) ->
        List.iter prerr_endline errs;
        Daemon.swap_session daemon s;
        Obs.Metrics.incr m_reloads;
        Introspect.note_reload introspect ~ok:true
          ~detail:
            (Printf.sprintf "%d props, %d/%d monitors carried, fingerprint %s"
               (Registry.nprops (Daemon.registry daemon))
               carried
               (Registry.nmonitors (Daemon.registry daemon))
               (Daemon.fingerprint daemon));
        note cfg
          "slc serve: reloaded %s (%d props, %d/%d monitors carried, \
           fingerprint %s)\n\
           %!"
          cfg.props_file
          (Registry.nprops (Daemon.registry daemon))
          carried
          (Registry.nmonitors (Daemon.registry daemon))
          (Daemon.fingerprint daemon)
    | Error e ->
        Obs.Metrics.incr m_reload_failures;
        Introspect.note_reload introspect ~ok:false ~detail:e;
        note cfg "slc serve: reload refused: %s\n%!" e
  in
  while not !term do
    if !hup then begin
      hup := false;
      do_reload ()
    end;
    let rfds =
      List.map fst !listeners
      @ List.filter_map
          (fun cl ->
            if (not cl.dead) && Conn.wants_read cl.conn then Some cl.fd
            else None)
          !clients
    and wfds =
      List.filter_map
        (fun cl ->
          if (not cl.dead) && Conn.pending_output cl.conn > 0 then Some cl.fd
          else None)
        !clients
    in
    (match Unix.select rfds wfds [] 0.5 with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | readable, writable, _ ->
        List.iter
          (fun fd ->
            match List.assoc_opt fd !listeners with
            | Some (`Unix _) -> accept_all fd ~listener:"unix"
            | Some (`Tcp _) -> accept_all fd ~listener:"tcp"
            | None -> (
                match List.find_opt (fun cl -> cl.fd == fd) !clients with
                | Some cl -> read_client cl
                | None -> ()))
          readable;
        List.iter
          (fun fd ->
            match List.find_opt (fun cl -> cl.fd == fd) !clients with
            | Some cl -> write_client cl
            | None -> ())
          writable);
    let closing, alive =
      List.partition
        (fun cl -> cl.dead || Conn.should_close cl.conn)
        !clients
    in
    List.iter (fun cl -> try Unix.close cl.fd with Unix.Unix_error _ -> ())
      closing;
    clients := alive;
    Obs.Metrics.set m_conns (List.length alive);
    Obs.Metrics.set m_stalled
      (List.length
         (List.filter
            (fun cl ->
              (not cl.dead)
              && (not (Conn.wants_read cl.conn))
              && not (Conn.should_close cl.conn))
            alive))
  done;
  (* Graceful shutdown: stop accepting, snapshot, close. *)
  List.iter
    (fun (fd, where) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      match where with
      | `Unix path -> ( try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
      | `Tcp _ -> ())
    !listeners;
  List.iter
    (fun cl -> try Unix.close cl.fd with Unix.Unix_error _ -> ())
    !clients;
  match cfg.snapshot with
  | None -> 0
  | Some path -> (
      try
        Session.save (Daemon.session daemon) ~path;
        note cfg "slc serve: snapshot written to %s (%d traces, %d events)\n%!"
          path
          (Engine.ntraces (Daemon.engine daemon))
          (Engine.events (Daemon.engine daemon));
        0
      with Sys_error msg ->
        prerr_endline ("slc serve: snapshot failed: " ^ msg);
        2)
