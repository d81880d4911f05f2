(* Open-loop client for one fresh [slc serve] daemon.

     client SOCKET WORKLOAD SEED RATE SECONDS STATUS_MS LIMIT_MS OUT

   Connects to the daemon's Unix socket and waits for its [hello]. Then
   event [i] of WORKLOAD's stream for SEED falls due at t0 + i / RATE,
   for RATE x SECONDS events. Due events are queued on schedule whatever
   the daemon does; the queue drains through nonblocking writes on the
   one event connection. Every [trip] verdict is timed from the due time
   of the event it names, matched by (trace, position). Every STATUS_MS
   milliseconds a second, short-lived connection scrapes /status, timed
   from its due time too. Once the unsent queue holds more than LIMIT_MS
   of events the daemon is overloaded: the client stops generating, so
   an overloaded step ends early. After the last event the client
   half-closes, reads the end-of-stream records to EOF, and scrapes
   /metrics.

   Writes OUT.trips (trace, prop, position of each trip record, one per
   line), OUT.eof (the same for the end-of-stream violation records),
   OUT.metrics (the final /metrics body) and OUT.json: counts, latency
   percentiles over the step and per 0.25 s window of due time (windows
   with at least 1000 samples), scrape latencies, and how late the
   client itself ran. *)

let now = Unix.gettimeofday

(* Positions 1..cap of each trace are remembered as global event
   indices; a trip at a later position is checked but not timed. *)
let cap = 16

type tracks = { mutable cnt : int array; mutable idx : int array }

let tracks n = { cnt = Array.make n 0; idx = Array.make (n * cap) 0 }

let prefix_slot = function
  | "d" -> 0
  | "p" -> 1
  | "w" -> 2
  | "c" -> 3
  | p -> invalid_arg ("trace prefix " ^ p)

let note tr n i =
  if n >= Array.length tr.cnt then begin
    let m = max (2 * Array.length tr.cnt) (n + 1) in
    let c = Array.make m 0 in
    Array.blit tr.cnt 0 c 0 (Array.length tr.cnt);
    let x = Array.make (m * cap) 0 in
    Array.blit tr.idx 0 x 0 (Array.length tr.idx);
    tr.cnt <- c;
    tr.idx <- x
  end;
  let p = tr.cnt.(n) in
  if p < cap then tr.idx.((n * cap) + p) <- i;
  tr.cnt.(n) <- p + 1

(* Unsent output as a queue of 1 MiB blocks, so that a backlog grows
   without ever copying what is already queued. *)
type outq = {
  full : (Bytes.t * int) Queue.t;  (* filled blocks and their lengths *)
  mutable unsent : int;  (* bytes queued and not yet written *)
  mutable queued : int;  (* bytes ever queued *)
  mutable cur : Bytes.t;  (* block being filled *)
  mutable len : int;  (* bytes used in [cur] *)
  mutable off : int;  (* bytes of the head block already written *)
}

let block = 1 lsl 20
let outq () =
  { full = Queue.create (); unsent = 0; queued = 0; cur = Bytes.create block; len = 0; off = 0 }

let pending q = q.unsent > 0

let add_event q prefix n sym =
  if q.len + 32 > block then begin
    Queue.push (q.cur, q.len) q.full;
    q.cur <- Bytes.create block;
    q.len <- 0
  end;
  let put s =
    Bytes.blit_string s 0 q.cur q.len (String.length s);
    q.len <- q.len + String.length s;
    q.unsent <- q.unsent + String.length s;
    q.queued <- q.queued + String.length s
  in
  put prefix;
  put (string_of_int n);
  put (if sym = 0 then " 0\n" else " 1\n")

(* The next unsent slice: (block, offset, length). *)
let head q =
  match Queue.peek_opt q.full with
  | Some (b, n) -> (b, q.off, n - q.off)
  | None -> (q.cur, q.off, q.len - q.off)

let consumed q k =
  q.off <- q.off + k;
  q.unsent <- q.unsent - k;
  match Queue.peek_opt q.full with
  | Some (_, n) -> if q.off = n then begin ignore (Queue.pop q.full); q.off <- 0 end
  | None -> if q.off = q.len then begin q.off <- 0; q.len <- 0 end

(* Floats collected for percentiles. *)
type samples = { mutable v : float array; mutable n : int }

let samples () = { v = Array.make 4096 0.; n = 0 }

let push s x =
  if s.n = Array.length s.v then begin
    let v = Array.make (2 * s.n) 0. in
    Array.blit s.v 0 v 0 s.n;
    s.v <- v
  end;
  s.v.(s.n) <- x;
  s.n <- s.n + 1

(* Nearest-rank percentile of the first [n] values. *)
let pct a n q =
  if n = 0 then 0.
  else begin
    let s = Array.sub a 0 n in
    Array.sort compare s;
    s.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))
  end

(* Index of [pat] in [s] at or after [i], or -1; allocation-free. *)
let find_from s i pat =
  let pl = String.length pat and sl = String.length s in
  let rec at j k = k = pl || (String.unsafe_get s (j + k) = String.unsafe_get pat k && at j (k + 1)) in
  let rec go j = if j + pl > sl then -1 else if at j 0 then j else go (j + 1) in
  go i

let digits_end s j =
  let j = ref j in
  while !j < String.length s && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
  !j

(* Record lines are scanned for the few fields the client needs rather
   than parsed whole: at tens of thousands of records a second, a full
   parse would cost the client the CPU it shares with the daemon. *)

(* The string value of ["key": "..."] in a record line, if present. *)
let str_field line key =
  let pat = "\"" ^ key ^ "\": \"" in
  match find_from line 0 pat with
  | -1 -> None
  | i -> (
      let v = i + String.length pat in
      match String.index_from_opt line v '"' with
      | Some j -> Some (String.sub line v (j - v))
      | None -> None)

let int_field line key =
  let pat = "\"" ^ key ^ "\": " in
  match find_from line 0 pat with
  | -1 -> None
  | i ->
      let v = i + String.length pat in
      int_of_string_opt (String.sub line v (digits_end line v - v))

let starts_with s p =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

(* The body of a complete HTTP/1.0 200 response, else None. *)
let http_body r =
  if starts_with r "HTTP/1.0 200" then
    match find_from r 0 "\r\n\r\n" with
    | -1 -> None
    | k -> Some (String.sub r (k + 4) (String.length r - k - 4))
  else None

(* Blocking one-shot GET; the body on a 200, else None. *)
let http_get path route =
  match connect path with
  | None -> None
  | Some fd ->
      let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" route in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 65536 and b = Bytes.create 65536 in
      let rec go () =
        match Unix.read fd b 0 65536 with
        | 0 -> ()
        | k -> Buffer.add_subbytes buf b 0 k; go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      in
      (try go () with Unix.Unix_error _ -> ());
      Unix.close fd;
      http_body (Buffer.contents buf)

let () =
  let sock, workload, seed, rate, seconds, status_ms, limit_ms, out =
    match Sys.argv with
    | [| _; s; w; seed; r; d; st; l; o |] ->
        (s, w, int_of_string seed, float_of_string r, float_of_string d,
         float_of_string st, float_of_string l, o)
    | _ ->
        prerr_endline
          "usage: client SOCKET WORKLOAD SEED RATE SECONDS STATUS_MS LIMIT_MS OUT";
        exit 2
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let total = ref (int_of_float (rate *. seconds)) in
  let st = Streams.stream workload ~seed in
  (* 1. connect (the daemon may still be starting) and await hello *)
  let t_start = now () in
  let rec wait_connect () =
    match connect sock with
    | Some fd -> fd
    | None ->
        if now () -. t_start > 60. then begin
          prerr_endline "client: cannot connect";
          exit 3
        end;
        Unix.sleepf 0.001;
        wait_connect ()
  in
  let fd = wait_connect () in
  let greeting = "# perfbench\n" in
  ignore (Unix.write_substring fd greeting 0 (String.length greeting));
  let rbuf = Bytes.create 65536 in
  let carry = Buffer.create 256 in
  let t_hello = ref 0. in
  let t0 = ref infinity in
  let lat = samples () and lat_at = samples () in
  (* per-window percentiles: windows of [window] s of due time *)
  let window = 0.25 and window_min = 1000 in
  let trk = ref [||] in
  let trips_oc = open_out (out ^ ".trips") in
  let eof_oc = open_out (out ^ ".eof") in
  let summary_events = ref (-1) in
  let trip_records = ref 0 and error_records = ref 0 in
  let record_bytes = ref 0 and t_summary = ref 0. in
  let on_line line t =
    if starts_with line "{\"type\": \"verdict\"" then begin
      match str_field line "cause" with
      | Some "trip" -> (
          record_bytes := !record_bytes + String.length line + 1;
          incr trip_records;
          match (str_field line "trace", str_field line "prop",
                 int_field line "position") with
          | Some tr, Some prop, Some pos ->
              Printf.fprintf trips_oc "%s\t%s\t%d\n" tr prop pos;
              let slot = prefix_slot (String.sub tr 0 1) in
              let n = int_of_string (String.sub tr 1 (String.length tr - 1)) in
              let tk = !trk.(slot) in
              if pos >= 1 && pos <= cap && n < Array.length tk.cnt
                 && tk.cnt.(n) >= pos
              then begin
                let i = tk.idx.((n * cap) + pos - 1) in
                let due = !t0 +. (float_of_int i /. rate) in
                push lat ((t -. due) *. 1000.);
                push lat_at due
              end
          | _ -> incr error_records)
      | Some "eof" -> (
          match (str_field line "trace", str_field line "prop",
                 int_field line "position") with
          | Some tr, Some prop, Some pos ->
              Printf.fprintf eof_oc "%s\t%s\t%d\n" tr prop pos
          | _ -> ())
      | _ -> record_bytes := !record_bytes + String.length line + 1
    end
    else if starts_with line "{\"type\": \"hello\"" then t_hello := t
    else if starts_with line "{\"type\": \"summary\"" then begin
      t_summary := t;
      summary_events := Option.value ~default:(-1) (int_field line "conn_events")
    end
    else begin
      incr error_records;
      record_bytes := !record_bytes + String.length line + 1
    end
  in
  let read_records () =
    match Unix.read fd rbuf 0 65536 with
    | 0 -> `Eof
    | k ->
        let t = now () in
        let s = Bytes.sub_string rbuf 0 k in
        let i = ref 0 in
        while !i < k do
          match String.index_from_opt s !i '\n' with
          | Some j ->
              Buffer.add_substring carry s !i (j - !i);
              on_line (Buffer.contents carry) t;
              Buffer.clear carry;
              i := j + 1
          | None ->
              Buffer.add_substring carry s !i (k - !i);
              i := k
        done;
        `Data
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> `Again
    | exception Unix.Unix_error _ -> `Eof
  in
  while !t_hello = 0. do
    if read_records () = `Eof then begin
      prerr_endline "client: connection closed before hello";
      exit 3
    end
  done;
  Unix.set_nonblock fd;
  (* sized up front from the stream's shape: regrowing a large table
     mid-run would stall the open loop *)
  trk :=
    Array.map tracks
      [| Streams.deep_traces; (!total / Streams.deep_probe_every) + 1024;
         Streams.wide_ids; (!total / Streams.churn_min_len) + Streams.churn_slots |];
  (* 2. open loop *)
  t0 := now () +. 0.002;
  let q = outq () in
  let i = ref 0 and late_max = ref 0. and t_last_write = ref !t0 in
  let shut = ref false and eof = ref false in
  let failures = ref 0 in
  let st_lat = samples () in
  let pending_max = ref 0 and stalled = ref 0 and scrapes = ref 0 in
  let next_scrape = ref (!t0 +. (status_ms /. 1000.)) in
  (* in-flight scrape: fd, due time, response so far *)
  let scrape = ref None in
  let sbuf = Bytes.create 65536 in
  let finish_scrape (sfd, due, buf) ok =
    (try Unix.close sfd with Unix.Unix_error _ -> ());
    scrape := None;
    let module J = Sl_serve.Jsonv in
    let conns =
      match http_body (Buffer.contents buf) with
      | Some body when ok -> (
          match J.parse body with
          | Ok v -> Option.bind (J.member "connections" v) J.arr
          | Error _ -> None)
      | _ -> None
    in
    match conns with
    | Some conns ->
        incr scrapes;
        push st_lat ((now () -. due) *. 1000.);
        List.iter
          (fun c ->
            let field k f = Option.bind (J.member k c) f in
            Option.iter
              (fun v -> if v > !pending_max then pending_max := v)
              (field "pending_out" J.int_);
            if field "stalled" J.bool_ = Some true then incr stalled)
          conns
    | None -> incr failures
  in
  while not !eof do
    let t = now () in
    if !i < !total && t >= !t0 then begin
      let target = min !total (int_of_float ((t -. !t0) *. rate) + 1) in
      if target > !i then begin
        let late = t -. (!t0 +. (float_of_int !i /. rate)) in
        if late > !late_max then late_max := late;
        while !i < target do
          let prefix, n, sym = Streams.next st in
          note !trk.(prefix_slot prefix) n !i;
          add_event q prefix n sym;
          incr i
        done;
        (* more than LIMIT_MS of events queued: overloaded, end the step *)
        let per_event = float_of_int q.queued /. float_of_int !i in
        if float_of_int q.unsent > rate *. limit_ms /. 1000. *. per_event
           && q.unsent > 65536
        then total := !i
      end
    end;
    (* drain the queue as far as the socket takes it *)
    let rec pump () =
      if pending q then
        let b, off, len = head q in
        match Unix.write fd b off len with
        | k ->
            consumed q k;
            t_last_write := now ();
            pump ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
        | exception Unix.Unix_error _ -> incr failures; eof := true
    in
    pump ();
    if !i = !total && (not (pending q)) && not !shut then begin
      shut := true;
      Unix.shutdown fd Unix.SHUTDOWN_SEND
    end;
    if !scrape = None && (not !shut) && t >= !next_scrape then begin
      (match connect sock with
      | Some sfd ->
          let req = "GET /status HTTP/1.0\r\n\r\n" in
          ignore (Unix.write_substring sfd req 0 (String.length req));
          Unix.set_nonblock sfd;
          scrape := Some (sfd, !next_scrape, Buffer.create 4096)
      | None -> incr failures);
      next_scrape := !next_scrape +. (status_ms /. 1000.)
    end;
    let rfds = fd :: (match !scrape with Some (s, _, _) -> [ s ] | None -> []) in
    let wfds = if pending q then [ fd ] else [] in
    let timeout =
      if !i < !total then
        max 0.0005 (min 0.002 (!t0 +. (float_of_int !i /. rate) -. now ()))
      else 0.05
    in
    match Unix.select rfds wfds [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | r, _, _ ->
        if List.mem fd r then begin
          let rec drain k =
            match read_records () with
            | `Eof -> eof := true
            | `Data when k > 1 -> drain (k - 1)
            | _ -> ()
          in
          drain 8
        end;
        (match !scrape with
        | Some ((sfd, _, buf) as sc) when List.mem sfd r -> (
            match Unix.read sfd sbuf 0 65536 with
            | 0 -> finish_scrape sc true
            | k -> Buffer.add_subbytes buf sbuf 0 k
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ()
            | exception Unix.Unix_error _ -> finish_scrape sc false)
        | _ -> ())
  done;
  (match !scrape with Some sc -> finish_scrape sc false | None -> ());
  close_out trips_oc;
  close_out eof_oc;
  Unix.close fd;
  (* 3. end-of-run metrics *)
  (match http_get sock "/metrics" with
  | Some body ->
      let oc = open_out (out ^ ".metrics") in
      output_string oc body;
      close_out oc
  | None -> incr failures);
  let nwin = int_of_float (seconds /. window) + 1 in
  let per = Array.make nwin [] in
  for k = lat.n - 1 downto 0 do
    let w = int_of_float ((lat_at.v.(k) -. !t0) /. window) in
    if w >= 0 && w < nwin then per.(w) <- lat.v.(k) :: per.(w)
  done;
  let wins =
    List.filter_map
      (fun l ->
        let a = Array.of_list l in
        let n = Array.length a in
        if n >= window_min then Some (pct a n 0.5, pct a n 0.99) else None)
      (Array.to_list per)
  in
  let floats l =
    "[" ^ String.concat ", " (List.map (Printf.sprintf "%.17g") l) ^ "]"
  in
  let fields =
    [ ("events", float_of_int !total);
      ("sent_s", !t_last_write -. !t0);
      ("hello_at", !t_hello);
      ("samples", float_of_int lat.n);
      ("p50_ms", pct lat.v lat.n 0.5);
      ("p99_ms", pct lat.v lat.n 0.99);
      ("trip_records", float_of_int !trip_records);
      ("error_records", float_of_int !error_records);
      ("record_bytes", float_of_int !record_bytes);
      ("summary_events", float_of_int !summary_events);
      ("write_lag_ms",
        (!t_last_write -. (!t0 +. (float_of_int (!total - 1) /. rate))) *. 1000.);
      ("failures", float_of_int !failures);
      ("late_max_ms", !late_max *. 1000.);
      ("scrapes", float_of_int !scrapes);
      ("status_p50_ms", pct st_lat.v st_lat.n 0.5);
      ("status_p90_ms", pct st_lat.v st_lat.n 0.9);
      ("pending_out_max", float_of_int !pending_max);
      ("stalled", float_of_int !stalled) ]
  in
  let arrays =
    [ ("window_p50_ms", floats (List.map fst wins));
      ("window_p99_ms", floats (List.map snd wins));
      ("status_ms", floats (Array.to_list (Array.sub st_lat.v 0 st_lat.n))) ]
  in
  let oc = open_out (out ^ ".json") in
  Printf.fprintf oc "{%s}\n"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %.17g" k v) fields
       @ List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) arrays));
  close_out oc
