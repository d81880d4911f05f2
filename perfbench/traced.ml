(* The traced offline run: [slc monitor --props P --trace T [--json]]
   rebuilt from the library's public calls, in the binary's order, with
   a span around each call into a layer.

     traced PROPS TRACE text|json SPANS

   The report goes to stdout exactly as the binary prints it (the
   benchmark diffs the two). Spans stay in memory and are written to
   SPANS at the end as JSON lines, followed by one summary line with
   per-layer self times, counts, GC figures and workload properties. *)

open Sl_runtime

let now = Unix.gettimeofday

(* Spans: name, parent index (-1 for a root), start, stop. *)
let names = ref [||]
let parents = ref [||]
let starts = ref [||]
let stops = ref [||]
let nspans = ref 0
let open_span = ref (-1)

let grow a x =
  if !nspans = Array.length !a then begin
    let b = Array.make (max 64 (2 * !nspans)) x in
    Array.blit !a 0 b 0 !nspans;
    a := b
  end

let span name f =
  grow names "";
  grow parents 0;
  grow starts 0.;
  grow stops 0.;
  let i = !nspans in
  incr nspans;
  !names.(i) <- name;
  !parents.(i) <- !open_span;
  open_span := i;
  !starts.(i) <- now ();
  let finish () =
    !stops.(i) <- now ();
    open_span := !parents.(i)
  in
  match f () with
  | v -> finish (); v
  | exception e -> finish (); raise e

let self_times () =
  let self = Array.init !nspans (fun i -> !stops.(i) -. !starts.(i)) in
  for i = 0 to !nspans - 1 do
    let p = !parents.(i) in
    if p >= 0 then self.(p) <- self.(p) -. (!stops.(i) -. !starts.(i))
  done;
  let tbl = Hashtbl.create 8 in
  Array.iteri
    (fun i s ->
      let n = !names.(i) in
      Hashtbl.replace tbl n (s +. Option.value ~default:0. (Hashtbl.find_opt tbl n)))
    self;
  tbl

let () =
  let props_file, trace_file, json, spans_file =
    match Sys.argv with
    | [| _; p; t; mode; s |] -> (p, t, mode = "json", s)
    | _ ->
        prerr_endline "usage: traced PROPS TRACE text|json SPANS";
        exit 2
  in
  let t_begin = now () in
  let registry = Registry.create ~alphabet:2 () in
  let prop_errors =
    span "registry.compile" (fun () ->
        let ic = open_in props_file in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> Registry.load_channel registry ~path:props_file ic))
  in
  List.iter prerr_endline prop_errors;
  let session = span "engine.create" (fun () -> Session.create ~registry ()) in
  let engine = Session.engine session in
  let ingest = Session.ingest session in
  (* Census for the live-step share: the last retirement position of
     each trace. Retirements are at most traces x monitors, off the
     per-event path. *)
  let last_retire = ref (Array.make 1024 0) in
  Engine.set_retire_hook engine
    (Some
       (fun ~trace ~monitor:_ ~position ~tripped:_ ->
         if trace >= Array.length !last_retire then begin
           let b = Array.make (2 * (trace + 1)) 0 in
           Array.blit !last_retire 0 b 0 (Array.length !last_retire);
           last_retire := b
         end;
         if position > !last_retire.(trace) then !last_retire.(trace) <- position));
  let trace_errors = ref 0 in
  let ic = open_in trace_file in
  let t0 = Sys.time () in
  span "ingest.scan" (fun () ->
      Ingest.scan_channel ~alphabet:2 ingest ic
        ~on_chunk:(fun c ->
          span "engine.feed" (fun () ->
              Engine.feed engine ~n:c.Ingest.len ~traces:c.Ingest.trace_ids
                ~symbols:c.Ingest.symbols ()))
        ~on_error:(fun e ->
          incr trace_errors;
          Format.eprintf "%s: %s (line skipped)@." trace_file
            (Ingest.error_to_string e)));
  close_in_noerr ic;
  let elapsed_s = Sys.time () -. t0 in
  let report =
    span "verdict.build" (fun () -> Verdict.of_session ~elapsed_s session ())
  in
  let rendered =
    span "verdict.render" (fun () ->
        if json then Verdict.to_json report
        else Format.asprintf "%a" Verdict.pp_text report)
  in
  span "output.write" (fun () ->
      print_string rendered;
      flush stdout);
  let t_end = now () in
  (* Everything below is bookkeeping outside the traced wall. *)
  let gc = Gc.quick_stat () in
  let events = Engine.events engine in
  let ntraces = Engine.ntraces engine in
  let stepped = ref 0 in
  for tr = 0 to ntraces - 1 do
    match Engine.trace_summary engine tr with
    | Some (ev, live, _) ->
        stepped :=
          !stepped
          + (if live > 0 then ev
             else if tr < Array.length !last_retire then !last_retire.(tr)
             else 0)
    | None -> ()
  done;
  let self = self_times () in
  let get n = Option.value ~default:0. (Hashtbl.find_opt self n) in
  let covered = Hashtbl.fold (fun _ s acc -> acc +. s) self 0. in
  let wall = t_end -. t_begin in
  let feed_s = get "engine.feed" in
  let stats = Registry.stats registry in
  let oc = open_out spans_file in
  for i = 0 to !nspans - 1 do
    Printf.fprintf oc
      "{\"name\": \"%s\", \"parent\": %d, \"start_s\": %.6f, \"dur_s\": %.6f}\n"
      !names.(i) !parents.(i) (!starts.(i) -. t_begin)
      (!stops.(i) -. !starts.(i))
  done;
  let fields =
    [ ("wall_s", wall); ("coverage", covered /. wall);
      ("registry.compile_s", get "registry.compile");
      ("engine.create_s", get "engine.create");
      ("ingest.scan_s", get "ingest.scan");
      ("engine.feed_s", feed_s);
      ("verdict.build_s", get "verdict.build");
      ("verdict.render_s", get "verdict.render");
      ("output.write_s", get "output.write");
      ("engine.ns_per_event",
        if events > 0 then feed_s *. 1e9 /. float_of_int events else 0.);
      ("registry.monitors", float_of_int stats.Registry.distinct_monitors);
      ("registry.hashcons_hits", float_of_int stats.Registry.hashcons_hits);
      ("ingest.traces", float_of_int (Ingest.ntraces ingest));
      ("engine.live_end", float_of_int (Engine.live engine));
      ("engine.tripped", float_of_int (Engine.tripped engine));
      ("verdict.bytes", float_of_int (String.length rendered));
      ("gc.heap_peak_mb",
        float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
      ("gc.major_collections", float_of_int gc.Gc.major_collections);
      ("events", float_of_int events);
      ("live_step_share",
        if events > 0 then float_of_int !stepped /. float_of_int events else 0.);
      ("trips", float_of_int report.Verdict.counters.Verdict.violations) ]
  in
  Printf.fprintf oc "{\"summary\": {%s}}\n"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %.17g" k v) fields));
  close_out oc;
  exit
    (if prop_errors <> [] || !trace_errors > 0 then 2
     else if report.Verdict.counters.Verdict.violations > 0 then 1
     else 0)
