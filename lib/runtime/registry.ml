module Formula = Sl_ltl.Formula
module Translate = Sl_ltl.Translate
module Obs = Sl_obs.Obs

(* Registry telemetry (recorded only while Sl_obs is enabled): property
   compilations, hash-cons effectiveness, and per-property compile
   latency. Counters aggregate across all registries of the process. *)
let m_props = Obs.Metrics.counter "registry_props_total"
let m_monitors = Obs.Metrics.counter "registry_monitors_total"
let m_hashcons_hits = Obs.Metrics.counter "registry_hashcons_hits_total"
let h_compile_ns = Obs.Metrics.histogram "registry_compile_ns"

type prop = {
  id : int;
  name : string;
  formula : Formula.t option;
  monitor : int;
}

(* Declared before [t] so [t]'s own [props] field wins record-label
   disambiguation below. *)
type stats = {
  props : int;
  distinct_monitors : int;
  hashcons_hits : int;
}

type t = {
  alphabet : int;
  valuation : int -> string -> bool;
  cache : Cache.t option;
  mutable props : prop array;
  mutable nprops : int;
  mutable monitors : Packed_dfa.t array;
  mutable nmonitors : int;
  keys : (string, int) Hashtbl.t;
  mutable hits : int;
}

let default_valuation symbol p = String.equal p "a" && symbol = 0

let create ?(alphabet = 2) ?(valuation = default_valuation) ?cache () =
  if alphabet <= 0 then invalid_arg "Registry.create: alphabet must be > 0";
  let cache = match cache with Some _ as c -> c | None -> Cache.default () in
  { alphabet; valuation; cache; props = [||]; nprops = 0; monitors = [||];
    nmonitors = 0; keys = Hashtbl.create 64; hits = 0 }

let alphabet t = t.alphabet
let nprops t = t.nprops
let nmonitors t = t.nmonitors
let hits t = t.hits

let stats t =
  { props = t.nprops; distinct_monitors = t.nmonitors; hashcons_hits = t.hits }

(* The registry's structural identity, for snapshot compatibility: a
   session saved against one registry may only be restored against a
   registry with the same alphabet, the same properties in the same
   order, mapped to monitors with the same canonical BFS keys. The
   compile path (cold, cached, any [jobs]) is deterministic in all of
   these, so a cache-recompiled registry fingerprints identically.
   Fields are length-prefixed so no concatenation of distinct
   registries can collide textually. *)
let fingerprint t =
  let b = Buffer.create 256 in
  let field s =
    Buffer.add_string b (string_of_int (String.length s));
    Buffer.add_char b ':';
    Buffer.add_string b s
  in
  field "slc-registry/1";
  field (string_of_int t.alphabet);
  field (string_of_int t.nprops);
  for i = 0 to t.nprops - 1 do
    field t.props.(i).name;
    field (string_of_int t.props.(i).monitor)
  done;
  field (string_of_int t.nmonitors);
  for m = 0 to t.nmonitors - 1 do
    field (Packed_dfa.key t.monitors.(m))
  done;
  Sl_core.Wire.fnv64_hex (Buffer.contents b)
let prop t i = t.props.(i)
let monitor_of_prop t i = t.props.(i).monitor
let monitors t = Array.sub t.monitors 0 t.nmonitors
let props t = Array.to_list (Array.sub t.props 0 t.nprops)

let push_prop t p =
  if t.nprops = Array.length t.props then begin
    let cap = max 8 (2 * t.nprops) in
    let a = Array.make cap p in
    Array.blit t.props 0 a 0 t.nprops;
    t.props <- a
  end;
  t.props.(t.nprops) <- p;
  t.nprops <- t.nprops + 1

let intern_monitor t pd =
  match Hashtbl.find_opt t.keys (Packed_dfa.key pd) with
  | Some id ->
      t.hits <- t.hits + 1;
      Obs.Metrics.incr m_hashcons_hits;
      id
  | None ->
      Obs.Metrics.incr m_monitors;
      if t.nmonitors = Array.length t.monitors then begin
        let cap = max 8 (2 * t.nmonitors) in
        let a = Array.make cap pd in
        Array.blit t.monitors 0 a 0 t.nmonitors;
        t.monitors <- a
      end;
      let id = t.nmonitors in
      t.monitors.(id) <- pd;
      t.nmonitors <- id + 1;
      Hashtbl.add t.keys (Packed_dfa.key pd) id;
      id

(* The translate/decompose/minimize/pack pipeline for one formula, with
   the warm-start cache (when the registry has one) probed first: a hit
   skips the whole pipeline for a decode that is field-for-field the
   same monitor, a miss compiles and then publishes the artifact. Pure
   up to cache I/O and process-wide cache counters, so [compile_all]
   can run it on pool worker domains — stores are atomic-rename, so
   racing workers at worst publish identical bytes twice. *)
let pack_formula t f () =
  let fresh () =
    Packed_dfa.of_buchi
      (Translate.translate ~alphabet:t.alphabet ~valuation:t.valuation f)
  in
  match t.cache with
  | None -> fresh ()
  | Some c -> (
      let key = Cache.probe_key ~alphabet:t.alphabet ~valuation:t.valuation f in
      match Cache.find c ~key with
      | Some pd -> pd
      | None ->
          let pd = fresh () in
          Cache.store c ~key pd;
          pd)

(* Compile one property under a [registry.compile] span, recording the
   compile latency and whether the packed table was a hash-cons hit. *)
let compile_prop t ~name ~formula ~pack =
  let sp = Obs.Span.enter "registry.compile" in
  let t0 = if Obs.is_enabled () then Obs.Clock.now_us () else 0. in
  match
    let pd = pack () in
    let hits0 = t.hits in
    let monitor = intern_monitor t pd in
    (pd, monitor, t.hits > hits0)
  with
  | exception e ->
      Obs.Span.exit sp;
      raise e
  | pd, monitor, hit ->
      if Obs.is_enabled () then begin
        Obs.Metrics.observe h_compile_ns
          (int_of_float ((Obs.Clock.now_us () -. t0) *. 1e3));
        Obs.Span.attr sp "monitor" monitor;
        Obs.Span.attr sp "states" pd.Packed_dfa.nstates;
        Obs.Span.attr sp "hashcons_hit" (if hit then 1 else 0)
      end;
      Obs.Metrics.incr m_props;
      Obs.Span.exit sp;
      let id = t.nprops in
      push_prop t { id; name; formula; monitor };
      id

let add_buchi t ~name b =
  (* Automaton-sourced properties have no source identity to key a
     cache probe on, so they always compile. *)
  compile_prop t ~name ~formula:None ~pack:(fun () -> Packed_dfa.of_buchi b)

let add_formula t ?name f =
  let name = match name with Some n -> n | None -> Formula.to_string f in
  compile_prop t ~name ~formula:(Some f) ~pack:(pack_formula t f)

(* Batch compilation. The expensive per-property phase —
   translate/decompose/minimize/pack, all pure — fans out across a
   domain pool; the merge phase then hash-conses the packed tables and
   assigns property/monitor ids sequentially in input order, so the
   registry's structure (prop ids, monitor ids, hit counts, keys) is
   byte-identical at every [jobs]. With [jobs = 1] each property goes
   through the exact same [compile_prop] path as [add_formula]. *)
let compile_all ?jobs ?(threshold = 4) t named =
  let pool = Sl_core.Pool.create ?jobs () in
  let name_of name f =
    match name with Some n -> n | None -> Formula.to_string f
  in
  (* Work-size cutoff: compiling a property costs milliseconds, so a
     batch has to be at least a handful of properties before splitting
     it beats the ~100µs-per-domain spawn. Below [threshold] (or on a
     one-domain pool) each property takes the exact [add_formula]
     path. *)
  if Sl_core.Pool.jobs pool = 1 || List.length named < threshold then
    List.map (fun (name, f) -> add_formula t ?name f) named
  else begin
    let arr = Array.of_list named in
    let n = Array.length arr in
    let packed = Array.make n None in
    let sp = Obs.Span.enter "registry.compile_all" in
    match
      Sl_core.Pool.parallel_for pool ~n (fun i ->
          let _, f = arr.(i) in
          let t0 = if Obs.is_enabled () then Obs.Clock.now_us () else 0. in
          let pd = pack_formula t f () in
          let dt_ns =
            if Obs.is_enabled () then
              int_of_float ((Obs.Clock.now_us () -. t0) *. 1e3)
            else 0
          in
          packed.(i) <- Some (pd, dt_ns))
    with
    | exception e ->
        Obs.Span.exit sp;
        raise e
    | () ->
        let ids =
          Array.to_list
            (Array.mapi
               (fun i (name, f) ->
                 let pd, dt_ns =
                   match packed.(i) with Some r -> r | None -> assert false
                 in
                 let monitor = intern_monitor t pd in
                 Obs.Metrics.observe h_compile_ns dt_ns;
                 Obs.Metrics.incr m_props;
                 let id = t.nprops in
                 push_prop t
                   { id; name = name_of name f; formula = Some f; monitor };
                 id)
               arr)
        in
        Obs.Span.attr sp "props" n;
        Obs.Span.attr sp "distinct_monitors" t.nmonitors;
        Obs.Span.exit sp;
        ids
  end

(* Property-file loading. One LTL formula per line; blank lines and
   '#'-comments are skipped. A malformed line is reported with its
   file/line position and skipped — one bad property must not abort the
   whole monitoring run (the CLI turns a non-empty error list into a
   nonzero exit code). *)
let load_lines t ?(path = "<props>") lines =
  let errors = ref [] in
  let items = ref [] in
  List.iteri
    (fun i raw ->
      let s = String.trim raw in
      if String.length s > 0 && s.[0] <> '#' then
        match Formula.parse s with
        | Ok f -> items := (Some s, f) :: !items
        | Error e ->
            errors :=
              Printf.sprintf "%s:%d: parse error: %s (line skipped)" path
                (i + 1) e
              :: !errors)
    lines;
  ignore (compile_all t (List.rev !items));
  List.rev !errors

let load_channel t ?path ic =
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  load_lines t ?path (List.rev !lines)
