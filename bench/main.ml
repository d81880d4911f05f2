(* Benchmark and reproduction harness.

   Usage:
     dune exec bench/main.exe              # all artifacts + all timings
     dune exec bench/main.exe ARTIFACT     # one artifact, no timings
     dune exec bench/main.exe bench        # timings only
     dune exec bench/main.exe bench json   # timings -> BENCH_PR10.json

   Artifacts (the paper's figures/tables, regenerated from scratch; see
   EXPERIMENTS.md for the mapping): fig1 fig2 rem ctl rabin
   lattice-theorems gumm

   The timing section reports one Bechamel series per experiment: the
   paper itself contains no performance numbers, so these series document
   the cost of each reproduction algorithm (closure, decomposition,
   complementation, translation, model checking) and of the two ablations
   called out in DESIGN.md §5. The PARALLEL group times the one
   Pool-parallelized path (registry compilation) at 1/2/4 domains on
   identical inputs;
   the CACHE group times the 100-property fleet compile cold (empty
   cache, every probe misses and stores) vs warm (prewarmed cache, every
   probe hits and deserializes); the SESSION group times snapshot
   write, restore, and resuming the stream from its midpoint snapshot
   vs replaying it cold; the SERVE group times the daemon's connection
   path (parse + intern + feed + render, no sockets) at 1 and 4
   multiplexed clients and both hot-reload commit paths; the INGEST
   group times the parse stage alone — the zero-copy scanner against
   the retained reference parser on the same 10k-line stream.

   [bench json] additionally writes the estimates to BENCH_PR10.json
   together with automaton-size counters, speedups against the seed,
   ratios against the most recent tracked BENCH_PR*.json for every bench
   name the two runs share, the parallel scaling curve, the cold/warm
   cache comparison, and per-group
   Sl_obs span summaries from one instrumented pass over representative
   inputs: this is the perf trajectory future PRs regress against (see
   DESIGN.md "Performance architecture"). *)

module Lattice = Sl_lattice.Lattice
module Named = Sl_lattice.Named
module Lclosure = Sl_lattice.Closure
module Finite_check = Sl_core.Finite_check
module Theory = Sl_core.Theory
module Lasso = Sl_word.Lasso
module Buchi = Sl_buchi.Buchi
module Bclosure = Sl_buchi.Closure
module Ops = Sl_buchi.Ops
module Complement = Sl_buchi.Complement
module Lang = Sl_buchi.Lang
module Bdecompose = Sl_buchi.Decompose
module Bpatterns = Sl_buchi.Patterns
module Formula = Sl_ltl.Formula
module Translate = Sl_ltl.Translate
module Semantics = Sl_ltl.Semantics
module Lexamples = Sl_ltl.Examples
module Kripke = Sl_kripke.Kripke
module Ctl = Sl_ctl.Ctl
module Cexamples = Sl_ctl.Examples
module Digraph = Sl_core.Digraph
module Gnba = Sl_buchi.Gnba
module Rabin = Sl_rabin.Rabin
module Rclosure = Sl_rabin.Closure
module Rdecompose = Sl_rabin.Decompose
module Rpatterns = Sl_rabin.Patterns

let section title = Format.printf "@.=== %s ===@." title

(* ------------------------------------------------------------------ *)
(* Artifacts                                                           *)
(* ------------------------------------------------------------------ *)

let artifact_fig1 () =
  section "Figure 1 — pentagon N5 (non-modular)";
  Format.printf "%s" (Lattice.to_dot ~label:Named.n5_label Named.n5);
  Format.printf "modular: %b  complemented: %b@."
    (Lattice.is_modular Named.n5)
    (Lattice.is_complemented Named.n5);
  (match Lattice.modularity_violation Named.n5 with
  | Some (a, b, c) ->
      Format.printf "modularity violation at (%s, %s, %s)@."
        (Named.n5_label a) (Named.n5_label b) (Named.n5_label c)
  | None -> ());
  Format.printf "Lemma 6 (a has no decomposition under cl a = b): %s@."
    (match Finite_check.lemma6_fig1 () with
    | Ok () -> "verified by exhaustion"
    | Error e -> "FAILED: " ^ e)

let artifact_fig2 () =
  section "Figure 2 — diamond M3 (modular, not distributive)";
  Format.printf "%s" (Lattice.to_dot ~label:Named.m3_label Named.m3);
  Format.printf "modular: %b  distributive: %b@."
    (Lattice.is_modular Named.m3)
    (Lattice.is_distributive Named.m3);
  Format.printf "Theorem 7 fails for every closure with cl a = s: %s@."
    (match Finite_check.fig2_theorem7_failure () with
    | Ok () -> "verified (all candidate closures)"
    | Error e -> "FAILED: " ^ e)

let artifact_rem () =
  section "Table (Section 2.3) — Rem's examples";
  Lexamples.pp_table Format.std_formatter (Lexamples.table ())

let artifact_ctl () =
  section "Table (Section 4.3) — branching-time examples";
  Cexamples.pp_table Format.std_formatter (Cexamples.table ())

let artifact_rabin () =
  section "Theorem 9 — Rabin tree automata decomposition";
  List.iter
    (fun (name, b) ->
      let d = Rdecompose.decompose b in
      let fails =
        Rdecompose.verify_sampled ~max_depth:2
          ~trees:Rpatterns.sample_trees d
      in
      Format.printf "%-6s safe:%b live:%b decomposition:%s@." name
        (Rdecompose.is_safe_language ~trees:Rpatterns.sample_trees b)
        (Rdecompose.is_live_language ~max_depth:2 b)
        (if fails = [] then "verified" else "FAILED");
      if fails <> [] then
        List.iter (fun (c, diag) -> Format.printf "  %s: %s@." c diag) fails)
    Rpatterns.all

let artifact_lattice_theorems () =
  section "Theorems 2/3/5/6/7 — exhaustive over the lattice corpus";
  List.iter
    (fun (name, l) ->
      if
        Lattice.size l <= 8 && Lattice.is_complemented l
        && Lattice.is_modular l
      then begin
        let reports = Finite_check.check_all_closures l in
        let failed = List.filter (fun (_, r) -> r <> Ok ()) reports in
        Format.printf "%-8s (%d elements, %d closures): %s@." name
          (Lattice.size l)
          (List.length (Lclosure.all l))
          (if failed = [] then "all theorems hold" else "FAILURES")
      end)
    Named.all_small

let artifact_gumm () =
  section "Gumm gap — closures outside the topological framework";
  let l = Named.boolean 3 in
  let cl = Lclosure.of_closed_set l [ 0b000; 0b001; 0b010 ] in
  let module L = (val Finite_check.as_complemented l) in
  let module T = Theory.Make (L) in
  (match
     T.gumm_join_preservation_violation (Lclosure.apply cl)
       ~sample:(Lattice.elements l)
   with
  | Some (a, b) ->
      Format.printf
        "on 2^3, cl with closed sets {0,001,010,111}: cl(%d v %d) <> cl %d \
         v cl %d@."
        a b a b
  | None -> Format.printf "unexpectedly topological@.");
  Format.printf "yet Theorem 2 holds for it: %s@."
    (match Finite_check.check_theorem2 l cl with
    | Ok () -> "verified"
    | Error e -> "FAILED: " ^ e)

let artifacts =
  [ ("fig1", artifact_fig1); ("fig2", artifact_fig2);
    ("rem", artifact_rem); ("ctl", artifact_ctl);
    ("rabin", artifact_rabin);
    ("lattice-theorems", artifact_lattice_theorems);
    ("gumm", artifact_gumm) ]

(* ------------------------------------------------------------------ *)
(* Timings                                                             *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

let random_automaton n =
  Buchi.random ~seed:(97 + n) ~alphabet:2 ~nstates:n ~density:0.15
    ~accepting_fraction:0.3 ()

let big_formula = Formula.parse_exn "G (a -> X (!a U (a & X !a)))"

(* PERF-KERNEL microbench inputs (shared with the JSON counters below).
   The dense NFA is sized so the subset construction visits hundreds of
   subset states — enough for the seed's quadratic frontier bookkeeping to
   show. The lockstep pair models two components driven by a shared clock
   (each a deterministic 48-state cycle): only the diagonal of the
   [na*nb*2] product space is reachable, which is exactly what the
   on-the-fly product exploits. Random sparse pairs do not exhibit this —
   reachability percolates and the full product is the honest baseline. *)
let dense_nfa =
  let b =
    Buchi.random ~seed:7 ~alphabet:2 ~nstates:14 ~density:0.12
      ~accepting_fraction:0.3 ()
  in
  Sl_nfa.Nfa.make ~alphabet:2 ~nstates:b.Buchi.nstates ~starts:[ 0 ]
    ~delta:b.Buchi.delta ~accepting:b.Buchi.accepting

let lockstep_pair =
  let cycle n =
    Buchi.make ~alphabet:2 ~nstates:n ~start:0
      ~delta:(Array.init n (fun i -> Array.make 2 [ (i + 1) mod n ]))
      ~accepting:(Array.init n (fun i -> i = 0))
  in
  (cycle 48, cycle 48)

(* MONITOR fleet: 100 properties over 'a' from two parameterized safety
   families, G (a -> X^k !a) (odd k) and !a | X^k a (even k), k in 1..6.
   Only 6 are distinct, which is the realistic shape hash-consing
   exploits; on the alternating trace below the B-family monitors become
   admissible-forever within the first few events and the A-family stays
   live to the end, so the engine's steady state exercises the
   retirement machinery without going idle. *)
let monitor_fleet_props =
  let rec xk n f = if n = 0 then f else xk (n - 1) (Sl_ltl.Formula.x f) in
  List.init 100 (fun i ->
      let k = 1 + (i mod 6) in
      let open Sl_ltl.Formula in
      if i mod 2 = 0 then g (prop "a" ==> xk k (neg (prop "a")))
      else neg (prop "a") ||| xk k (prop "a"))

let monitor_registry =
  let r = Sl_runtime.Registry.create ~alphabet:2 () in
  List.iter
    (fun f -> ignore (Sl_runtime.Registry.add_formula r f))
    monitor_fleet_props;
  r

let monitor_trace_syms = Array.init 10_000 (fun i -> i land 1)
let monitor_trace_ids = Array.make 10_000 0

let monitor_engine =
  Sl_runtime.Engine.create
    ~monitors:(Sl_runtime.Registry.monitors monitor_registry)
    ()

(* PARALLEL fixture: the jobs ladder registry compilation is timed at.
   The SESSION and SERVE fixtures feed the same 100-monitor fleet 10k
   events spread round-robin over 16 concurrent traces. *)
let parallel_jobs_ladder = [ 1; 2; 4 ]

let multi_trace_ids = Array.init 10_000 (fun i -> i mod 16)

let fleet_named_props = List.map (fun f -> (None, f)) monitor_fleet_props

(* Disabled-kernel probes for the OBS overhead budget (DESIGN.md §6.8):
   these time the dark-mode cost of an instrumented call site — one
   global flag check — which must stay within noise of a bare loop. *)
let obs_probe_counter = Sl_obs.Obs.Metrics.counter "bench_obs_probe_total"

(* OBS-LABELS fixtures: a labeled family next to the flat probe — a
   child handle is supposed to cost exactly a flat record, and the
   bench pair pins that — plus the interning lookup the chunk epilogues
   pay once per child, not per event. *)
let obs_probe_vec =
  Sl_obs.Obs.Metrics.counter_vec "bench_obs_probe_labeled_total"
    ~labels:[ "monitor" ]

let obs_probe_child = Sl_obs.Obs.Metrics.counter_child obs_probe_vec [ "m0" ]

(* CACHE fixtures: the same 100-property fleet compiled through the
   warm-start cache. The cold series empties its directory before every
   run, so each run pays full translate + minimize + pack + store; the
   warm series compiles once into its directory at fixture setup, so
   each run is 100 probe hits + artifact decodes. Both live under one
   bench-local root (gitignored) rather than a temp dir, so the fixture
   is inspectable after a run. *)
let bench_cache_root = ".slc-bench-cache"
let bench_cache_cold_dir = Filename.concat bench_cache_root "cold"
let bench_cache_warm_dir = Filename.concat bench_cache_root "warm"

let clear_cache_dir dir =
  if Sys.file_exists dir then
    Array.iter
      (fun f ->
        try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir)

let compile_fleet_cached ~dir =
  let r =
    Sl_runtime.Registry.create ~alphabet:2
      ~cache:(Sl_runtime.Cache.create ~dir)
      ()
  in
  Sl_runtime.Registry.compile_all ~jobs:1 r fleet_named_props

let prewarm_bench_cache =
  lazy
    (clear_cache_dir bench_cache_warm_dir;
     ignore (compile_fleet_cached ~dir:bench_cache_warm_dir))

(* SESSION fixtures: the fleet engine's run state snapshotted at the
   10k-event stream's midpoint. The write series times serializing +
   atomically publishing the snapshot; the restore series times decode +
   validation + engine rebuild from the prebuilt blob; the resume/cold
   pair compares finishing the stream from the snapshot against
   replaying it from scratch — the recovery-time story. *)
let bench_session_dir = Filename.concat bench_cache_root "session"

let ensure_dir dir =
  if not (Sys.file_exists dir) then begin
    (try Sys.mkdir bench_cache_root 0o755 with Sys_error _ -> ());
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let session_fresh () =
  let s = Sl_runtime.Session.create ~registry:monitor_registry () in
  (* the 16 concurrent trace ids of the PARALLEL fixture, interned in
     the order the stream first sees them *)
  for i = 0 to 15 do
    ignore
      (Sl_runtime.Ingest.intern
         (Sl_runtime.Session.ingest s)
         (Printf.sprintf "t%d" i))
  done;
  s

let session_at_midpoint =
  lazy
    (let s = session_fresh () in
     Sl_runtime.Engine.feed (Sl_runtime.Session.engine s) ~n:5_000
       ~traces:multi_trace_ids ~symbols:monitor_trace_syms ();
     s)

let session_snapshot_blob =
  lazy (Sl_runtime.Session.to_artifact (Lazy.force session_at_midpoint))

(* SERVE fixtures: the PARALLEL stream (10k events round-robin over 16
   traces) pre-rendered to Ingest line-protocol bytes — once as a single
   client's stream, and once split by trace across 4 clients with each
   client's bytes cut into 8 slices, so the 4-conn series interleaves
   reads the way the select loop does. Each run builds its own
   session/daemon/connections (like session/cold-feed-10k, setup is part
   of the story) and drains the NDJSON records inside the timed body:
   rendering verdicts is part of the serving cost. *)
let serve_lines =
  lazy
    (Array.init 10_000 (fun i ->
         Printf.sprintf "t%d %d\n" multi_trace_ids.(i)
           monitor_trace_syms.(i)))

let serve_blob_all =
  lazy (String.concat "" (Array.to_list (Lazy.force serve_lines)))

let serve_slices_by_conn =
  lazy
    (let lines = Lazy.force serve_lines in
     Array.init 4 (fun k ->
         let mine = ref [] in
         Array.iteri
           (fun i line ->
             if multi_trace_ids.(i) mod 4 = k then mine := line :: !mine)
           lines;
         let mine = Array.of_list (List.rev !mine) in
         let per = (Array.length mine + 7) / 8 in
         Array.init 8 (fun s ->
             let lo = s * per in
             let hi = min (Array.length mine) (lo + per) in
             String.concat ""
               (Array.to_list (Array.sub mine lo (max 0 (hi - lo)))))))

let serve_daemon_fresh () = Sl_serve.Daemon.make (session_fresh ())

(* INTROSPECT fixture: a daemon that has digested the whole 10k-event
   stream through one connection, wired to an introspection instance —
   what a /status or /monitors scrape renders mid-soak. *)
let serve_introspect_fixture =
  lazy
    (let d = serve_daemon_fresh () in
     let c = Sl_serve.Conn.create d in
     Sl_serve.Conn.on_bytes c (Lazy.force serve_blob_all);
     ignore (Sl_serve.Conn.drain_output c);
     let intro = Sl_serve.Introspect.create ~version:"bench" d in
     Sl_serve.Introspect.set_conns intro (fun () ->
         [ Sl_serve.Introspect.conn_info_of_conn c ]);
     intro)

(* A registry one property richer than the fleet (same alphabet): the
   keyed carry-over path of a hot reload, as opposed to the
   identical-fingerprint snapshot round-trip. *)
let serve_reload_registry =
  lazy
    (let r = Sl_runtime.Registry.create ~alphabet:2 () in
     List.iter
       (fun f -> ignore (Sl_runtime.Registry.add_formula r f))
       (monitor_fleet_props @ [ Sl_ltl.Formula.(g (prop "a")) ]);
     r)

let monitor_naive_fleet =
  List.map
    (fun f -> Sl_buchi.Monitor.create (Lexamples.automaton f))
    monitor_fleet_props

(* Steady-state allocation of the packed engine's event loop: feed 10k
   events to settle retirement and allocate the trace block, then count
   minor words over the next 10k. Integer-divided per event this must be
   0 — the acceptance criterion "per-event stepping is allocation-free"
   made measurable. *)
let monitor_steady_minor_words_per_event () =
  let eng =
    Sl_runtime.Engine.create
      ~monitors:(Sl_runtime.Registry.monitors monitor_registry)
      ()
  in
  let feed () =
    Sl_runtime.Engine.feed eng ~n:10_000 ~traces:monitor_trace_ids
      ~symbols:monitor_trace_syms ()
  in
  feed ();
  let before = Gc.minor_words () in
  feed ();
  let words = Gc.minor_words () -. before in
  int_of_float words / 10_000

let make_tests () =
  let t name f = Test.make ~name (Staged.stage f) in
  let scaling name make_input f sizes =
    List.map
      (fun n ->
        let input = make_input n in
        t (Printf.sprintf "%s/%d" name n) (fun () -> f input))
      sizes
  in
  List.concat
    [ (* FIG1 / FIG2: the exhaustive counterexample checks. *)
      [ t "fig1/lemma6" (fun () -> Finite_check.lemma6_fig1 ());
        t "fig2/theorem7-failure" (fun () ->
            Finite_check.fig2_theorem7_failure ()) ];
      (* THM2-3: exhaustive decomposition checks per lattice. *)
      [ t "thm2/bool3" (fun () ->
            Finite_check.check_theorem2 (Named.boolean 3)
              (Lclosure.of_closed_set (Named.boolean 3) [ 0b001 ]));
        t "thm3/all-closures-bool2" (fun () ->
            Finite_check.check_all_closures (Named.boolean 2)) ];
      (* TAB-REM: the Section 2.3 table end to end. *)
      [ t "rem/table" (fun () -> Lexamples.table ());
        t "rem/classify-p3" (fun () -> Lexamples.classify Lexamples.p3) ];
      (* BA-DEC: closure and decomposition scaling on random automata. *)
      scaling "buchi/bcl" random_automaton Bclosure.bcl [ 8; 32; 128 ];
      scaling "buchi/decompose" random_automaton Bdecompose.decompose
        [ 8; 32; 128 ];
      scaling "buchi/safety-complement"
        (fun n -> Bclosure.bcl (random_automaton n))
        Complement.complement_closed [ 8; 32 ];
      [ t "buchi/rank-complement-3" (fun () ->
            Complement.rank_based (random_automaton 3)) ];
      (* Ablation: bcl vs the naive pruning (DESIGN.md §5.3). *)
      [ t "ablation/bcl-128" (fun () ->
            Bclosure.bcl (random_automaton 128));
        t "ablation/naive-prune-128" (fun () ->
            Bclosure.naive_prune (random_automaton 128)) ];
      (* Ablation: exact vs sampled equality (DESIGN.md §5.2). *)
      [ t "equality/exact-p3-vs-p1" (fun () ->
            Lang.equal (Bclosure.bcl Bpatterns.p3) Bpatterns.p1);
        t "equality/sampled-p3-vs-p1" (fun () ->
            Lang.sampled_equal ~max_prefix:3 ~max_cycle:3
              (Bclosure.bcl Bpatterns.p3) Bpatterns.p1) ];
      (* LTL machinery. *)
      [ t "ltl/translate-p5" (fun () ->
            Translate.translate ~alphabet:2 ~valuation:Lexamples.valuation
              Lexamples.p5);
        t "ltl/translate-nested" (fun () ->
            Translate.translate ~alphabet:2 ~valuation:Lexamples.valuation
              big_formula);
        t "ltl/eval-lasso" (fun () ->
            Semantics.eval Lexamples.valuation big_formula
              (Lasso.make ~prefix:[ 0; 1; 0 ] ~cycle:[ 1; 0; 0; 1 ])) ];
      (* CTL model checking. *)
      [ t "ctl/mutex" (fun () ->
            Ctl.holds (Kripke.mutex ()) (Ctl.parse_exn "AG (t1 -> AF c1)"));
        t "ctl/philosophers-4" (fun () ->
            Ctl.holds
              (Kripke.dining_philosophers 4)
              (Ctl.parse_exn "AG (hungry0 -> EF eat0)")) ];
      (* TAB-CTL: closure membership on trees. *)
      [ t "ctl/q-table-row" (fun () ->
            Sl_tree.Tclosure.classify Cexamples.q3a
              ~sample:(List.filteri (fun i _ -> i < 40) Cexamples.sample)
              ~max_depth:2) ];
      (* THM9: Rabin machinery. *)
      [ t "rabin/rfcl-q3a" (fun () -> Rclosure.rfcl Rpatterns.q3a);
        t "rabin/membership" (fun () ->
            List.iter
              (fun tr -> ignore (Rabin.accepts Rpatterns.af_b tr))
              (List.filteri (fun i _ -> i < 16) Rpatterns.sample_trees));
        t "rabin/decompose-verify" (fun () ->
            Rdecompose.verify_sampled ~max_depth:1
              ~trees:(List.filteri (fun i _ -> i < 16)
                        Rpatterns.sample_trees)
              (Rdecompose.decompose Rpatterns.q3a)) ];
      (* Simulation-reduction ablation: size/time of the liveness part. *)
      [ t "ablation/liveness-raw-p3" (fun () ->
            (Bdecompose.decompose Bpatterns.p3).Bdecompose.liveness);
        t "ablation/liveness-reduced-p3" (fun () ->
            Sl_buchi.Simulation.reduce
              (Bdecompose.decompose Bpatterns.p3).Bdecompose.liveness) ];
      (* Monitoring throughput (Schneider connection). *)
      [ t "monitor/feed-1k" (fun () ->
            let m =
              Sl_buchi.Monitor.create Bpatterns.no_grant_without_request
            in
            Sl_buchi.Monitor.feed m
              (List.init 1000 (fun i -> if i mod 7 = 0 then 1 else 0))) ];
      (* MONITOR: the streaming runtime engine (batched, packed,
         hash-consed, early retirement) vs a loop of naive per-event
         Monitor.step calls over the same 100-property fleet and 10k-event
         trace. Both reset their pre-built monitors per run, so the pair
         times pure steady-state stepping, not compilation. *)
      [ t "monitor/engine-100x10k" (fun () ->
            Sl_runtime.Engine.reset monitor_engine;
            Sl_runtime.Engine.feed monitor_engine ~n:10_000
              ~traces:monitor_trace_ids ~symbols:monitor_trace_syms ());
        (* The same feed with the observability kernel collecting: the
           per-chunk telemetry epilogue plus one span, so the gap to the
           dark-mode series above is the enabled-mode overhead. *)
        t "monitor/engine-100x10k-obs" (fun () ->
            Sl_obs.Obs.enable ();
            Sl_runtime.Engine.reset monitor_engine;
            Sl_runtime.Engine.feed monitor_engine ~n:10_000
              ~traces:monitor_trace_ids ~symbols:monitor_trace_syms ();
            Sl_obs.Obs.disable ());
        (* OBS dark-mode probes: an instrumented counter bump and a full
           span enter/exit pair while the kernel is off. *)
        t "obs/counter-incr-disabled" (fun () ->
            Sl_obs.Obs.Metrics.incr obs_probe_counter);
        t "obs/span-disabled" (fun () ->
            Sl_obs.Obs.Span.exit (Sl_obs.Obs.Span.enter "bench.disabled"));
        t "monitor/naive-100x10k" (fun () ->
            List.iter Sl_buchi.Monitor.reset monitor_naive_fleet;
            Array.iter
              (fun s ->
                List.iter
                  (fun m -> ignore (Sl_buchi.Monitor.step m s))
                  monitor_naive_fleet)
              monitor_trace_syms) ];
      (* Automata-theoretic model checking. *)
      [ t "modelcheck/ring-GF" (fun () ->
            Sl_ltl.Modelcheck.check (Kripke.token_ring 3) ~alphabet:8
              ~valuation:(Semantics.subset_valuation
                            [ "tok0"; "tok1"; "tok2" ])
              (Formula.parse_exn "G F tok0"));
        t "modelcheck/ring-split" (fun () ->
            Sl_ltl.Modelcheck.check_split (Kripke.token_ring 3) ~alphabet:8
              ~valuation:(Semantics.subset_valuation
                            [ "tok0"; "tok1"; "tok2" ])
              (Formula.parse_exn "F G tok0")) ];
      (* Fair CTL. *)
      [ t "ctl/fair-mutex" (fun () ->
            let k = Kripke.mutex () in
            let c =
              [ Array.init k.Kripke.nstates (fun q ->
                    Kripke.holds k q "t1" || Kripke.holds k q "c1") ]
            in
            Sl_ctl.Fair.holds k c (Ctl.parse_exn "AF c1")) ];
      (* DFA minimization: Moore vs Brzozowski (substrate ablation). *)
      (let nfa =
         Sl_nfa.Nfa.make ~alphabet:2 ~nstates:6 ~starts:[ 0 ]
           ~delta:
             [| [| [ 0; 1 ]; [ 0 ] |]; [| []; [ 2 ] |]; [| [ 3 ]; [ 2 ] |];
                [| [ 3 ]; [ 4 ] |]; [| [ 5 ]; [] |]; [| [ 5 ]; [ 5 ] |] |]
           ~accepting:[| false; false; false; false; false; true |]
       in
       [ t "nfa/moore" (fun () ->
             Sl_nfa.Nfa.reverse_determinize_minimize nfa);
         t "nfa/brzozowski" (fun () ->
             Sl_nfa.Nfa.brzozowski_minimize nfa) ]);
      (* Galois-induced closure. *)
      [ t "galois/lcl-closure" (fun () ->
            let c =
              Sl_lattice.Galois.lcl_connection ~max_len:2 ~alphabet:2
            in
            List.init 16 (Sl_lattice.Galois.closure_of c)) ];
      (* µ-calculus vs direct CTL. *)
      [ t "mu/ctl-embedding-mutex" (fun () ->
            Sl_mu.Mu.holds (Kripke.mutex ())
              (Sl_mu.Mu.of_ctl (Ctl.parse_exn "AG (t1 -> AF c1)")));
        t "mu/alternation-egf" (fun () ->
            Sl_mu.Mu.sat (Kripke.mutex ())
              (Sl_mu.Mu.parse_exn "nu X . mu Y . (c1 & <> X) | <> Y")) ];
      (* ω-regex pipeline. *)
      [ t "regex/compile-p4" (fun () ->
            Sl_regex.Omega.to_buchi ~alphabet:2
              (List.assoc "p4" Sl_regex.Omega.rem_examples));
        t "regex/classify-p4" (fun () ->
            (* ¬(FG b) = GF a: the p5 regex automaton is the negation. *)
            Bdecompose.classify_via_negation
              (Sl_regex.Omega.to_buchi ~alphabet:2
                 (List.assoc "p4" Sl_regex.Omega.rem_examples))
              ~negation:
                (Sl_regex.Omega.to_buchi ~alphabet:2
                   (List.assoc "p5" Sl_regex.Omega.rem_examples))) ];
      (* Acceptance-condition translations. *)
      [ t "acceptance/rabin-to-buchi" (fun () ->
            Sl_buchi.Acceptance.rabin_to_buchi
              (Sl_buchi.Acceptance.of_buchi (random_automaton 8))) ];
      (* PERF-KERNEL: optimized hot paths vs the retained seed
         references (same inputs, so the pairs are directly
         comparable). *)
      [ t "nfa/determinize-dense" (fun () -> Sl_nfa.Nfa.determinize dense_nfa);
        t "nfa/determinize-dense-seedref" (fun () ->
            Sl_nfa.Nfa.determinize_ref dense_nfa) ];
      [ t "ops/intersect-reachable" (fun () ->
            Ops.intersect (fst lockstep_pair) (snd lockstep_pair));
        t "ops/intersect-full-seedref" (fun () ->
            Ops.intersect_full (fst lockstep_pair) (snd lockstep_pair)) ];
      [ t "buchi/rank-complement-3-seedref" (fun () ->
            Complement.rank_based_ref (random_automaton 3)) ];
      (* PARALLEL: the one Pool-parallelized path, registry compilation,
         at every rung of the jobs ladder on identical inputs — the
         scaling curve the JSON trajectory records. On a 1-core host the
         curve is flat-to-inverted (domains time-slice one CPU). *)
      List.map
        (fun jobs ->
          t (Printf.sprintf "parallel/registry-compile-100/j%d" jobs)
            (fun () ->
              let r = Sl_runtime.Registry.create ~alphabet:2 () in
              Sl_runtime.Registry.compile_all ~jobs r fleet_named_props))
        parallel_jobs_ladder;
      (* CACHE: the 100-property fleet compile with an empty vs a
         prewarmed compile cache — the PR 6 acceptance pair (warm must
         be an order of magnitude under cold, DESIGN.md §6.10). *)
      [ t "cache/registry-compile-100-cold" (fun () ->
            clear_cache_dir bench_cache_cold_dir;
            compile_fleet_cached ~dir:bench_cache_cold_dir);
        (Lazy.force prewarm_bench_cache;
         t "cache/registry-compile-100-warm" (fun () ->
             compile_fleet_cached ~dir:bench_cache_warm_dir)) ];
      (* SESSION: snapshot write, restore, and resume-vs-replay on the
         fleet engine at the stream midpoint. *)
      [ (ensure_dir bench_session_dir;
         let snap_path = Filename.concat bench_session_dir "mid.slsession" in
         t "session/snapshot-write" (fun () ->
             Sl_runtime.Session.save
               (Lazy.force session_at_midpoint)
               ~path:snap_path));
        t "session/restore" (fun () ->
            match
              Sl_runtime.Session.of_artifact ~registry:monitor_registry
                (Lazy.force session_snapshot_blob)
            with
            | Ok s -> s
            | Error _ -> failwith "bench snapshot failed to restore");
        t "session/resume-feed-5k" (fun () ->
            match
              Sl_runtime.Session.of_artifact ~registry:monitor_registry
                (Lazy.force session_snapshot_blob)
            with
            | Ok s ->
                Sl_runtime.Engine.feed (Sl_runtime.Session.engine s)
                  ~off:5_000 ~n:5_000 ~traces:multi_trace_ids
                  ~symbols:monitor_trace_syms ()
            | Error _ -> failwith "bench snapshot failed to restore");
        t "session/cold-feed-10k" (fun () ->
            let s = session_fresh () in
            Sl_runtime.Engine.feed (Sl_runtime.Session.engine s) ~n:10_000
              ~traces:multi_trace_ids ~symbols:monitor_trace_syms ()) ];
      (* SERVE: the daemon's connection path in-process — line parsing,
         trace interning, engine feed, and NDJSON verdict rendering,
         without socket syscalls — at 1 client and at 4 multiplexed
         clients on one shared engine, plus the two hot-reload commit
         paths on the midpoint session. *)
      (* Fixtures are forced at group construction (the blob render and
         the 101-prop registry compile must not leak into the first
         timed run, which dominates a 0.25s quota). *)
      (let blob = Lazy.force serve_blob_all in
       let slices = Lazy.force serve_slices_by_conn in
       let mid_session = Lazy.force session_at_midpoint in
       let reload_registry = Lazy.force serve_reload_registry in
       [ t "serve/conn-feed-10k-1conn" (fun () ->
             let d = serve_daemon_fresh () in
             let c = Sl_serve.Conn.create d in
             Sl_serve.Conn.on_bytes c blob;
             Sl_serve.Conn.on_eof c;
             ignore (Sl_serve.Conn.drain_output c));
         t "serve/conn-feed-10k-4conn" (fun () ->
             let d = serve_daemon_fresh () in
             let conns = Array.init 4 (fun _ -> Sl_serve.Conn.create d) in
             for s = 0 to 7 do
               for k = 0 to 3 do
                 Sl_serve.Conn.on_bytes conns.(k) slices.(k).(s)
               done
             done;
             Array.iter
               (fun c ->
                 Sl_serve.Conn.on_eof c;
                 ignore (Sl_serve.Conn.drain_output c))
               conns);
         t "serve/reload-identical-100p" (fun () ->
             match
               Sl_serve.Reload.carry_over ~old_session:mid_session
                 ~registry:monitor_registry ()
             with
             | Ok (_, carried) -> carried
             | Error e -> failwith ("bench reload refused: " ^ e));
         t "serve/reload-carryover-101p" (fun () ->
             match
               Sl_serve.Reload.carry_over ~old_session:mid_session
                 ~registry:reload_registry ()
             with
             | Ok (_, carried) -> carried
             | Error e -> failwith ("bench reload refused: " ^ e));
         (* The obs-enabled counterpart of conn-feed-10k-1conn: the same
            stream with the kernel collecting, so the gap to the dark
            series is the full serving-path telemetry overhead (chunk
            epilogues, stage histograms, labeled flushes). *)
         t "serve/conn-feed-10k-1conn-obs" (fun () ->
             Sl_obs.Obs.enable ();
             let d = serve_daemon_fresh () in
             let c = Sl_serve.Conn.create d in
             Sl_serve.Conn.on_bytes c blob;
             Sl_serve.Conn.on_eof c;
             ignore (Sl_serve.Conn.drain_output c);
             Sl_obs.Obs.disable ()) ]);
      (* INGEST: the parse stage in isolation on the same pre-rendered
         10k-line stream the SERVE group feeds — the zero-copy scanner
         (in-place line walk, slice-hash interning, strict decimal digit
         loop) against the retained reference parser (a string per line
         and per field, the seed's ingest shape). The reference pulls
         lines out of the blob with index/sub, an honest stand-in for
         [input_line]'s allocation profile without channel syscalls. *)
      (let blob = Lazy.force serve_blob_all in
       let sink = ref 0 in
       [ t "ingest/scan-10k" (fun () ->
             let ing = Sl_runtime.Ingest.create () in
             let sc =
               Sl_runtime.Ingest.scanner ~alphabet:2 ing
                 ~on_chunk:(fun c -> sink := !sink + c.Sl_runtime.Ingest.len)
                 ~on_error:(fun _ -> ())
             in
             Sl_runtime.Ingest.scan_string sc blob 0 (String.length blob);
             Sl_runtime.Ingest.scan_eof sc);
         t "ingest/parse-ref-10k" (fun () ->
             let ing = Sl_runtime.Ingest.create () in
             let pos = ref 0 in
             let next_line () =
               if !pos >= String.length blob then None
               else begin
                 let j =
                   try String.index_from blob !pos '\n'
                   with Not_found -> String.length blob
                 in
                 let line = String.sub blob !pos (j - !pos) in
                 pos := j + 1;
                 Some line
               end
             in
             Sl_runtime.Ingest.read ~alphabet:2 ing ~next_line
               ~on_chunk:(fun c -> sink := !sink + c.Sl_runtime.Ingest.len)
               ~on_error:(fun _ -> ())) ]);
      (* OBS-LABELS: enabled-mode recording cost, flat vs labeled child
         (amortized over 1k bumps so the enable/disable bracket is
         noise); the interning lookup the epilogues pay per child; and
         what one introspection scrape renders against the digested
         10k-event daemon. *)
      (let intro = Lazy.force serve_introspect_fixture in
       [ t "obs/counter-incr-enabled-x1k" (fun () ->
             Sl_obs.Obs.enable ();
             for _ = 1 to 1000 do
               Sl_obs.Obs.Metrics.incr obs_probe_counter
             done;
             Sl_obs.Obs.disable ());
         t "obs/labeled-incr-enabled-x1k" (fun () ->
             Sl_obs.Obs.enable ();
             for _ = 1 to 1000 do
               Sl_obs.Obs.Metrics.incr obs_probe_child
             done;
             Sl_obs.Obs.disable ());
         t "obs/vec-child-lookup" (fun () ->
             Sl_obs.Obs.Metrics.counter_child obs_probe_vec [ "m0" ]);
         t "obs/status-render" (fun () ->
             Sl_serve.Introspect.handler intro "/status");
         t "obs/monitors-render" (fun () ->
             Sl_serve.Introspect.handler intro "/monitors") ]);
      (* Structural hierarchy classification. *)
      [ t "hierarchy/classify-128" (fun () ->
            Sl_buchi.Hierarchy.classify_structural (random_automaton 128)) ];
      (* Lattice substrate. *)
      [ t "lattice/width-part4" (fun () ->
            Sl_order.Poset.width (Lattice.poset (Named.partition 4)));
        t "lattice/birkhoff-div30" (fun () ->
            Sl_lattice.Birkhoff.check_representation (fst (Named.divisor 30)))
      ];
      (* GRAPH-KERNEL: the shared CSR digraph kernel in isolation, on the
         transition graph every layer now routes through. *)
      (let b128 = random_automaton 128 in
       let g128 = Buchi.graph b128 in
       let scc128 = Digraph.sccs g128 in
       let acc128 =
         Array.init (Digraph.nodes g128) (fun q -> b128.Buchi.accepting.(q))
       in
       let gnba128 =
         Gnba.make ~alphabet:2 ~nstates:b128.Buchi.nstates ~start:0
           ~delta:b128.Buchi.delta
           ~acceptance:
             [ Array.copy b128.Buchi.accepting;
               Array.init b128.Buchi.nstates (fun q -> q mod 3 = 0) ]
       in
       [ t "digraph/of-delta/128" (fun () -> Buchi.graph b128);
         t "digraph/sccs/128" (fun () -> Digraph.sccs g128);
         t "digraph/condense/128" (fun () -> Digraph.condense g128 scc128);
         t "digraph/reverse-reach/128" (fun () ->
             Digraph.reachable_from (Digraph.reverse g128) acc128);
         t "buchi/live-states/128" (fun () -> Buchi.live_states b128);
         t "gnba/is-empty/128" (fun () -> Gnba.is_empty gnba128) ]) ]

let bench_estimates () =
  let tests = make_tests () in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 500) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.fold
        (fun name ols_result acc ->
          let estimate =
            match Analyze.OLS.estimates ols_result with
            | Some (x :: _) -> Some x
            | _ -> None
          in
          (name, estimate) :: acc)
        analyzed [])
    tests

let run_benchmarks () =
  section "Timings (Bechamel; ns per run, OLS on monotonic clock)";
  List.iter
    (fun (name, estimate) ->
      let estimate =
        match estimate with
        | Some x -> Printf.sprintf "%12.1f ns/run" x
        | None -> "            n/a"
      in
      Format.printf "%-34s %s@." name estimate)
    (bench_estimates ())

(* ------------------------------------------------------------------ *)
(* JSON perf trajectory                                                *)
(* ------------------------------------------------------------------ *)

(* Seed timings of the benches PR 1 optimized, measured at the seed
   commit (e31e302) on the CI container with the same Bechamel
   configuration. They anchor the speedup entries of the trajectory file
   for benches whose seed implementation no longer exists under its
   original name; the *-seedref benches re-measure the retained
   reference implementations live on every run. *)
let seed_baselines =
  [ ("hierarchy/classify-128", 1_605_277.9);
    ("acceptance/rabin-to-buchi", 3_731.5);
    ("buchi/bcl/128", 1_166_310.9);
    ("buchi/decompose/128", 3_372_902.3);
    ("buchi/rank-complement-3", 2_657.4);
    ("buchi/safety-complement/32", 174_874.4) ]

(* Pairs (optimized bench, live seed-reference bench): the baseline is
   re-measured in the same run, on the same machine and inputs. *)
let seedref_pairs =
  [ ("nfa/determinize-dense", "nfa/determinize-dense-seedref");
    ("ops/intersect-reachable", "ops/intersect-full-seedref");
    ("buchi/rank-complement-3", "buchi/rank-complement-3-seedref");
    (* The naive fleet loop is the seed-style per-event monitoring the
       streaming engine replaces, re-measured live on the same inputs. *)
    ("monitor/engine-100x10k", "monitor/naive-100x10k");
    (* The reference line parser is the ingest shape every PR before 10
       ran, re-measured live on the same 10k-line stream. *)
    ("ingest/scan-10k", "ingest/parse-ref-10k") ]

(* Automaton-size counters for the microbench inputs: they document what
   the timings mean (how many states each construction materializes) and
   guard against silently benchmarking trivial inputs. *)
let bench_counters () =
  let dfa = Sl_nfa.Nfa.determinize dense_nfa in
  let a, b = lockstep_pair in
  let product = Ops.intersect a b in
  let full = Ops.intersect_full a b in
  [ ("nfa/determinize-dense/nfa-states", dense_nfa.Sl_nfa.Nfa.nstates);
    ("nfa/determinize-dense/dfa-states", dfa.Sl_nfa.Dfa.nstates);
    ("ops/intersect-reachable/product-states-allocated",
     product.Buchi.nstates);
    ("ops/intersect-full/product-states-allocated", full.Buchi.nstates);
    ("hierarchy/classify-128/states", (random_automaton 128).Buchi.nstates);
    ("buchi/rank-complement-3/complement-states",
     (Complement.rank_based (random_automaton 3)).Buchi.nstates);
    ("monitor/fleet-props", Sl_runtime.Registry.nprops monitor_registry);
    ("monitor/fleet-distinct-monitors",
     Sl_runtime.Registry.nmonitors monitor_registry);
    ("monitor/steady-minor-words-per-event",
     monitor_steady_minor_words_per_event ()) ]

(* Per-group span summaries: one pass over a representative input per
   instrumented bench group with the observability kernel collecting,
   aggregated by span name. They document where the decision pipeline
   and the engine spend their time, in the same trajectory file the
   timings live in. *)
let span_summaries () =
  let module Obs = Sl_obs.Obs in
  Obs.reset ();
  Obs.enable ();
  ignore
    (Translate.translate ~alphabet:2 ~valuation:Lexamples.valuation
       big_formula);
  ignore (Sl_nfa.Nfa.determinize dense_nfa);
  ignore (Complement.rank_based (random_automaton 3));
  let r = Sl_runtime.Registry.create ~alphabet:2 () in
  List.iter
    (fun f -> ignore (Sl_runtime.Registry.add_formula r f))
    monitor_fleet_props;
  let eng =
    Sl_runtime.Engine.create ~monitors:(Sl_runtime.Registry.monitors r) ()
  in
  Sl_runtime.Engine.feed eng ~n:10_000 ~traces:monitor_trace_ids
    ~symbols:monitor_trace_syms ();
  Obs.disable ();
  let aggs = Obs.Span.aggregates () in
  Obs.reset ();
  aggs

(* The trajectory files are hand-rolled line-per-record JSON (written by
   [run_benchmarks_json] below, in PR 1 and now); read a previous file's
   "results" section back the same way, one line at a time, without
   taking on a JSON dependency. Returns [None] when the file is absent
   (e.g. running from a bare checkout). *)
let read_prev_results path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let acc = ref [] in
    let in_results = ref false in
    (try
       while true do
         let line = String.trim (input_line ic) in
         if line = "\"results\": [" then in_results := true
         else if !in_results && (line = "]," || line = "]") then
           in_results := false
         else if !in_results then
           try
             Scanf.sscanf line "{\"name\": %S, \"ns_per_run\": %f"
               (fun name ns -> acc := (name, ns) :: !acc)
           with Scanf.Scan_failure _ | Failure _ | End_of_file ->
             (* null estimates and malformed lines carry no baseline *)
             ()
       done
     with End_of_file -> ());
    close_in ic;
    Some (List.rev !acc)
  end

(* Baseline chaining (the perf trajectory): prefer the previous PR's
   tracked file, fall back through the older ones so a pruned checkout
   still gets a baseline instead of an empty section. The chosen file is
   recorded in the output as "baseline_file" (null when none found). *)
let baseline_chain =
  [ "BENCH_PR9.json"; "BENCH_PR8.json"; "BENCH_PR7.json"; "BENCH_PR6.json"; "BENCH_PR5.json";
    "BENCH_PR4.json"; "BENCH_PR3.json"; "BENCH_PR2.json"; "BENCH_PR1.json" ]

let read_baseline () =
  List.find_map
    (fun path ->
      match read_prev_results path with
      | Some results -> Some (path, results)
      | None -> None)
    baseline_chain

(* Every bench record carries the pool width it ran at: the PARALLEL
   series encode it in their (.../jN) names; everything else runs at the
   process default of 1. *)
let jobs_of_bench_name name =
  match String.rindex_opt name '/' with
  | Some i
    when i + 2 <= String.length name - 1
         && name.[i + 1] = 'j' ->
      (match
         int_of_string_opt
           (String.sub name (i + 2) (String.length name - i - 2))
       with
      | Some j when j >= 1 -> j
      | _ -> 1)
  | _ -> 1

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let run_benchmarks_json ~path =
  (* Open the output first: an unwritable path should fail before the
     multi-minute measurement run, not after it. *)
  let oc = open_out path in
  let estimates = bench_estimates () in
  let counters = bench_counters () in
  let lookup name =
    match List.assoc_opt name estimates with Some (Some x) -> Some x | _ -> None
  in
  let speedups =
    List.filter_map
      (fun (name, ns) ->
        match ns with
        | None -> None
        | Some ns ->
            let baseline =
              match List.assoc_opt name seedref_pairs with
              | Some ref_name -> (
                  match lookup ref_name with
                  | Some b -> Some (b, "seedref-bench:" ^ ref_name)
                  | None -> None)
              | None -> (
                  match List.assoc_opt name seed_baselines with
                  | Some b -> Some (b, "seed-commit-timing")
                  | None -> None)
            in
            Option.map
              (fun (b, source) -> (name, ns, b, source, b /. ns))
              baseline)
      estimates
  in
  let baseline = read_baseline () in
  let vs_prev =
    match baseline with
    | None -> []
    | Some (_, prev) ->
        List.filter_map
          (fun (name, est) ->
            match (est, List.assoc_opt name prev) with
            | Some ns, Some base -> Some (name, ns, base, base /. ns)
            | _ -> None)
          estimates
  in
  (* Parallel scaling curve: for the PARALLEL base name, the ns at each
     rung of the jobs ladder plus the j1-relative speedups. *)
  let scaling =
    let bases = [ "parallel/registry-compile-100" ] in
    List.filter_map
      (fun base ->
        let at j = lookup (Printf.sprintf "%s/j%d" base j) in
        match at 1 with
        | None -> None
        | Some ns1 ->
            Some
              ( base,
                ns1,
                List.filter_map
                  (fun j ->
                    Option.map (fun ns -> (j, ns, ns1 /. ns)) (at j))
                  (List.filter (fun j -> j > 1) parallel_jobs_ladder) ))
      bases
  in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": \"sl-bench-trajectory/1\",\n";
  p "  \"pr\": \"PR10\",\n";
  p "  \"config\": {\"quota_s\": 0.25, \"limit\": 1000, \"estimator\": \"ols\"},\n";
  p "  \"cores\": %d,\n" (Domain.recommended_domain_count ());
  p "  \"results\": [\n";
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) estimates in
  List.iteri
    (fun i (name, est) ->
      p "    {\"name\": \"%s\", \"ns_per_run\": %s, \"jobs\": %d}%s\n"
        (json_escape name)
        (match est with Some x -> Printf.sprintf "%.1f" x | None -> "null")
        (jobs_of_bench_name name)
        (if i = List.length sorted - 1 then "" else ","))
    sorted;
  p "  ],\n";
  p "  \"counters\": [\n";
  List.iteri
    (fun i (name, v) ->
      p "    {\"name\": \"%s\", \"value\": %d}%s\n" (json_escape name) v
        (if i = List.length counters - 1 then "" else ","))
    counters;
  p "  ],\n";
  p "  \"speedups_vs_seed\": [\n";
  List.iteri
    (fun i (name, ns, base, source, speedup) ->
      p
        "    {\"name\": \"%s\", \"ns_per_run\": %.1f, \"seed_ns_per_run\": \
         %.1f, \"baseline_source\": \"%s\", \"speedup\": %.2f}%s\n"
        (json_escape name) ns base (json_escape source) speedup
        (if i = List.length speedups - 1 then "" else ","))
    speedups;
  p "  ],\n";
  p "  \"baseline_file\": %s,\n"
    (match baseline with
    | Some (path, _) -> Printf.sprintf "\"%s\"" (json_escape path)
    | None -> "null");
  p "  \"speedups_vs_pr9\": [\n";
  List.iteri
    (fun i (name, ns, base, ratio) ->
      p
        "    {\"name\": \"%s\", \"ns_per_run\": %.1f, \"prev_ns_per_run\": \
         %.1f, \"speedup\": %.2f}%s\n"
        (json_escape name) ns base ratio
        (if i = List.length vs_prev - 1 then "" else ","))
    vs_prev;
  p "  ],\n";
  p "  \"parallel_scaling\": [\n";
  List.iteri
    (fun i (base, ns1, rungs) ->
      let rung_fields =
        String.concat ""
          (List.map
             (fun (j, ns, sp) ->
               Printf.sprintf
                 ", \"ns_j%d\": %.1f, \"speedup_j%d\": %.2f" j ns j sp)
             rungs)
      in
      p "    {\"name\": \"%s\", \"ns_j1\": %.1f%s}%s\n" (json_escape base)
        ns1 rung_fields
        (if i = List.length scaling - 1 then "" else ","))
    scaling;
  p "  ],\n";
  (* The cold/warm cache pair, with the warm speedup the acceptance
     criterion reads off directly. *)
  let num = function
    | Some x -> Printf.sprintf "%.1f" x
    | None -> "null"
  in
  let cache_cold = lookup "cache/registry-compile-100-cold" in
  let cache_warm = lookup "cache/registry-compile-100-warm" in
  p "  \"cache\": {\"cold_ns_per_run\": %s, \"warm_ns_per_run\": %s, \
     \"warm_speedup\": %s},\n"
    (num cache_cold) (num cache_warm)
    (match (cache_cold, cache_warm) with
    | Some c, Some w when w > 0.0 -> Printf.sprintf "%.2f" (c /. w)
    | _ -> "null");
  (* The snapshot/restore/resume quartet: resume_speedup is replaying
     the full stream over finishing it from the midpoint snapshot. *)
  let snap_write = lookup "session/snapshot-write" in
  let snap_restore = lookup "session/restore" in
  let resume = lookup "session/resume-feed-5k" in
  let cold = lookup "session/cold-feed-10k" in
  p "  \"session\": {\"snapshot_write_ns\": %s, \"restore_ns\": %s, \
     \"resume_feed_5k_ns\": %s, \"cold_feed_10k_ns\": %s, \
     \"resume_speedup\": %s},\n"
    (num snap_write) (num snap_restore) (num resume) (num cold)
    (match (resume, cold) with
    | Some r, Some c when r > 0.0 -> Printf.sprintf "%.2f" (c /. r)
    | _ -> "null");
  (* The ingest parse stage: the zero-copy scanner against the retained
     reference parser on the same 10k-line stream — the PR 10 acceptance
     pair (the scanner must be >= 2x the reference). *)
  let ingest_scan = lookup "ingest/scan-10k" in
  let ingest_ref = lookup "ingest/parse-ref-10k" in
  let events_per_s = function
    | Some ns when ns > 0.0 -> Printf.sprintf "%.0f" (1e9 *. 10_000.0 /. ns)
    | _ -> "null"
  in
  p "  \"ingest\": {\"scan_10k_ns\": %s, \"parse_ref_10k_ns\": %s, \
     \"parse_speedup\": %s, \"events_per_s_scan\": %s},\n"
    (num ingest_scan) (num ingest_ref)
    (match (ingest_scan, ingest_ref) with
    | Some s, Some r when s > 0.0 -> Printf.sprintf "%.2f" (r /. s)
    | _ -> "null")
    (events_per_s ingest_scan);
  (* The serving path: events/s through the connection state machine at
     1 and 4 multiplexed clients, and the latency of committing a hot
     reload on the midpoint session (identical registry = snapshot
     round-trip; 101p = keyed per-monitor carry-over). *)
  let serve1 = lookup "serve/conn-feed-10k-1conn" in
  let serve4 = lookup "serve/conn-feed-10k-4conn" in
  let reload_id = lookup "serve/reload-identical-100p" in
  let reload_co = lookup "serve/reload-carryover-101p" in
  p "  \"serve\": {\"feed_10k_1conn_ns\": %s, \"feed_10k_4conn_ns\": %s, \
     \"events_per_s_1conn\": %s, \"events_per_s_4conn\": %s, \
     \"reload_identical_ns\": %s, \"reload_carryover_ns\": %s},\n"
    (num serve1) (num serve4) (events_per_s serve1) (events_per_s serve4)
    (num reload_id) (num reload_co);
  (* The introspection layer: labeled-vs-flat recording (the child
     handle is supposed to be free), the per-child interning lookup,
     what a scrape renders, and the full obs-on serving overhead as a
     ratio over the dark 1-conn feed. *)
  let flat1k = lookup "obs/counter-incr-enabled-x1k" in
  let labeled1k = lookup "obs/labeled-incr-enabled-x1k" in
  let child_lookup = lookup "obs/vec-child-lookup" in
  let status_render = lookup "obs/status-render" in
  let monitors_render = lookup "obs/monitors-render" in
  let serve1_obs = lookup "serve/conn-feed-10k-1conn-obs" in
  let ratio a b =
    match (a, b) with
    | Some x, Some y when y > 0.0 -> Printf.sprintf "%.3f" (x /. y)
    | _ -> "null"
  in
  p "  \"obs_labels\": {\"flat_incr_x1k_ns\": %s, \
     \"labeled_incr_x1k_ns\": %s, \"labeled_over_flat\": %s, \
     \"child_lookup_ns\": %s, \"status_render_ns\": %s, \
     \"monitors_render_ns\": %s, \"conn_feed_10k_obs_ns\": %s, \
     \"obs_on_over_dark\": %s},\n"
    (num flat1k) (num labeled1k)
    (ratio labeled1k flat1k)
    (num child_lookup) (num status_render) (num monitors_render)
    (num serve1_obs)
    (ratio serve1_obs serve1);
  let spans = span_summaries () in
  p "  \"span_summaries\": [\n";
  List.iteri
    (fun i (name, count, total_us) ->
      p "    {\"name\": \"%s\", \"count\": %d, \"total_us\": %.1f}%s\n"
        (json_escape name) count total_us
        (if i = List.length spans - 1 then "" else ","))
    spans;
  p "  ]\n";
  p "}\n";
  close_out oc;
  Format.printf
    "wrote %s (%d results, %d counters, %d speedups vs seed, %d vs %s, \
     %d scaling curves, %d span groups)@."
    path (List.length estimates) (List.length counters)
    (List.length speedups) (List.length vs_prev)
    (match baseline with Some (p, _) -> p | None -> "none")
    (List.length scaling) (List.length spans)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [] ->
      List.iter (fun (_, f) -> f ()) artifacts;
      run_benchmarks ()
  | [ "bench" ] -> run_benchmarks ()
  | [ "bench"; "json" ] -> run_benchmarks_json ~path:"BENCH_PR10.json"
  | [ "bench"; "json"; path ] -> run_benchmarks_json ~path
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name artifacts with
          | Some f -> f ()
          | None ->
              Format.eprintf
                "unknown artifact %s (available: %s, bench, bench json)@."
                name
                (String.concat ", " (List.map fst artifacts));
              exit 1)
        names
