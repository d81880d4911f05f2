(* Reproduction harness: the paper's artifacts and the scaling of the
   algorithms that regenerate them.

   Usage:
     dune exec bench/main.exe              # all artifacts + all timings
     dune exec bench/main.exe ARTIFACT...  # the named artifacts, no timings
     dune exec bench/main.exe bench        # timings only

   Artifacts (the paper's figures/tables, regenerated from scratch; see
   EXPERIMENTS.md for the mapping): fig1 fig2 rem ctl rabin
   lattice-theorems gumm. The exit code is 1 when any artifact's check
   fails (it prints FAILED, FAILURES or "unexpectedly topological").

   The timing section prints one Bechamel series per experiment (the
   PERF row of DESIGN.md §4): the paper itself contains no performance
   numbers, so these series document the cost of each reproduction
   algorithm (closure, decomposition, complementation, translation, model
   checking) and of the ablations called out in DESIGN.md §5. The
   runtime monitor and daemon are measured end to end by perfbench/,
   not here. *)

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

(* Set by any artifact whose check fails; the process then exits 1. *)
let failed = ref false

let fail text =
  failed := true;
  text

let verdict ok = function Ok () -> ok | Error e -> fail ("FAILED: " ^ e)

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
    (verdict "verified by exhaustion" (Finite_check.lemma6_fig1 ()))

let artifact_fig2 () =
  section "Figure 2 — diamond M3 (modular, not distributive)";
  Format.printf "%s" (Lattice.to_dot ~label:Named.m3_label Named.m3);
  Format.printf "modular: %b  distributive: %b@."
    (Lattice.is_modular Named.m3)
    (Lattice.is_distributive Named.m3);
  Format.printf "Theorem 7 fails for every closure with cl a = s: %s@."
    (verdict "verified (all candidate closures)"
       (Finite_check.fig2_theorem7_failure ()))

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
        (if fails = [] then "verified" else fail "FAILED");
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
        let failures = List.filter (fun (_, r) -> r <> Ok ()) reports in
        Format.printf "%-8s (%d elements, %d closures): %s@." name
          (Lattice.size l)
          (List.length (Lclosure.all l))
          (if failures = [] then "all theorems hold" else fail "FAILURES")
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
  | None -> Format.printf "%s@." (fail "unexpectedly topological"));
  Format.printf "yet Theorem 2 holds for it: %s@."
    (verdict "verified" (Finite_check.check_theorem2 l cl))

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

(* Kernel inputs. The dense NFA is sized so the subset construction
   visits hundreds of subset states. The lockstep pair models two
   components driven by a shared clock (each a deterministic 48-state
   cycle): only the diagonal of the [na*nb*2] product space is
   reachable, which is exactly what the on-the-fly product exploits. *)
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
      (* Büchi monitoring of a safety property (Schneider connection). *)
      [ t "monitor/feed-1k" (fun () ->
            let m =
              Sl_buchi.Monitor.create Bpatterns.no_grant_without_request
            in
            Sl_buchi.Monitor.feed m
              (List.init 1000 (fun i -> if i mod 7 = 0 then 1 else 0))) ];
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
      (* Subset construction and the reachable-only product. *)
      [ t "nfa/determinize-dense" (fun () -> Sl_nfa.Nfa.determinize dense_nfa);
        t "ops/intersect-reachable" (fun () ->
            Ops.intersect (fst lockstep_pair) (snd lockstep_pair)) ];
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
         transition graph every layer routes through. *)
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

let run_benchmarks () =
  section "Timings (Bechamel; ns per run, OLS on monotonic clock)";
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 500) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      Hashtbl.iter
        (fun name ols_result ->
          let estimate =
            match Analyze.OLS.estimates ols_result with
            | Some (x :: _) -> Printf.sprintf "%12.1f ns/run" x
            | _ -> "            n/a"
          in
          Format.printf "%-34s %s@." name estimate)
        (Analyze.all ols instance results))
    (make_tests ())

let () =
  (match List.tl (Array.to_list Sys.argv) with
  | [] ->
      List.iter (fun (_, f) -> f ()) artifacts;
      run_benchmarks ()
  | [ "bench" ] -> run_benchmarks ()
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name artifacts with
          | Some f -> f ()
          | None ->
              Format.eprintf "unknown artifact %s (available: %s, bench)@."
                name
                (String.concat ", " (List.map fst artifacts));
              exit 1)
        names);
  if !failed then exit 1
