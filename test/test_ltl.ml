module Formula = Sl_ltl.Formula
module Semantics = Sl_ltl.Semantics
module Translate = Sl_ltl.Translate
module Examples = Sl_ltl.Examples
module Buchi = Sl_buchi.Buchi
module Decompose = Sl_buchi.Decompose
module Lasso = Sl_word.Lasso

let check = Alcotest.(check bool)

let formula =
  Alcotest.testable (fun fmt f -> Format.pp_print_string fmt
      (Formula.to_string f)) Formula.equal

let test_parser_roundtrip () =
  let cases =
    [ "a"; "!a"; "a & F !a"; "F G !a"; "G F a"; "true"; "false";
      "a U b"; "a R b"; "X a"; "a -> b -> c"; "a | b & c";
      "(a | b) & c"; "G (req -> F grant)"; "!X !a"; "F (a & X b)" ]
  in
  List.iter
    (fun s ->
      match Formula.parse s with
      | Error e -> Alcotest.failf "parse %S: %s" s e
      | Ok f -> (
          (* Printing then reparsing is the identity. *)
          match Formula.parse (Formula.to_string f) with
          | Error e -> Alcotest.failf "reparse %S: %s" (Formula.to_string f) e
          | Ok f' -> Alcotest.check formula ("roundtrip " ^ s) f f'))
    cases

let test_parser_precedence () =
  Alcotest.check formula "-> right assoc"
    Formula.(Implies (Prop "a", Implies (Prop "b", Prop "c")))
    (Formula.parse_exn "a -> b -> c");
  Alcotest.check formula "& binds tighter than |"
    Formula.(Or (Prop "a", And (Prop "b", Prop "c")))
    (Formula.parse_exn "a | b & c");
  Alcotest.check formula "U binds tighter than &"
    Formula.(And (Prop "a", Until (Prop "b", Prop "c")))
    (Formula.parse_exn "a & b U c");
  Alcotest.check formula "prefix chain"
    Formula.(Not (Next (Not (Prop "a"))))
    (Formula.parse_exn "!X !a")

let test_parser_errors () =
  List.iter
    (fun s ->
      match Formula.parse s with
      | Ok f -> Alcotest.failf "expected error for %S, got %s" s
          (Formula.to_string f)
      | Error _ -> ())
    [ ""; "a &"; "(a"; "a)"; "a b"; "-"; "U a" ]

let test_core_translation () =
  (* F a = true U a; G a = !(true U !a); derived operators reduce. *)
  let c1 = Formula.to_core (Formula.parse_exn "F a") in
  let c2 = Formula.to_core Formula.(Until (True, Prop "a")) in
  check "F reduces to U" true (Formula.core_equal c1 c2);
  (* Double negation collapses. *)
  let c3 = Formula.to_core (Formula.parse_exn "!!a") in
  check "double negation" true
    (Formula.core_equal c3 (Formula.to_core (Formula.parse_exn "a")))

let test_propositions_size () =
  let f = Formula.parse_exn "G (req -> F grant) & X req" in
  Alcotest.(check (list string)) "props" [ "grant"; "req" ]
    (Formula.propositions f);
  check "size positive" true (Formula.size f > 5);
  check "subformulas include self" true
    (List.mem f (Formula.subformulas f))

(* --- Semantics --- *)

let v = Examples.valuation
let lassos = Lasso.enumerate ~alphabet:2 ~max_prefix:3 ~max_cycle:3

let test_semantics_oracles () =
  (* Check the fixpoint evaluator against hand-derived facts. *)
  let ab = Lasso.make ~prefix:[] ~cycle:[ 0; 1 ] in
  let a_then_b = Lasso.make ~prefix:[ 0 ] ~cycle:[ 1 ] in
  let all_a = Lasso.constant 0 in
  let all_b = Lasso.constant 1 in
  check "a on (ab)^w" true (Semantics.eval v Examples.p1 ab);
  check "GF a on (ab)^w" true (Semantics.eval v Examples.p5 ab);
  check "FG !a on (ab)^w" false (Semantics.eval v Examples.p4 ab);
  check "FG !a on a b^w" true (Semantics.eval v Examples.p4 a_then_b);
  check "a & F !a on a b^w" true (Semantics.eval v Examples.p3 a_then_b);
  check "a & F !a on a^w" false (Semantics.eval v Examples.p3 all_a);
  check "GF a on b^w" false (Semantics.eval v Examples.p5 all_b);
  check "X a on (ab)^w" false
    (Semantics.eval v (Formula.parse_exn "X a") ab);
  check "X a at 1" true
    (Semantics.eval_at v (Formula.parse_exn "X a") ab 1);
  check "a U b... on (ab)^w" true
    (Semantics.eval v (Formula.parse_exn "a U !a") ab);
  check "a R b degenerate" true
    (Semantics.eval v (Formula.parse_exn "false R true") ab)

let test_semantics_duality () =
  (* !F!f = Gf, !(f U g) = !f R !g, checked pointwise on all lassos. *)
  let fa = Formula.parse_exn "a" and fb = Formula.parse_exn "X a" in
  List.iter
    (fun w ->
      check "G = !F!" (Semantics.eval v (Formula.Always fa) w)
        (Semantics.eval v (Formula.Not (Formula.Eventually (Formula.Not fa))) w);
      check "R dual of U"
        (Semantics.eval v (Formula.Release (fa, fb)) w)
        (Semantics.eval v
           (Formula.Not (Formula.Until (Formula.Not fa, Formula.Not fb))) w);
      check "expansion law U"
        (Semantics.eval v (Formula.Until (fa, fb)) w)
        (Semantics.eval v
           (Formula.Or
              (fb, Formula.And (fa, Formula.Next (Formula.Until (fa, fb)))))
           w))
    lassos

(* --- Translation --- *)

let corpus =
  [ "true"; "false"; "a"; "!a"; "a & F !a"; "F G !a"; "G F a";
    "X a"; "X X a"; "a U !a"; "!a U a"; "a R !a"; "G a"; "F a";
    "G F a -> F G !a"; "(G F a) & (F G !a)"; "F (a & X !a)";
    "G (a -> X !a)"; "a U (a & X !a)" ]

let test_translation_agrees_with_semantics () =
  List.iter
    (fun s ->
      let f = Formula.parse_exn s in
      let b = Translate.translate ~alphabet:2 ~valuation:v f in
      List.iter
        (fun w ->
          check
            (Printf.sprintf "%s on %s" s (Lasso.to_string w))
            (Semantics.eval v f w)
            (Buchi.accepts_lasso b w))
        lassos)
    corpus

let test_translation_matches_pattern_automata () =
  (* The hand-built Rem automata and the translated formulas define the
     same languages. *)
  List.iter2
    (fun (name, f) (name', _, hand_built) ->
      assert (name = name');
      check
        (name ^ " translation = hand-built")
        true
        (Sl_buchi.Lang.sampled_equal ~max_prefix:3 ~max_cycle:3
           (Examples.automaton f) hand_built))
    Examples.all Sl_buchi.Patterns.rem_examples

let test_rem_table () =
  let rows = Examples.table () in
  let find name = List.find (fun r -> r.Examples.name = name) rows in
  let cls name = (find name).Examples.classification in
  Alcotest.(check string) "p0" "safety"
    (Decompose.classification_to_string (cls "p0"));
  Alcotest.(check string) "p1" "safety"
    (Decompose.classification_to_string (cls "p1"));
  Alcotest.(check string) "p2" "safety"
    (Decompose.classification_to_string (cls "p2"));
  Alcotest.(check string) "p3" "neither"
    (Decompose.classification_to_string (cls "p3"));
  Alcotest.(check string) "p4" "liveness"
    (Decompose.classification_to_string (cls "p4"));
  Alcotest.(check string) "p5" "liveness"
    (Decompose.classification_to_string (cls "p5"));
  Alcotest.(check string) "p6" "both (Sigma^omega)"
    (Decompose.classification_to_string (cls "p6"));
  (* The closure column: closure of p3 is p1; closures of p4, p5 are p6;
     closed properties are their own closure. *)
  Alcotest.(check (option string)) "closure of p3" (Some "p1")
    (find "p3").Examples.closure_of;
  Alcotest.(check (option string)) "closure of p4" (Some "p6")
    (find "p4").Examples.closure_of;
  Alcotest.(check (option string)) "closure of p5" (Some "p6")
    (find "p5").Examples.closure_of;
  Alcotest.(check (option string)) "closure of p1" (Some "p1")
    (find "p1").Examples.closure_of

let test_request_response_formula () =
  let f = Formula.parse_exn "G (req -> F grant)" in
  let v = Semantics.subset_valuation [ "req"; "grant" ] in
  let b = Translate.translate ~alphabet:4 ~valuation:v f in
  check "same language as hand-built" true
    (Sl_buchi.Lang.sampled_equal ~max_prefix:2 ~max_cycle:2 b
       Sl_buchi.Patterns.request_response);
  let nb =
    Translate.translate ~alphabet:4 ~valuation:v
      (Formula.Not f)
  in
  Alcotest.(check string) "classification" "liveness"
    (Decompose.classification_to_string
       (Decompose.classify_via_negation b ~negation:nb))

(* --- Syntactic fragments --- *)

module Syntactic = Sl_ltl.Syntactic

let test_nnf_semantics_preserved () =
  List.iter
    (fun s ->
      let f = Formula.parse_exn s in
      let f' = Syntactic.of_nnf (Syntactic.nnf f) in
      List.iter
        (fun w ->
          check ("nnf " ^ s) (Semantics.eval v f w) (Semantics.eval v f' w))
        lassos)
    corpus

let test_syntactic_soundness () =
  (* Syntactically safe implies semantically safe (or both). *)
  List.iter
    (fun s ->
      let f = Formula.parse_exn s in
      if Syntactic.is_syntactically_safe f then begin
        match Examples.classify f with
        | Sl_buchi.Decompose.Safety | Sl_buchi.Decompose.Both -> ()
        | c ->
            Alcotest.failf "%s syntactically safe but %s" s
              (Decompose.classification_to_string c)
      end;
      if Syntactic.is_syntactically_cosafe f then begin
        (* The negation of a co-safe formula is safe. *)
        match Examples.classify (Formula.Not f) with
        | Sl_buchi.Decompose.Safety | Sl_buchi.Decompose.Both -> ()
        | c ->
            Alcotest.failf "!(%s) should be safe but is %s" s
              (Decompose.classification_to_string c)
      end)
    corpus

let test_syntactic_fragment_membership () =
  let safe = Syntactic.is_syntactically_safe in
  let cosafe = Syntactic.is_syntactically_cosafe in
  let f = Formula.parse_exn in
  check "G a safe" true (safe (f "G a"));
  check "a R b safe" true (safe (f "a R b"));
  check "X X a safe (and cosafe)" true
    (safe (f "X X a") && cosafe (f "X X a"));
  check "F a not safe" false (safe (f "F a"));
  check "F a cosafe" true (cosafe (f "F a"));
  check "G F a neither fragment" false
    (safe (f "G F a") || cosafe (f "G F a"));
  (* Incompleteness: F false is semantically safe (it is the empty
     property) but not syntactically safe. *)
  check "F false outside fragment" false (safe (f "F false"));
  Alcotest.(check string) "F false semantically safe" "safety"
    (Decompose.classification_to_string (Examples.classify (f "F false")))

(* --- Automata-theoretic model checking --- *)

module Modelcheck = Sl_ltl.Modelcheck
module Kripke = Sl_kripke.Kripke

let ap_v = Semantics.subset_valuation [ "req"; "grant" ]

let test_modelcheck_token_ring () =
  let k = Kripke.token_ring 3 in
  let v3 = Semantics.subset_valuation [ "tok0"; "tok1"; "tok2" ] in
  let holds f =
    Modelcheck.check k ~alphabet:8 ~valuation:v3 (Formula.parse_exn f)
  in
  check "GF tok0" true (holds "G F tok0" = Modelcheck.Holds);
  check "G !(tok0 & tok1)" true
    (holds "G !(tok0 & tok1)" = Modelcheck.Holds);
  (match holds "F G tok0" with
  | Modelcheck.Fails w ->
      (* The counterexample must be a run of the ring violating FG tok0:
         check it semantically. *)
      check "counterexample violates" false
        (Semantics.eval v3 (Formula.parse_exn "F G tok0") w)
  | Modelcheck.Holds -> Alcotest.fail "FG tok0 should fail")

let test_modelcheck_agreement_with_ctl_shape () =
  (* On the mutex structure: safety holds, response holds (the built-in
     scheduler forces progress), and AF c1 fails. *)
  let k = Kripke.mutex () in
  let props = Array.to_list k.Kripke.ap in
  let vm = Semantics.subset_valuation props in
  let alphabet = 1 lsl List.length props in
  let holds f =
    Modelcheck.check k ~alphabet ~valuation:vm (Formula.parse_exn f)
    = Modelcheck.Holds
  in
  check "G !(c1 & c2)" true (holds "G !(c1 & c2)");
  check "G (t1 -> F c1)" true (holds "G (t1 -> F c1)");
  check "F c1 fails (idling run)" false (holds "F c1")

let test_modelcheck_split () =
  let k = Kripke.token_ring 3 in
  let v3 = Semantics.subset_valuation [ "tok0"; "tok1"; "tok2" ] in
  let split f =
    Modelcheck.check_split k ~alphabet:8 ~valuation:v3 (Formula.parse_exn f)
  in
  (* GF tok0 holds: both parts hold. *)
  let r = split "G F tok0" in
  check "liveness part holds" true
    (r.Modelcheck.liveness_verdict = Modelcheck.Holds);
  check "safety part holds" true
    (r.Modelcheck.safety_verdict = Modelcheck.Holds);
  (* G tok0 fails, and it must fail on the SAFETY side (pure safety). *)
  let r2 = split "G tok0" in
  check "safety side catches G tok0" true
    (match r2.Modelcheck.safety_verdict with
    | Modelcheck.Fails _ -> true
    | Modelcheck.Holds -> false);
  (* F G tok0 fails, and only on the LIVENESS side: its safety part is
     universal. *)
  let r3 = split "F G tok0" in
  check "safety side of FG tok0 holds" true
    (r3.Modelcheck.safety_verdict = Modelcheck.Holds);
  check "liveness side of FG tok0 fails" true
    (match r3.Modelcheck.liveness_verdict with
    | Modelcheck.Fails _ -> true
    | Modelcheck.Holds -> false)

let test_split_agrees_with_check () =
  let k = Kripke.mutex () in
  let props = Array.to_list k.Kripke.ap in
  let vm = Semantics.subset_valuation props in
  let alphabet = 1 lsl List.length props in
  List.iter
    (fun s ->
      let f = Formula.parse_exn s in
      let whole = Modelcheck.check k ~alphabet ~valuation:vm f in
      let split = Modelcheck.check_split k ~alphabet ~valuation:vm f in
      let both_hold =
        split.Modelcheck.safety_verdict = Modelcheck.Holds
        && split.Modelcheck.liveness_verdict = Modelcheck.Holds
      in
      check ("split = whole for " ^ s) (whole = Modelcheck.Holds) both_hold)
    [ "G !(c1 & c2)"; "G (t1 -> F c1)"; "F c1"; "G F (c1 | n1)";
      "G (c1 -> X !c1)" ]

(* Random formulas over one proposition. *)
let random_formula =
  let gen =
    QCheck.Gen.(
      sized @@ fix (fun self n ->
          if n <= 1 then
            oneofl
              [ Formula.True; Formula.False; Formula.Prop "a" ]
          else
            let sub = self (n / 2) in
            oneof
              [ map (fun f -> Formula.Not f) sub;
                map (fun f -> Formula.Next f) sub;
                map (fun f -> Formula.Eventually f) sub;
                map (fun f -> Formula.Always f) sub;
                map2 (fun a b -> Formula.And (a, b)) sub sub;
                map2 (fun a b -> Formula.Or (a, b)) sub sub;
                map2 (fun a b -> Formula.Until (a, b)) sub sub;
                map2 (fun a b -> Formula.Release (a, b)) sub sub ]))
  in
  QCheck.make ~print:Formula.to_string gen

let prop_translation_random_formulas =
  QCheck.Test.make ~name:"random formulas: translation = semantics"
    ~count:60 random_formula
    (fun f ->
      QCheck.assume (Formula.size f <= 8);
      let b = Translate.translate ~alphabet:2 ~valuation:v f in
      List.for_all
        (fun w -> Semantics.eval v f w = Buchi.accepts_lasso b w)
        (Lasso.enumerate ~alphabet:2 ~max_prefix:2 ~max_cycle:2))

(* --- The reference tableau --- *)

module Packed_dfa = Sl_runtime.Packed_dfa

(* The on-the-fly translator builds reachable states only, and it and
   the exhaustive declarative tableau (Tableau_ref) compile to the same
   monitor, byte for byte. *)
let same_monitor f =
  let key b = Packed_dfa.key (Packed_dfa.of_buchi b) in
  let b = Translate.translate ~alphabet:2 ~valuation:v f in
  Array.for_all Fun.id (Buchi.reachable b)
  && String.equal (key b)
       (key (Tableau_ref.translate ~alphabet:2 ~valuation:v f))

let props_file path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.map String.trim
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

(* The benchmark's X-depth family: G (p -> X^k q) for k <= 6 and
   G (p -> (X^k q | X^(k+1) r)) for k <= 3, over every choice of
   literals p, q, r. *)
let deep_family =
  let xs k = String.concat "" (List.init k (fun _ -> "X ")) in
  let lits = [ "a"; "!a" ] in
  List.concat_map
    (fun p ->
      List.concat_map
        (fun q ->
          List.init 6 (fun i -> Printf.sprintf "G (%s -> %s%s)" p (xs (i + 1)) q)
          @ List.concat_map
              (fun r ->
                List.init 3 (fun i ->
                    Printf.sprintf "G (%s -> (%s%s | %s%s))" p (xs (i + 1)) q
                      (xs (i + 2)) r))
              lits)
        lits)
    lits

let test_translation_matches_reference () =
  List.iter
    (fun f ->
      check ("reachable, same monitor as the reference: "
             ^ Formula.to_string f) true
        (same_monitor f))
    (List.map snd Examples.all
    @ List.map Formula.parse_exn
        (props_file "../examples/monitor.props" @ corpus @ deep_family))

let prop_translation_matches_reference =
  QCheck.Test.make ~name:"random formulas: monitor = reference tableau's"
    ~count:60 random_formula
    (fun f ->
      QCheck.assume (Formula.size f <= 8);
      same_monitor f)

let tests =
  [ Alcotest.test_case "parser roundtrip" `Quick test_parser_roundtrip;
    Alcotest.test_case "parser precedence" `Quick test_parser_precedence;
    Alcotest.test_case "parser errors" `Quick test_parser_errors;
    Alcotest.test_case "core translation" `Quick test_core_translation;
    Alcotest.test_case "propositions and size" `Quick
      test_propositions_size;
    Alcotest.test_case "semantics oracles" `Quick test_semantics_oracles;
    Alcotest.test_case "semantic dualities" `Quick test_semantics_duality;
    Alcotest.test_case "translation vs semantics (corpus)" `Slow
      test_translation_agrees_with_semantics;
    Alcotest.test_case "translation vs hand-built automata" `Quick
      test_translation_matches_pattern_automata;
    Alcotest.test_case "Rem table regenerated" `Quick test_rem_table;
    Alcotest.test_case "request/response via LTL" `Quick
      test_request_response_formula;
    Alcotest.test_case "NNF preserves semantics" `Quick
      test_nnf_semantics_preserved;
    Alcotest.test_case "syntactic fragments sound" `Slow
      test_syntactic_soundness;
    Alcotest.test_case "fragment membership" `Quick
      test_syntactic_fragment_membership;
    Alcotest.test_case "modelcheck token ring" `Quick
      test_modelcheck_token_ring;
    Alcotest.test_case "modelcheck mutex" `Quick
      test_modelcheck_agreement_with_ctl_shape;
    Alcotest.test_case "split verification" `Quick test_modelcheck_split;
    Alcotest.test_case "split agrees with whole" `Quick
      test_split_agrees_with_check;
    Alcotest.test_case "translation vs reference tableau" `Slow
      test_translation_matches_reference;
    QCheck_alcotest.to_alcotest prop_translation_random_formulas;
    QCheck_alcotest.to_alcotest prop_translation_matches_reference ]
