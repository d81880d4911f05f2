(* Regenerates the paper's Section 2.3 table: Martin Rem's properties
   p0-p6, classified as safety / liveness / neither, together with the
   closure column.

   Everything is recomputed from first principles: parse the LTL, build
   the Büchi automaton by the tableau translation, compute the paper's
   closure operator on it, and decide closedness/density via the safety
   complement and the negated-formula automaton.

   Run with:  dune exec examples/ltl_classification.exe *)

module Examples = Sl_ltl.Examples
module Formula = Sl_ltl.Formula
module Lasso = Sl_word.Lasso
module Buchi = Sl_buchi.Buchi

let () =
  Format.printf "Section 2.3 — Rem's examples over Sigma = {a, b}@.@.";
  Examples.pp_table Format.std_formatter (Examples.table ());
  (* Show a few witness words for the "neither" case. *)
  let p3 = Examples.automaton Examples.p3 in
  let bcl = Sl_buchi.Closure.bcl p3 in
  let sigma = Sl_buchi.Patterns.sigma in
  Format.printf
    "@.p3 = a & F !a is neither: it is not closed (its closure is p1)@.";
  let in_closure_not_in_p3 =
    List.filter
      (fun w -> Buchi.accepts_lasso bcl w && not (Buchi.accepts_lasso p3 w))
      (Lasso.enumerate ~alphabet:2 ~max_prefix:2 ~max_cycle:2)
  in
  Format.printf "words in lcl(p3) \\ p3:";
  List.iter
    (fun w -> Format.printf " %s" (Lasso.to_string ~alphabet:sigma w))
    in_closure_not_in_p3;
  Format.printf "@.";
  (* Growth of the translation, for the record. *)
  Format.printf "@.translation sizes (Büchi states, reachable only):@.";
  List.iter
    (fun (name, f) ->
      Format.printf "  %-3s %-10s -> %d@." name (Formula.to_string f)
        (Examples.automaton f).Buchi.nstates)
    Examples.all
