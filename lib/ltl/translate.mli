(** LTL to Büchi translation.

    The classical tableau construction, built on the fly: states of the
    generalized Büchi automaton are {e elementary} (maximal, locally
    consistent) subsets of the formula's closure; transitions enforce the
    [X]-step and the [Until] expansion law
    [a U b  ≡  b ∨ (a ∧ X (a U b))]; one acceptance set per [Until]
    forbids postponing [b] forever. The generalized automaton is
    degeneralized with a counter track.

    Only the (elementary set, counter) pairs reachable from the initial
    sets are built. A state's successors are enumerated from its own
    [X]-obligations and pending untils, never by scanning every set, and
    sets are bitsets over the closure, so no formula is refused for its
    closure size. [X ¬ψ] shares its closure entry with [¬X ψ].

    Correctness is established in the test suite by checking agreement
    with the fixpoint evaluator {!Semantics.eval} on every canonical lasso
    up to a size bound, for a corpus of formulas including all of Rem's
    examples, and by comparing compiled monitors against the exhaustive
    declarative tableau kept in the tests as a reference. *)

val translate :
  alphabet:int -> valuation:Semantics.valuation -> Formula.t -> Sl_buchi.Buchi.t
(** [translate ~alphabet ~valuation f] builds a Büchi automaton over
    symbols [0 .. alphabet-1] accepting exactly the words satisfying [f]
    (atomic propositions read through [valuation]). Every state is
    reachable from the start. *)
