type t = {
  original : Buchi.t;
  safety : Buchi.t;
  liveness : Buchi.t;
}

let lcl = Closure.bcl

let decompose b =
  let safety = Closure.bcl b in
  let liveness = Ops.union b (Complement.complement_closed safety) in
  { original = b; safety; liveness }

let check_claims ~intersection_ok d =
  let failures = ref [] in
  let record claim diag = failures := (claim, diag) :: !failures in
  if not (Lang.equal d.safety (Closure.bcl d.safety)) then
    record "safety part not closed" "L(B_S) <> lcl L(B_S)";
  if not (Buchi.is_empty (Complement.complement_closed (Closure.bcl d.liveness)))
  then record "liveness part not dense" "lcl L(B_L) <> universal";
  (match intersection_ok () with
  | None -> ()
  | Some diag -> record "intersection does not recover L(B)" diag);
  List.rev !failures

let verify_exact ?max_states d =
  check_claims d ~intersection_ok:(fun () ->
      (* Exact equality L(B_S) ∩ L(B_L) = L(B) without ever complementing
         the (large) liveness automaton. Complement only the original:
         since decompose builds B_L = B ∪ ¬B_S with ¬B_S deterministic,
         ¬L(B_L) = ¬L(B) ∩ L(B_S), so

         - meet ⊆ B       reduces to  meet ∩ ¬B = ∅;
         - B ⊆ B_S        is a subset test against a closed language;
         - B ⊆ B_L        reduces to  B ∩ ¬B ∩ B_S = ∅ (trivial once ¬B is
           correct, but checked anyway to keep the claim honest). *)
      let not_original =
        if Buchi.is_empty d.original then
          Buchi.universal ~alphabet:d.original.alphabet
        else if Closure.is_closure_shaped d.original then
          Complement.complement_closed d.original
        else Complement.rank_based ?max_states d.original
      in
      let meet = Ops.intersect d.safety d.liveness in
      if not (Buchi.is_empty (Ops.intersect meet not_original)) then
        Some "L(B_S) /\\ L(B_L) not included in L(B)"
      else if not (Lang.subset d.original d.safety) then
        Some "L(B) not included in L(B_S)"
      else if
        not
          (Buchi.is_empty
             (Ops.intersect d.original (Ops.intersect not_original d.safety)))
      then Some "L(B) not included in L(B_L)"
      else None)

let verify_sampled ~max_prefix ~max_cycle d =
  check_claims d ~intersection_ok:(fun () ->
      let meet = Ops.intersect d.safety d.liveness in
      match Lang.separating_lasso ~max_prefix ~max_cycle meet d.original with
      | None -> None
      | Some w ->
          Some
            (Printf.sprintf "disagree on %s" (Sl_word.Lasso.to_string w)))

type classification = Safety | Liveness | Both | Neither

let classification_to_string = function
  | Safety -> "safety"
  | Liveness -> "liveness"
  | Both -> "both (Sigma^omega)"
  | Neither -> "neither"

module Span = Sl_obs.Obs.Span

let is_liveness b =
  Span.with_ "buchi.is_liveness" (fun () ->
      Buchi.is_empty (Complement.complement_closed (Closure.bcl b)))

let is_safety ?max_states b =
  (* L(B) ⊆ lcl L(B) always; safety iff the converse. *)
  Lang.subset ?max_states (Closure.bcl b) b

let classify ?max_states b =
  match (is_safety ?max_states b, is_liveness b) with
  | true, true -> Both
  | true, false -> Safety
  | false, true -> Liveness
  | false, false -> Neither

let classify_via_negation b ~negation =
  Span.with_ "buchi.classify_via_negation" (fun () ->
      (* Sanity: a genuine complement is disjoint from the automaton.
         (The converse inclusion cannot be checked cheaply; the caller
         vouches.) *)
      if not (Buchi.is_empty (Ops.intersect b negation)) then
        invalid_arg
          "Decompose.classify_via_negation: negation overlaps language";
      let safety = Buchi.is_empty (Ops.intersect (Closure.bcl b) negation) in
      match (safety, is_liveness b) with
      | true, true -> Both
      | true, false -> Safety
      | false, true -> Liveness
      | false, false -> Neither)

let language_lattice ~alphabet ?max_states () :
    (module Sl_core.Theory.COMPLEMENTED with type t = Buchi.t) =
  (module struct
    type nonrec t = Buchi.t

    let equal a b = Lang.equal ?max_states a b
    let leq a b = Lang.subset ?max_states a b
    let meet = Ops.intersect
    let join = Ops.union
    let bot = Buchi.empty_language ~alphabet
    let top = Buchi.universal ~alphabet

    let pp fmt b =
      Format.fprintf fmt "<buchi %s>" (Buchi.size_info b)

    let complement b =
      if Buchi.is_empty b then Some top
      else if Closure.is_closure_shaped b then
        Some (Complement.complement_closed b)
      else
        match Complement.rank_based ?max_states b with
        | c -> Some c
        | exception Complement.Too_large _ -> None
  end)
