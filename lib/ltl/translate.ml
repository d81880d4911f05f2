module Buchi = Sl_buchi.Buchi
module Bitset = Sl_core.Bitset
module Obs = Sl_obs.Obs

(* Tableau-translation telemetry (recorded only while Sl_obs is
   enabled): closure size, elementary-set count (reachable GNBA states),
   degeneralization width, and the resulting NBA size per phase. *)
let m_translate_runs = Obs.Metrics.counter "ltl_translate_runs_total"
let h_closure_size = Obs.Metrics.histogram "ltl_closure_size"
let h_gnba_states = Obs.Metrics.histogram "ltl_gnba_states"
let h_nba_states = Obs.Metrics.histogram "ltl_nba_states"

(* The positive closure as a hash-consed DAG, children before parents.
   A literal is [2 * node + polarity]: membership of a negation ¬ψ in an
   elementary set is represented as absence of ψ. [X ¬ψ] is stored as
   [¬X ψ], so [X^k a] and [X^k ¬a] share one node and one bit. *)
type node =
  | Top
  | Atom of string
  | Conj of int * int
  | Next of int
  | Until of int * int

let closure core =
  let table = Hashtbl.create 16 in
  let nodes = ref [] in
  let intern n =
    match Hashtbl.find_opt table n with
    | Some i -> 2 * i
    | None ->
        let i = Hashtbl.length table in
        Hashtbl.add table n i;
        nodes := n :: !nodes;
        2 * i
  in
  let rec lit (f : Formula.core) =
    match f with
    | CTrue -> intern Top
    | CProp p -> intern (Atom p)
    | CNot g -> lit g lxor 1
    | CAnd (a, b) ->
        let a = lit a in
        intern (Conj (a, lit b))
    | CNext g ->
        let g = lit g in
        intern (Next (g land lnot 1)) lor (g land 1)
    | CUntil (a, b) ->
        let a = lit a in
        intern (Until (a, lit b))
  in
  let root = lit core in
  (Array.of_list (List.rev !nodes), root)

let holds set l = Bitset.unsafe_mem set (l lsr 1) <> (l land 1 = 1)

(* Every elementary set meeting the required literals [req] (a bitset
   over literals), by a depth-first assignment of the closure in order.
   Atoms and [X]-nodes branch; [Top] and conjunctions are determined by
   what is below them; an until is forced by the local expansion law
   ([b] forces it, neither [a] nor [b] refutes it) and branches only
   when [a ∧ ¬b]. A required literal prunes its node's branch as soon as
   the node is assigned. *)
let elementary nodes req =
  let n = Array.length nodes in
  let cur = Bitset.create n in
  let found = ref [] in
  let rec go i =
    if i = n then found := Bitset.copy cur :: !found
    else begin
      let assign v =
        if not (Bitset.unsafe_mem req ((2 * i) + if v then 1 else 0))
        then
          if v then begin
            Bitset.unsafe_add cur i;
            go (i + 1);
            Bitset.remove cur i
          end
          else go (i + 1)
      in
      match nodes.(i) with
      | Top -> assign true
      | Conj (a, b) -> assign (holds cur a && holds cur b)
      | Atom _ | Next _ ->
          assign false;
          assign true
      | Until (a, b) ->
          if holds cur b then assign true
          else if holds cur a then begin
            assign false;
            assign true
          end
          else assign false
    end
  in
  go 0;
  !found

(* What every successor of [set] must satisfy, as a set of literals:
   the operand of each [X]-node takes the node's truth value, and an
   until pending on [a ∧ ¬b] keeps its own. Contradictory literals
   admit no set. *)
let obligations nodes set =
  let req = Bitset.create (2 * Array.length nodes) in
  Array.iteri
    (fun i node ->
      let here = Bitset.unsafe_mem set i in
      match node with
      | Next g -> Bitset.unsafe_add req (if here then g else g lxor 1)
      | Until (a, b) when holds set a && not (holds set b) ->
          Bitset.unsafe_add req ((2 * i) + if here then 0 else 1)
      | _ -> ())
    nodes;
  req

(* States of the degeneralized automaton are the reachable pairs
   (elementary set, counter); 0 is the fresh start, which guesses the
   elementary set of time 0 among those containing the formula and then
   moves as that set would. The counter waits for the acceptance set of
   its own until (sets where the until is not pending) and then moves
   on; one acceptance set per until forbids postponing [b] forever. *)
let translate ~alphabet ~valuation formula =
  let sp = Obs.Span.enter "ltl.translate" in
  let nodes, root = closure (Formula.to_core formula) in
  let n = Array.length nodes in
  let indexed = List.mapi (fun i node -> (i, node)) (Array.to_list nodes) in
  let untils =
    Array.of_list
      (List.filter_map
         (function i, Until (_, b) -> Some (i, b) | _ -> None)
         indexed)
  in
  let k = max 1 (Array.length untils) in
  let in_accept_set j set =
    j >= Array.length untils
    ||
    let i, b = untils.(j) in
    (not (Bitset.unsafe_mem set i)) || holds set b
  in
  let bump set counter =
    if in_accept_set counter set then (counter + 1) mod k else counter
  in
  let atoms =
    List.filter_map (function i, Atom p -> Some (i, p) | _ -> None) indexed
  in
  let compatible set s =
    List.for_all (fun (i, p) -> Bitset.unsafe_mem set i = valuation s p) atoms
  in
  (* Successors depend only on the obligations, which many sets share:
     memoized per distinct obligation set. *)
  let sets = Bitset.Interner.create () in
  let by_req = Bitset.Interner.create () in
  let succ_memo = Hashtbl.create 64 in
  let successors set =
    let req = obligations nodes set in
    let r = Bitset.Interner.intern by_req req in
    match Hashtbl.find_opt succ_memo r with
    | Some l -> l
    | None ->
        let l = List.map (Bitset.Interner.intern sets) (elementary nodes req) in
        Hashtbl.add succ_memo r l;
        l
  in
  let index = Hashtbl.create 256 in
  let queue = Queue.create () in
  let nstates = ref 1 in
  let state e counter =
    let key = (e * k) + counter in
    match Hashtbl.find_opt index key with
    | Some q -> q
    | None ->
        let q = !nstates in
        incr nstates;
        Hashtbl.add index key q;
        Queue.push (e, counter) queue;
        q
  in
  let expand set counter =
    let row = Array.make alphabet [] in
    let c' = bump set counter in
    let succ = lazy (List.map (fun e' -> state e' c') (successors set)) in
    for s = 0 to alphabet - 1 do
      if compatible set s then row.(s) <- Lazy.force succ
    done;
    row
  in
  let start = Array.make alphabet [] in
  List.iter
    (fun set ->
      Array.iteri (fun s l -> start.(s) <- l @ start.(s)) (expand set 0))
    (elementary nodes (Bitset.singleton (2 * n) root));
  let rows = ref [ start ] and accepting = ref [ false ] in
  while not (Queue.is_empty queue) do
    let e, counter = Queue.pop queue in
    let set = Bitset.Interner.get sets e in
    rows := expand set counter :: !rows;
    accepting := (counter = 0 && in_accept_set 0 set) :: !accepting
  done;
  let delta =
    Array.of_list
      (List.rev_map (Array.map (List.sort_uniq compare)) !rows)
  in
  let accepting = Array.of_list (List.rev !accepting) in
  let nstates = !nstates in
  let b = Buchi.make ~alphabet ~nstates ~start:0 ~delta ~accepting in
  let ne = Bitset.Interner.count sets in
  Obs.Metrics.incr m_translate_runs;
  Obs.Metrics.observe h_closure_size n;
  Obs.Metrics.observe h_gnba_states ne;
  Obs.Metrics.observe h_nba_states nstates;
  Obs.Span.attr sp "closure_size" n;
  Obs.Span.attr sp "elementary_sets" ne;
  Obs.Span.attr sp "acceptance_sets" k;
  Obs.Span.attr sp "nba_states" nstates;
  Obs.Span.exit sp;
  b
