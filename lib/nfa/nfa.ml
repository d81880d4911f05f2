module B = Sl_core.Bitset
module Digraph = Sl_core.Digraph
module Asig = Sl_core.Automaton_sig
module Obs = Sl_obs.Obs

(* Subset-construction telemetry (recorded only while Sl_obs is
   enabled): how many determinizations ran, how big the resulting DFAs
   were, how deep the BFS frontier got, and how often the bitset
   interner was hit with an already-known subset. *)
let m_det_runs = Obs.Metrics.counter "nfa_determinize_runs_total"
let h_det_dfa_states = Obs.Metrics.histogram "nfa_determinize_dfa_states"
let h_det_frontier_peak = Obs.Metrics.histogram "nfa_subset_frontier_peak"
let m_det_interner_hits = Obs.Metrics.counter "nfa_interner_hits_total"

type t = {
  alphabet : int;
  nstates : int;
  starts : int list;
  delta : int list array array;
  accepting : bool array;
}

let make ~alphabet ~nstates ~starts ~delta ~accepting =
  let name = "Nfa.make" in
  Asig.check_alphabet ~name alphabet;
  Asig.check_nstates ~name ~min:0 nstates;
  List.iter (Asig.check_state ~name ~nstates) starts;
  Asig.check_flags ~name ~nstates accepting;
  Asig.check_delta ~name ~alphabet ~nstates delta;
  { alphabet; nstates; starts; delta; accepting }

let empty ~alphabet =
  make ~alphabet ~nstates:0 ~starts:[] ~delta:[||] ~accepting:[||]

let graph n = Digraph.of_delta n.delta

(* Compile-time witness: this module has the shared automaton shape. *)
module _ : Asig.S with type t = t = struct
  type nonrec t = t

  let alphabet n = n.alphabet
  let nstates n = n.nstates
  let graph = graph
end

(* Successor set of a state set: one bitset pass instead of the seed's
   concat-then-[sort_uniq] (which allocated and sorted a list with one
   entry per transition, quadratic on dense frontiers). The result is
   still an ascending duplicate-free list. *)
let successor_set n set s =
  let succ = B.create n.nstates in
  B.iter
    (fun q -> List.iter (fun q' -> B.unsafe_add succ q') n.delta.(q).(s))
    set;
  succ

let successors n set s = B.to_list (successor_set n (B.of_list n.nstates set) s)

let accepts n word =
  let final =
    List.fold_left
      (fun set s -> successor_set n set s)
      (B.of_list n.nstates n.starts)
      word
  in
  B.exists (fun q -> n.accepting.(q)) final

let reachable n = Digraph.reachable (graph n) n.starts

let co_reachable n =
  (* Backwards reachability from the accepting states, on the transposed
     CSR graph. *)
  Digraph.reachable_from (Digraph.reverse (graph n)) n.accepting

let restrict n keep =
  let remap = Array.make n.nstates (-1) in
  let count = ref 0 in
  Array.iteri
    (fun q k ->
      if k then begin
        remap.(q) <- !count;
        incr count
      end)
    keep;
  let nstates = !count in
  let delta = Array.make_matrix nstates n.alphabet [] in
  Array.iteri
    (fun q k ->
      if k then
        Array.iteri
          (fun s succs ->
            delta.(remap.(q)).(s) <-
              List.filter_map
                (fun q' -> if keep.(q') then Some remap.(q') else None)
                succs)
          n.delta.(q))
    keep;
  let accepting = Array.make nstates false in
  Array.iteri (fun q k -> if k then accepting.(remap.(q)) <- n.accepting.(q))
    keep;
  let starts = List.filter_map (fun q ->
      if keep.(q) then Some remap.(q) else None) n.starts in
  make ~alphabet:n.alphabet ~nstates ~starts ~delta ~accepting

let trim n =
  let reach = reachable n and co = co_reachable n in
  restrict n (Array.init n.nstates (fun q -> reach.(q) && co.(q)))

(* Subset construction on the bitset kernel: state sets are interned
   through {!Sl_core.Bitset.Interner} (O(1) membership and hashing) and the
   frontier is an explicit worklist, so each subset state is expanded
   exactly once — the seed's assoc-list bookkeeping was quadratic in the
   number of DFA states. *)
let determinize n =
  let module B = Sl_core.Bitset in
  let sp = Obs.Span.enter "nfa.determinize" in
  let interner = B.Interner.create () in
  let start_set = B.of_list n.nstates n.starts in
  let start = B.Interner.intern interner start_set in
  let rows = ref [||] in
  let ensure_row i row =
    let cap = Array.length !rows in
    if i >= cap then begin
      let fresh = Array.make (max 8 (2 * max cap (i + 1))) [||] in
      Array.blit !rows 0 fresh 0 cap;
      rows := fresh
    end;
    !rows.(i) <- row
  in
  (* Frontier-depth tracking: plain int arithmetic per push/pop, kept
     unconditional so enabling metrics cannot perturb the traversal. *)
  let qlen = ref 1 and qpeak = ref 1 in
  let queue = Queue.create () in
  Queue.push (start, start_set) queue;
  while not (Queue.is_empty queue) do
    let i, set = Queue.pop queue in
    decr qlen;
    let row =
      Array.init n.alphabet (fun s ->
          let succ = B.create n.nstates in
          B.iter
            (fun q -> List.iter (fun q' -> B.unsafe_add succ q') n.delta.(q).(s))
            set;
          let before = B.Interner.count interner in
          let j = B.Interner.intern interner succ in
          if j = before then begin
            Queue.push (j, succ) queue;
            incr qlen;
            if !qlen > !qpeak then qpeak := !qlen
          end;
          j)
    in
    ensure_row i row
  done;
  let nstates = B.Interner.count interner in
  let delta = Array.init nstates (fun i -> !rows.(i)) in
  let accepting = Array.make nstates false in
  B.Interner.iteri
    (fun i set -> accepting.(i) <- B.exists (fun q -> n.accepting.(q)) set)
    interner;
  (* Every subset state is expanded exactly once, so the interner saw
     [nstates * alphabet] lookups of which [nstates - 1] were fresh. *)
  let interner_hits = (nstates * n.alphabet) - (nstates - 1) in
  Obs.Metrics.incr m_det_runs;
  Obs.Metrics.observe h_det_dfa_states nstates;
  Obs.Metrics.observe h_det_frontier_peak !qpeak;
  Obs.Metrics.add m_det_interner_hits interner_hits;
  Obs.Span.attr sp "nfa_states" n.nstates;
  Obs.Span.attr sp "dfa_states" nstates;
  Obs.Span.attr sp "frontier_peak" !qpeak;
  Obs.Span.attr sp "interner_hits" interner_hits;
  Obs.Span.exit sp;
  Dfa.make ~alphabet:n.alphabet ~nstates ~start ~delta ~accepting

let union a b =
  if a.alphabet <> b.alphabet then invalid_arg "Nfa.union: alphabets differ";
  let shift = a.nstates in
  let nstates = a.nstates + b.nstates in
  let delta = Array.make_matrix nstates a.alphabet [] in
  Array.iteri (fun q row -> Array.iteri (fun s l -> delta.(q).(s) <- l) row)
    a.delta;
  Array.iteri
    (fun q row ->
      Array.iteri
        (fun s l -> delta.(q + shift).(s) <- List.map (( + ) shift) l)
        row)
    b.delta;
  let accepting = Array.make nstates false in
  Array.iteri (fun q acc -> accepting.(q) <- acc) a.accepting;
  Array.iteri (fun q acc -> accepting.(q + shift) <- acc) b.accepting;
  make ~alphabet:a.alphabet ~nstates
    ~starts:(a.starts @ List.map (( + ) shift) b.starts)
    ~delta ~accepting

let is_empty n =
  let reach = reachable n in
  let found = ref false in
  Array.iteri (fun q r -> if r && n.accepting.(q) then found := true) reach;
  not !found

let language_equal a b = Dfa.equivalent (determinize a) (determinize b)
let is_prefix_closed n = Dfa.is_prefix_closed (determinize n)

let prefix_closure n =
  let t = trim n in
  { t with accepting = Array.make t.nstates true }

let reverse n =
  let delta = Array.make_matrix n.nstates n.alphabet [] in
  Array.iteri
    (fun q row ->
      Array.iteri
        (fun s succs ->
          List.iter (fun q' -> delta.(q').(s) <- q :: delta.(q').(s)) succs)
        row)
    n.delta;
  Array.iter
    (fun row -> Array.iteri (fun s l -> row.(s) <- List.sort_uniq compare l) row)
    delta;
  let starts =
    List.filter (fun q -> n.accepting.(q)) (List.init n.nstates Fun.id)
  in
  let accepting = Array.make n.nstates false in
  List.iter (fun q -> accepting.(q) <- true) n.starts;
  make ~alphabet:n.alphabet ~nstates:n.nstates ~starts ~delta ~accepting

let reverse_determinize_minimize n = Dfa.minimize (determinize n)

(* Brzozowski: the determinization of a co-deterministic automaton is
   minimal; reversing twice restores the language. *)
let brzozowski_minimize n =
  let of_dfa (d : Dfa.t) =
    make ~alphabet:d.Dfa.alphabet ~nstates:d.Dfa.nstates
      ~starts:[ d.Dfa.start ]
      ~delta:(Array.map (Array.map (fun q -> [ q ])) d.Dfa.delta)
      ~accepting:(Array.copy d.Dfa.accepting)
  in
  determinize (of_dfa (determinize (reverse n)) |> reverse)

let pp fmt n =
  Format.fprintf fmt "@[<v>nfa(%d states, starts %s)@," n.nstates
    (String.concat "," (List.map string_of_int n.starts));
  for q = 0 to n.nstates - 1 do
    Format.fprintf fmt "  %d%s:" q (if n.accepting.(q) then "*" else "");
    Array.iteri
      (fun s succs ->
        List.iter (fun q' -> Format.fprintf fmt " %d->%d" s q') succs)
      n.delta.(q);
    Format.fprintf fmt "@,"
  done;
  Format.fprintf fmt "@]"
