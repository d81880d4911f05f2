(* Reference Büchi product for the tests: the seed's materialized
   [intersect], which allocates all [na * nb * 2] states (qa, qb, phase),
   reachable or not. Phase 0 waits for an accepting state of [a], phase 1
   for one of [b]; acceptance on the 0->1 switch points. It is kept only
   as the oracle that [Sl_buchi.Ops.intersect] (reachable states, on the
   fly) is compared against, lasso by lasso. *)

module Buchi = Sl_buchi.Buchi

let intersect (a : Buchi.t) (b : Buchi.t) =
  if a.alphabet <> b.alphabet then
    invalid_arg "Ops_ref.intersect: alphabets differ";
  let na = a.nstates and nb = b.nstates in
  let encode qa qb ph = (((qa * nb) + qb) * 2) + ph in
  let nstates = na * nb * 2 in
  let delta = Array.make_matrix nstates a.alphabet [] in
  for qa = 0 to na - 1 do
    for qb = 0 to nb - 1 do
      for ph = 0 to 1 do
        let next_phase =
          if ph = 0 && a.accepting.(qa) then 1
          else if ph = 1 && b.accepting.(qb) then 0
          else ph
        in
        for s = 0 to a.alphabet - 1 do
          delta.(encode qa qb ph).(s) <-
            List.concat_map
              (fun qa' ->
                List.map (fun qb' -> encode qa' qb' next_phase)
                  b.delta.(qb).(s))
              a.delta.(qa).(s)
        done
      done
    done
  done;
  let accepting =
    Array.init nstates (fun code ->
        let ph = code land 1 in
        let qa = code / 2 / nb in
        ph = 0 && a.accepting.(qa))
  in
  Buchi.make ~alphabet:a.alphabet ~nstates
    ~start:(encode a.start b.start 0)
    ~delta ~accepting
