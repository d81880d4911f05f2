(* Deterministic workload streams, shared by the file generator and the
   open-loop serve client so that both see the same events for a seed.

   The PRNG is a 62-bit xorshift* of our own rather than [Random]: the
   streams must not change when the compiler's [Random] does. *)

type rng = { mutable s : int }

let rng seed =
  let s = ref ((seed * 0x9E3779B97F4A7C1) lxor 0x2545F4914F6CDD1D) in
  if !s land max_int = 0 then s := 1;
  let r = { s = !s land max_int } in
  r

let draw r =
  let x = r.s in
  let x = x lxor (x lsl 13) land max_int in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) land max_int in
  r.s <- (if x = 0 then 1 else x);
  (* multiply-and-shift so low bits are as good as high ones *)
  ((x * 0x2545F4914F6CDD1) land max_int) lsr 20

let below r n = draw r mod n
let bit r = (draw r lsr 7) land 1

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* [offline-wide] and [serve-churn] use the repository's example
   property set, copied so that editing the example does not silently
   change the benchmark. Its monitors trip or retire within a few
   events of a trace's start. *)
let wide_props = [ "a"; "G (a -> X !a)"; "a & F !a"; "G F a"; "F G !a" ]

let neg = function "a" -> "!a" | _ -> "a"
let xs k = String.concat "" (List.init k (fun _ -> "X "))

(* [offline-deep]: safety properties that stay live forever on traces
   that strictly alternate a / !a, so every event steps every monitor.
   On such a trace, at a position where [p] holds, [X^j q] holds iff
   q = p for even j and q = !p for odd j.
   - G (p -> X^k q) with the right parity, k = 1..6;
   - G (p -> (X^k q | X^(k+1) r)) for the three (q, r) pairs of which
     at least one disjunct is right, k = 1..3. X-depth stops at 3:
     compile time grows about twentyfold per extra X beyond it;
   - conjunctions of those, in one direction and in both; the last is
     a syntactic variant of the one before, so it is a hash-cons hit. *)
let deep_props =
  let at p j = if j mod 2 = 0 then p else neg p in
  let single =
    List.concat_map
      (fun p ->
        List.init 6 (fun i ->
            let k = i + 1 in
            Printf.sprintf "G (%s -> %s%s)" p (xs k) (at p k)))
      [ "a"; "!a" ]
  in
  let disj =
    List.concat_map
      (fun p ->
        List.concat_map
          (fun k ->
            let q = at p k and r = at p (k + 1) in
            List.map
              (fun (q, r) ->
                Printf.sprintf "G (%s -> (%s%s | %s%s))" p (xs k) q
                  (xs (k + 1)) r)
              [ (q, r); (q, neg r); (neg q, r) ])
          [ 1; 2; 3 ])
      [ "a"; "!a" ]
  in
  let misc =
    [ "G (a -> X (!a & X a))"; "G (!a -> X (a & X !a))";
      "G (a -> X X (a & X !a))"; "G (!a -> X X (!a & X a))";
      "G ((a & X !a) | (!a & X a))"; "G (a -> X !a) & G (!a -> X a)" ]
  in
  single @ disj @ misc

(* ------------------------------------------------------------------ *)
(* Event streams                                                       *)
(* ------------------------------------------------------------------ *)

(* Line sink: appends "<prefix><n> <sym>\n" to a buffer flushed to a
   channel in 64 KiB slabs. *)
type sink = { buf : Buffer.t; oc : out_channel; mutable bytes : int }

let sink oc = { buf = Buffer.create 131072; oc; bytes = 0 }

let emit k prefix n sym =
  Buffer.add_string k.buf prefix;
  Buffer.add_string k.buf (string_of_int n);
  Buffer.add_char k.buf ' ';
  Buffer.add_char k.buf (if sym = 0 then '0' else '1');
  Buffer.add_char k.buf '\n';
  if Buffer.length k.buf >= 65536 then begin
    k.bytes <- k.bytes + Buffer.length k.buf;
    Buffer.output_buffer k.oc k.buf;
    Buffer.clear k.buf
  end

let close_sink k =
  k.bytes <- k.bytes + Buffer.length k.buf;
  Buffer.output_buffer k.oc k.buf;
  Buffer.clear k.buf;
  flush k.oc

(* [offline-deep]: 64 traces, each strictly alternating from a random
   phase; each event goes to a uniformly chosen trace. About one event
   in 1024 instead opens a probe trace "p<k>" whose two events "a a"
   trip the properties that forbid two a's in a row, so the stream has
   trip verdicts whose latency can be timed, at negligible report cost. *)
type deep = {
  dr : rng;
  phase : int array;
  mutable probes : int;
  mutable pending : int;  (* probe awaiting its second event, or -1 *)
}

let deep_traces = 64
let deep_probe_every = 1024

(* [offline-wide]: each event goes to one of [wide_ids] trace ids chosen
   uniformly, with a fair random symbol. The first [wide_ids] events
   touch every id once, in order, so exactly that many ids appear. *)
type wide = { wr : rng; mutable wi : int }

let wide_ids = 50_000

(* [serve-churn]: [churn_slots] traces are open at a time and take
   events in round-robin order. A trace lives for [churn_min_len ..
   churn_max_len] events of fair random symbols, then its slot starts a
   fresh id "c<n>" (numbered in order of first event), so trip verdicts
   flow all run and the trace count grows linearly. *)
type churn = {
  cr : rng;
  cur : int array;  (* trace number in each slot *)
  left : int array;  (* events left in each slot's trace *)
  mutable ntraces : int;
  mutable ci : int;  (* next global event index *)
}

let churn_slots = 256
let churn_min_len = 4
let churn_max_len = 16

type t = Deep of deep | Wide of wide | Churn of churn

let props = function
  | "offline-deep" -> deep_props
  | "offline-wide" | "serve-churn" -> wide_props
  | w -> invalid_arg ("unknown workload " ^ w)

let stream w ~seed =
  let r = rng seed in
  match w with
  | "offline-deep" ->
      Deep { dr = r; phase = Array.init deep_traces (fun _ -> bit r);
             probes = 0; pending = -1 }
  | "offline-wide" -> Wide { wr = r; wi = 0 }
  | "serve-churn" ->
      Churn { cr = r; cur = Array.make churn_slots 0;
              left = Array.make churn_slots 0; ntraces = 0; ci = 0 }
  | w -> invalid_arg ("unknown workload " ^ w)

(* The next event as (trace-id prefix, trace number, symbol). *)
let next = function
  | Deep d ->
      if d.pending >= 0 then begin
        let k = d.pending in
        d.pending <- -1;
        ("p", k, 0)
      end
      else if below d.dr deep_probe_every = 0 then begin
        let k = d.probes in
        d.probes <- k + 1;
        d.pending <- k;
        ("p", k, 0)
      end
      else begin
        let t = below d.dr deep_traces in
        let s = d.phase.(t) in
        d.phase.(t) <- 1 - s;
        ("d", t, s)
      end
  | Wide w ->
      let i = w.wi in
      w.wi <- i + 1;
      let t = if i < wide_ids then i else below w.wr wide_ids in
      ("w", t, bit w.wr)
  | Churn c ->
      let s = c.ci mod churn_slots in
      if c.left.(s) = 0 then begin
        c.cur.(s) <- c.ntraces;
        c.ntraces <- c.ntraces + 1;
        c.left.(s) <- churn_min_len + below c.cr (churn_max_len - churn_min_len + 1)
      end;
      c.left.(s) <- c.left.(s) - 1;
      c.ci <- c.ci + 1;
      ("c", c.cur.(s), bit c.cr)
