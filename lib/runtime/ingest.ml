(* Trace ingestion: the line protocol is one event per line,

     trace-id symbol

   where trace-id is any whitespace-free token and symbol a decimal
   letter index in [0, alphabet). Blank lines and '#' comments are
   skipped. Trace ids are interned to the dense ints the engine indexes
   by.

   The zero-copy scanner ([scan_line] and the incremental [scanner])
   walks the raw read buffer in place: token bounds are byte offsets,
   symbols parse with a strict decimal digit loop, and trace-id
   interning probes a hash computed over the byte slice — a string is
   materialized only on first sight of a new id (or on the cold error
   path). The tests keep the obvious string-per-field reader as an
   oracle, and a QCheck pin holds the two byte-for-byte equal over
   hostile streams at every block boundary. *)

module Obs = Sl_obs.Obs

(* Pipeline-stage timing: time spent splitting/validating lines between
   chunk flushes (the engine-feed stage is timed by [Engine.feed]
   itself). Recorded once per chunk — the per-line loop never reads the
   clock. The same family is recorded by [Sl_serve.Conn] for the
   socket path. *)
let h_stage_parse =
  Obs.Metrics.histogram
    ~help:"Pipeline stage: line parse/accumulate latency per chunk"
    "stage_ingest_parse_ns"

(* --- Interner ---

   Open-addressed hash table over byte slices: [slots] holds id+1 (0 =
   empty) at positions probed from an FNV-1a hash of the id's bytes,
   resolved by content comparison against [names]. Lookups of known ids
   allocate nothing — the point of the zero-copy path — and [intern] on
   a whole string is the same probe. *)
type t = {
  mutable names : string array;  (* id -> name, dense in [0, n) *)
  mutable n : int;
  mutable slots : int array;  (* open addressing: 0 = empty, else id+1 *)
  mutable mask : int;  (* Array.length slots - 1, power of two minus 1 *)
  mutable r_sym : int;
      (* symbol of the last event [scan_event] accepted — an out-param
         cell so the hot path returns two ints without allocating *)
}

let create () =
  { names = [||]; n = 0; slots = Array.make 64 0; mask = 63; r_sym = 0 }

let ntraces t = t.n

let name t id =
  if id < 0 || id >= t.n then invalid_arg "Ingest.name";
  t.names.(id)

let names t = Array.sub t.names 0 t.n

(* FNV-1a over a byte slice, truncated to a nonnegative OCaml int. *)
let hash_slice s off len =
  let h = ref 0x811c9dc5 in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x01000193
  done;
  !h land max_int

let eq_slice name s off len =
  let i = ref 0 in
  while !i < len && String.unsafe_get name !i = String.unsafe_get s (off + !i)
  do
    incr i
  done;
  !i = len

(* Index of the slot holding the slice's id, or of the first empty slot
   of its probe sequence. The table is kept under half full, so the
   probe terminates. *)
let find_slot t s off len h =
  let mask = t.mask in
  let i = ref (h land mask) in
  let res = ref (-1) in
  while !res < 0 do
    let v = Array.unsafe_get t.slots !i in
    if v = 0 then res := !i
    else begin
      let nm = Array.unsafe_get t.names (v - 1) in
      if String.length nm = len && eq_slice nm s off len then res := !i
      else i := (!i + 1) land mask
    end
  done;
  !res

let rehash t =
  let ncap = 2 * (t.mask + 1) in
  let slots = Array.make ncap 0 in
  let mask = ncap - 1 in
  for id = 0 to t.n - 1 do
    let nm = t.names.(id) in
    let i = ref (hash_slice nm 0 (String.length nm) land mask) in
    while slots.(!i) <> 0 do
      i := (!i + 1) land mask
    done;
    slots.(!i) <- id + 1
  done;
  t.slots <- slots;
  t.mask <- mask

let intern_slice_h t s off len h =
  let slot = find_slot t s off len h in
  let v = t.slots.(slot) in
  if v <> 0 then v - 1
  else begin
    (* first sight: materialize the id exactly once *)
    let str = String.sub s off len in
    if t.n = Array.length t.names then begin
      let cap = max 8 (2 * t.n) in
      (* spare capacity holds a shared empty string — a placeholder
         like [str] would pin an arbitrary trace id alive for as long
         as the slot stays spare *)
      let a = Array.make cap "" in
      Array.blit t.names 0 a 0 t.n;
      t.names <- a
    end;
    let id = t.n in
    t.names.(id) <- str;
    t.n <- id + 1;
    t.slots.(slot) <- id + 1;
    if 2 * t.n >= t.mask + 1 then rehash t;
    id
  end

let intern_slice t s off len = intern_slice_h t s off len (hash_slice s off len)
let intern t s = intern_slice t s 0 (String.length s)

(* First '\n' in [s[off], s[stop])], or -1 — C memchr, word-at-a-time
   where the OCaml byte loop is not. The explicit [stop] bound makes it
   safe on a reusable read buffer whose bytes beyond the fill are
   stale. *)
external find_newline : string -> int -> int -> int = "sl_ingest_memchr_nl"
[@@noalloc]

(* One L1-resident load instead of three compare-branches — this test
   runs for every byte of every token walk. *)
let space_tbl =
  let b = Bytes.make 256 '\000' in
  Bytes.set b (Char.code ' ') '\001';
  Bytes.set b (Char.code '\t') '\001';
  Bytes.set b (Char.code '\r') '\001';
  Bytes.unsafe_to_string b

let is_space c = String.unsafe_get space_tbl (Char.code c) <> '\000'

type error = {
  e_line : int;
  e_trace : string option;
  e_reason : string;
}

let error_to_string e =
  match e.e_trace with
  | Some t -> Printf.sprintf "line %d (trace %s): %s" e.e_line t e.e_reason
  | None -> Printf.sprintf "line %d: %s" e.e_line e.e_reason

(* v*10 + c overflows iff v > max_int/10, or v = max_int/10 and
   c > max_int mod 10 — both bounds are compile-time constants, so the
   digit loop is division-free. *)
let overflow_div = max_int / 10
let overflow_rem = max_int mod 10

(* Strict decimal symbol parse over a slice: an optional '-' followed by
   digits only. Unlike [int_of_string_opt] this rejects the 0x/0o/0b
   radix prefixes and '_' separators ("0x10", "0b1", "1_000" are
   protocol errors, not symbols), and a leading '+'. Allocation-free:
   the value, or [-1] for garbage (non-digits, empty, overflow), [-2]
   for a well-formed negative number (one the protocol forbids). *)
let parse_symbol_raw s off len =
  let neg = len > 0 && String.unsafe_get s off = '-' in
  let start = if neg then off + 1 else off in
  let stop = off + len in
  if start >= stop then -1
  else begin
    let v = ref 0 in
    let ok = ref true in
    let i = ref start in
    while !ok && !i < stop do
      let c = Char.code (String.unsafe_get s !i) - Char.code '0' in
      if c < 0 || c > 9 then ok := false
      else if !v > overflow_div || (!v = overflow_div && c > overflow_rem)
      then ok := false  (* overflow *)
      else begin
        v := (!v * 10) + c;
        incr i
      end
    done;
    if not !ok then -1 else if neg then -2 else !v
  end

type chunk = {
  mutable len : int;
  trace_ids : int array;
  symbols : int array;
}

let create_chunk size =
  if size <= 0 then invalid_arg "Ingest.create_chunk";
  { len = 0; trace_ids = Array.make size 0; symbols = Array.make size 0 }

(* --- Zero-copy line scan ---

   One line as a byte slice [off, off+len) of [s]: find the two token
   bounds in place, parse the symbol with the strict digit loop, and
   only touch the allocator on the cold paths — a new trace id
   (interned once) or an error (the reported trace/symbol strings are
   materialized for the record). The alphabet check happens before the
   intern, so a rejected line never grows the interner, which the
   byte-identity of session snapshots depends on. *)
let scan_line t ~alphabet s off len =
  let stop = off + len in
  let i = ref off in
  while !i < stop && is_space (String.unsafe_get s !i) do incr i done;
  if !i = stop then `Skip
  else begin
    let t0 = !i in
    while !i < stop && not (is_space (String.unsafe_get s !i)) do incr i done;
    let t1 = !i in
    if String.unsafe_get s t0 = '#' then `Skip
    else begin
      while !i < stop && is_space (String.unsafe_get s !i) do incr i done;
      if !i = stop then
        `Error
          ( Some (String.sub s t0 (t1 - t0)),
            "expected \"trace-id symbol\", got one field" )
      else begin
        let s0 = !i in
        while !i < stop && not (is_space (String.unsafe_get s !i)) do
          incr i
        done;
        let s1 = !i in
        while !i < stop && is_space (String.unsafe_get s !i) do incr i done;
        if !i < stop then
          `Error
            ( Some (String.sub s t0 (t1 - t0)),
              "expected \"trace-id symbol\", got extra fields" )
        else
          match parse_symbol_raw s s0 (s1 - s0) with
          | -2 -> `Error (Some (String.sub s t0 (t1 - t0)), "negative symbol")
          | -1 ->
              `Error
                ( Some (String.sub s t0 (t1 - t0)),
                  Printf.sprintf "symbol %S is not an integer"
                    (String.sub s s0 (s1 - s0)) )
          | symbol ->
              if symbol >= alphabet then
                `Error
                  ( Some (String.sub s t0 (t1 - t0)),
                    Printf.sprintf "symbol %d outside alphabet [0, %d)" symbol
                      alphabet )
              else `Event (intern_slice t s t0 (t1 - t0), symbol)
      end
    end
  end

(* The allocation-free fast path over the same slice: accept exactly the
   lines [scan_line] answers [`Event] for, returning the interned trace
   id with the symbol parked in [scanned_symbol] — two ints, no heap.
   Anything else (blank, comment, malformed, out-of-alphabet) is [-1]:
   the caller re-scans with [scan_line] for the exact skip/error result,
   a cold path that touches neither the interner nor the chunk.

   One fused pass over the bytes: the trace-id walk folds the FNV-1a
   interner hash in as it finds the token bound, and the symbol walk
   accumulates the decimal value instead of finding bounds first and
   parsing second — no byte is read twice. *)
let scan_event t ~alphabet s off len =
  let stop = off + len in
  let i = ref off in
  while !i < stop && is_space (String.unsafe_get s !i) do incr i done;
  if !i = stop then -1
  else begin
    let t0 = !i in
    let h = ref 0x811c9dc5 in
    while !i < stop && not (is_space (String.unsafe_get s !i)) do
      h := (!h lxor Char.code (String.unsafe_get s !i)) * 0x01000193;
      incr i
    done;
    let t1 = !i in
    if String.unsafe_get s t0 = '#' then -1
    else begin
      while !i < stop && is_space (String.unsafe_get s !i) do incr i done;
      if !i = stop then -1  (* one field *)
      else begin
        (* [t0 < stop] and [s.[!i]] is non-space, so the digit loop
           always examines at least one byte: [ok] with zero digits is
           impossible. A non-digit ('-', 'x', …) or overflow falls back
           for the exact error. *)
        let v = ref 0 in
        let ok = ref true in
        while !ok && !i < stop && not (is_space (String.unsafe_get s !i)) do
          let c = Char.code (String.unsafe_get s !i) - Char.code '0' in
          if c < 0 || c > 9 then ok := false
          else if
            !v > overflow_div || (!v = overflow_div && c > overflow_rem)
          then ok := false  (* overflow *)
          else begin
            v := (!v * 10) + c;
            incr i
          end
        done;
        if not !ok then -1
        else begin
          while !i < stop && is_space (String.unsafe_get s !i) do incr i done;
          if !i < stop then -1  (* extra fields *)
          else if !v >= alphabet then -1
          else begin
            t.r_sym <- !v;
            intern_slice_h t s t0 (t1 - t0) (!h land max_int)
          end
        end
      end
    end
  end

let scanned_symbol t = t.r_sym

(* --- Incremental scanner over raw read blocks ---

   Feeds arrive as arbitrary byte blocks; complete lines within a block
   are scanned in place, and only a line straddling a block boundary is
   buffered (in [carry]) and re-scanned from the materialized string —
   the cold path, at most once per block. Line numbers count completed
   lines, so errors cite the same 1-based positions no matter where the
   block boundaries fall. *)
type scanner = {
  s_ingest : t;
  s_alphabet : int;
  s_chunk : chunk;
  s_carry : Buffer.t;  (* head of a line split across blocks *)
  mutable s_lineno : int;
  s_on_chunk : chunk -> unit;
  s_on_error : error -> unit;
  mutable s_mark : float;  (* parse-stage mark; NaN = no mark *)
}

let scanner ?(chunk_size = 4096) ~alphabet t ~on_chunk ~on_error =
  {
    s_ingest = t;
    s_alphabet = alphabet;
    s_chunk = create_chunk chunk_size;
    s_carry = Buffer.create 256;
    s_lineno = 0;
    s_on_chunk = on_chunk;
    s_on_error = on_error;
    s_mark = (if Obs.is_enabled () then Obs.Clock.now_us () else nan);
  }

let scan_flush sc =
  let chunk = sc.s_chunk in
  if chunk.len > 0 then begin
    if Obs.is_enabled () && not (Float.is_nan sc.s_mark) then
      Obs.Metrics.observe h_stage_parse
        (int_of_float ((Obs.Clock.now_us () -. sc.s_mark) *. 1e3));
    sc.s_on_chunk chunk;
    chunk.len <- 0;
    sc.s_mark <- (if Obs.is_enabled () then Obs.Clock.now_us () else nan)
  end

let scan_handle sc s off len =
  sc.s_lineno <- sc.s_lineno + 1;
  let t = sc.s_ingest in
  let id = scan_event t ~alphabet:sc.s_alphabet s off len in
  if id >= 0 then begin
    let chunk = sc.s_chunk in
    Array.unsafe_set chunk.trace_ids chunk.len id;
    Array.unsafe_set chunk.symbols chunk.len t.r_sym;
    chunk.len <- chunk.len + 1;
    if chunk.len = Array.length chunk.trace_ids then scan_flush sc
  end
  else
    (* cold: blank/comment/malformed — re-scan for the exact result *)
    match scan_line t ~alphabet:sc.s_alphabet s off len with
    | `Skip -> ()
    | `Error (trace, reason) ->
        sc.s_on_error
          { e_line = sc.s_lineno; e_trace = trace; e_reason = reason }
    | `Event (id, symbol) ->
        (* unreachable: [scan_event] accepts every event line *)
        let chunk = sc.s_chunk in
        Array.unsafe_set chunk.trace_ids chunk.len id;
        Array.unsafe_set chunk.symbols chunk.len symbol;
        chunk.len <- chunk.len + 1;
        if chunk.len = Array.length chunk.trace_ids then scan_flush sc

let scan_string sc s off len =
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Ingest.scan_string";
  let stop = off + len in
  let i = ref off in
  while !i < stop do
    let j = find_newline s !i stop in
    if j >= 0 then begin
      (if Buffer.length sc.s_carry = 0 then scan_handle sc s !i (j - !i)
       else begin
         (* boundary-straddling line: materialize once and re-scan *)
         Buffer.add_substring sc.s_carry s !i (j - !i);
         let line = Buffer.contents sc.s_carry in
         Buffer.clear sc.s_carry;
         scan_handle sc line 0 (String.length line)
       end);
      i := j + 1
    end
    else begin
      Buffer.add_substring sc.s_carry s !i (stop - !i);
      i := stop
    end
  done

(* The scanner never retains a reference into the block past the call
   ([intern_slice] and the error path copy what they keep), so reading
   into one reusable [Bytes.t] and scanning it in place is sound. *)
let scan_bytes sc b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Ingest.scan_bytes";
  scan_string sc (Bytes.unsafe_to_string b) off len

let scan_eof sc =
  if Buffer.length sc.s_carry > 0 then begin
    (* final line without a trailing newline *)
    let line = Buffer.contents sc.s_carry in
    Buffer.clear sc.s_carry;
    scan_handle sc line 0 (String.length line)
  end;
  scan_flush sc

let scan_channel ?chunk_size ?(buf_size = 65536) ~alphabet t ic ~on_chunk
    ~on_error =
  if buf_size <= 0 then invalid_arg "Ingest.scan_channel";
  let sc = scanner ?chunk_size ~alphabet t ~on_chunk ~on_error in
  let buf = Bytes.create buf_size in
  let continue = ref true in
  while !continue do
    let n = input ic buf 0 buf_size in
    if n = 0 then continue := false else scan_bytes sc buf 0 n
  done;
  scan_eof sc
