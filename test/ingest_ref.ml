(* Reference trace-line reader for the tests: the line protocol parsed
   the obvious way, a string per line and per field. It is kept only as
   the oracle that the zero-copy [Sl_runtime.Ingest] scanner is compared
   against, byte for byte: same events in order, same interner contents,
   same structured errors with the same 1-based line numbers.

   One event per line, [trace-id symbol]: blank lines and '#' comments
   are skipped; the symbol is strict decimal (digits only, overflow is
   garbage), so the 0x/0o/0b radix prefixes, '_' separators and a
   leading '+' that [int_of_string_opt] accepts are malformed. *)

module Ingest = Sl_runtime.Ingest

let is_space c = c = ' ' || c = '\t' || c = '\r'

let split_fields s =
  let n = String.length s in
  let fields = ref [] in
  let i = ref 0 in
  while !i < n do
    while !i < n && is_space s.[!i] do incr i done;
    if !i < n then begin
      let start = !i in
      while !i < n && not (is_space s.[!i]) do incr i done;
      fields := String.sub s start (!i - start) :: !fields
    end
  done;
  List.rev !fields

let is_decimal s =
  s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

(* A digits-only string that [int_of_string_opt] still refuses is out of
   range: garbage, like any other non-number. *)
let parse_symbol sym =
  let neg = String.length sym > 0 && sym.[0] = '-' in
  let digits = if neg then String.sub sym 1 (String.length sym - 1) else sym in
  match if is_decimal digits then int_of_string_opt digits else None with
  | None -> `Garbage
  | Some _ when neg -> `Negative
  | Some v -> `Symbol v

let parse_line line =
  match split_fields line with
  | [] -> `Skip
  | field :: _ when String.length field > 0 && field.[0] = '#' -> `Skip
  | [ trace; sym ] -> (
      match parse_symbol sym with
      | `Symbol symbol -> `Event (trace, symbol)
      | `Negative -> `Malformed (Some trace, "negative symbol")
      | `Garbage ->
          `Malformed
            (Some trace, Printf.sprintf "symbol %S is not an integer" sym))
  | [ trace ] ->
      `Malformed (Some trace, "expected \"trace-id symbol\", got one field")
  | trace :: _ ->
      `Malformed (Some trace, "expected \"trace-id symbol\", got extra fields")

(* Pull lines until [next_line] returns [None], batching valid events
   into one reused chunk and reporting malformed or out-of-alphabet lines
   to [on_error]. The alphabet check precedes interning, so a rejected
   line never grows the interner. *)
let read ?(chunk_size = 4096) ~alphabet t ~next_line ~on_chunk ~on_error =
  let chunk = Ingest.create_chunk chunk_size in
  let flush () =
    if chunk.Ingest.len > 0 then begin
      on_chunk chunk;
      chunk.Ingest.len <- 0
    end
  in
  let lineno = ref 0 in
  let continue = ref true in
  while !continue do
    match next_line () with
    | None -> continue := false
    | Some line -> (
        incr lineno;
        match parse_line line with
        | `Skip -> ()
        | `Malformed (trace, reason) ->
            on_error
              { Ingest.e_line = !lineno; e_trace = trace; e_reason = reason }
        | `Event (trace, symbol) when symbol >= alphabet ->
            on_error
              { Ingest.e_line = !lineno; e_trace = Some trace;
                e_reason =
                  Printf.sprintf "symbol %d outside alphabet [0, %d)" symbol
                    alphabet }
        | `Event (trace, symbol) ->
            let k = chunk.Ingest.len in
            chunk.Ingest.trace_ids.(k) <- Ingest.intern t trace;
            chunk.Ingest.symbols.(k) <- symbol;
            chunk.Ingest.len <- k + 1;
            if k + 1 = chunk_size then flush ())
  done;
  flush ()
