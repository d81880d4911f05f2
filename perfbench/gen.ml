(* Workload generator: property files and event streams for a seed.

     gen props WORKLOAD FILE
     gen stream WORKLOAD SEED EVENTS FILE

   Writes the first EVENTS events of WORKLOAD's stream for SEED to FILE
   ("-" for stdout) and prints the bytes written. *)

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "props"; w; file ] ->
      let oc = open_out file in
      List.iter (fun p -> output_string oc (p ^ "\n")) (Streams.props w);
      close_out oc
  | [ "stream"; w; seed; events; file ] ->
      let oc = if file = "-" then stdout else open_out_bin file in
      let k = Streams.sink oc in
      let st = Streams.stream w ~seed:(int_of_string seed) in
      for _ = 1 to int_of_string events do
        let prefix, n, sym = Streams.next st in
        Streams.emit k prefix n sym
      done;
      Streams.close_sink k;
      if file <> "-" then close_out oc;
      Printf.printf "%d\n" k.Streams.bytes
  | _ ->
      prerr_endline "usage: gen props W FILE | gen stream W SEED EVENTS FILE";
      exit 2
