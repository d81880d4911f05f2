(* Runs one program with stdout to a file and reports its wall time and
   peak RSS:

     launch OUT PROG ARG...   prints "CODE WALL_S MAXRSS_KB"

   The peak RSS a child reports includes its parent's resident set at
   the fork, so [run.py], whose Python heap holds the
   checked verdict sets, must not be that parent. This launcher is a
   few MB. *)

external wait4 : int -> int * int = "perfbench_wait4"

let () =
  match Array.to_list Sys.argv with
  | _ :: out :: prog :: args ->
      let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
      let t0 = Unix.gettimeofday () in
      let pid =
        Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin fd
          Unix.stderr
      in
      let code, rss = wait4 pid in
      let wall = Unix.gettimeofday () -. t0 in
      Printf.printf "%d %.6f %d\n" code wall rss
  | _ ->
      prerr_endline "usage: launch OUT PROG ARG...";
      exit 2
