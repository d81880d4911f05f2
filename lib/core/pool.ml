type t = { jobs : int }

(* Always-on scheduling counters: a multi-domain pool silently running
   everything sequentially (tiny inputs) is invisible from
   timings alone, so the decision itself is recorded — even with the
   obs kernel dark. One atomic bump per region, never per element. *)
let m_tasks =
  Sl_obs.Obs.Metrics.counter ~help:"Parallel regions run on worker domains"
    "pool_tasks_total"

let m_seq_fallback =
  Sl_obs.Obs.Metrics.counter
    ~help:"Regions on a multi-domain pool that fell back to the \
           sequential loop (single-element region)"
    "pool_seq_fallback_total"

let parse_jobs s =
  match int_of_string_opt (String.trim s) with
  | Some j when j >= 1 -> Some j
  | _ -> None

let default =
  Atomic.make
    (match Option.bind (Sys.getenv_opt "SLC_JOBS") parse_jobs with
    | Some j -> j
    | None -> 1)

let default_jobs () = Atomic.get default

let set_default_jobs j =
  if j < 1 then invalid_arg "Pool.set_default_jobs: jobs must be >= 1";
  Atomic.set default j

let create ?jobs () =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  { jobs }

let jobs pool = pool.jobs

(* One region at a time, process-wide: worker bodies that open another
   parallel region would deadlock a real work-stealing pool and
   silently oversubscribe this one, so they are rejected instead. The
   flag is only consulted on the parallel path — the [jobs = 1] loops
   below never touch it, which is what lets a sequential combinator run
   inside a parallel worker body. *)
let active = Atomic.make false

let enter_region () =
  if not (Atomic.compare_and_set active false true) then
    invalid_arg "Pool: nested parallel region"

let exit_region () = Atomic.set active false

(* Workers claim [chunk]-sized index ranges through [next] until the
   range is exhausted or some body has raised. The first exception in
   claim order is kept and re-raised on the caller's domain after all
   workers have joined; claiming stops early so a failed region winds
   down without running the remaining chunks. *)
let run_region ~jobs ~chunk ~n f =
  let nchunks = (n + chunk - 1) / chunk in
  let next = Atomic.make 0 in
  let error = Atomic.make None in
  let worker () =
    let continue = ref true in
    while !continue do
      let c = Atomic.fetch_and_add next 1 in
      if c >= nchunks || Atomic.get error <> None then continue := false
      else begin
        let lo = c * chunk in
        let hi = min n (lo + chunk) in
        try
          for i = lo to hi - 1 do
            f i
          done
        with e ->
          ignore (Atomic.compare_and_set error None (Some (c, e)))
      end
    done
  in
  enter_region ();
  let spawned =
    Array.init (min (jobs - 1) (nchunks - 1)) (fun _ -> Domain.spawn worker)
  in
  worker ();
  Array.iter Domain.join spawned;
  exit_region ();
  (* [error] holds the first *claimed* failing chunk, which with racing
     workers need not be the lowest-index one; keeping (chunk, exn)
     would let us prefer the lowest, but any body exception aborts the
     whole region, so first-claimed is as meaningful and cheaper. *)
  match Atomic.get error with Some (_, e) -> raise e | None -> ()

let default_chunk ~jobs n = max 1 ((n + (4 * jobs) - 1) / (4 * jobs))

let parallel_for ?chunk pool ~n f =
  (match chunk with
  | Some c when c < 1 -> invalid_arg "Pool.parallel_for: chunk must be >= 1"
  | _ -> ());
  if n > 0 then begin
    if pool.jobs = 1 || n = 1 then begin
      if pool.jobs > 1 then Sl_obs.Obs.Metrics.incr_always m_seq_fallback;
      for i = 0 to n - 1 do
        f i
      done
    end
    else begin
      Sl_obs.Obs.Metrics.incr_always m_tasks;
      let chunk =
        match chunk with
        | Some c -> c
        | None -> default_chunk ~jobs:pool.jobs n
      in
      run_region ~jobs:pool.jobs ~chunk ~n f
    end
  end
