(** A zero-dependency fixed-size domain pool (OCaml 5 [Domain] +
    [Atomic]; no domainslib).

    A pool is a parallelism budget: [jobs] domains cooperate on each
    parallel region, claiming contiguous index chunks through a shared
    atomic cursor. The degenerate pool ([jobs = 1]) compiles
    {!parallel_for} to the plain sequential loop — no atomics, no domains,
    no allocation beyond the caller's own — so sequential runs are
    bit-for-bit the code that ran before the pool existed. The one
    caller in the tree, [Registry.compile_all], is written so its
    observable results are byte-identical at every [jobs] (see
    DESIGN.md §6.9 for the determinism argument).

    Regions do not nest: a worker body that starts another parallel
    region raises (a [jobs = 1] region inside a worker is fine — it is
    just a loop). Exceptions raised by a worker body cancel the
    region's remaining chunks and are re-raised to the caller after
    every domain has joined (the first exception in chunk-claim order
    wins). *)

type t

val create : ?jobs:int -> unit -> t
(** A pool of [jobs] domains (the calling domain counts as one; [jobs
    - 1] are spawned per parallel region). Default: {!default_jobs}.
    @raise Invalid_argument if [jobs < 1]. *)

val jobs : t -> int

val default_jobs : unit -> int
(** The process-wide default parallelism, [1] unless overridden — at
    startup by the [SLC_JOBS] environment variable, later by
    {!set_default_jobs} (the CLI's [-j]). Registry compilation
    defaults to a pool of this size. *)

val set_default_jobs : int -> unit
(** @raise Invalid_argument if [jobs < 1]. *)

val parallel_for : ?chunk:int -> t -> n:int -> (int -> unit) -> unit
(** [parallel_for pool ~n f] runs [f i] for every [0 <= i < n], each
    index exactly once. Workers claim chunks of [chunk] consecutive
    indices (default: [n] split in about four chunks per domain) via
    an atomic cursor, so the assignment of indices to domains is
    load-balanced and non-deterministic — the body must not depend on
    it. With [jobs pool = 1], or [n = 1], this is exactly
    [for i = 0 to n - 1 do f i done]; callers apply their own
    work-size cutoff before entering a region.
    @raise Invalid_argument on [chunk < 1] or nested use. *)
