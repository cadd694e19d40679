(** Fixed-size worker pool on OCaml 5 domains.

    A pool of [size] computes on [size] domains: the domain calling
    {!map_array} runs tasks itself, beside [size - 1] worker domains that
    drain a shared task queue (protected by a [Mutex.t]/[Condition.t] pair
    — no external dependencies). A pool of size 1 spawns no domain and
    runs everything on the caller. It exists for the compiler's embarrassingly parallel
    hot paths, first of all SMSE neighbourhood evaluation in
    {!Hecate.Explore}: each task is an independent closure with no shared
    mutable state, so work distribution is the only coordination needed.

    Pools are cheap enough to create per search (domain spawn is tens of
    microseconds) but must be {!shutdown} — or wrapped in {!with_pool} —
    to join the worker domains. *)

type t

val default_size : unit -> int
(** [Domain.recommended_domain_count () - 1], clamped to at least 1. The
    size counts the calling domain, so a default pool spawns
    [default_size () - 1] workers and leaves one recommended domain to the
    rest of the process. *)

val create : ?size:int -> unit -> t
(** A pool computing on [size] domains (default {!default_size}; values
    below 1 are clamped to 1): it spawns [size - 1] workers, and the
    caller of {!map_array} is the last. *)

val size : t -> int
(** Number of domains a {!map_array} computes on, the caller included. *)

val map_array : t -> f:('a -> 'b) -> 'a array -> 'b array
(** [map_array t ~f arr] evaluates [f] over every element on the calling
    domain and the pool's workers, and returns once all results are in,
    preserving order. The caller runs only this call's elements, so it
    never waits behind another caller's work. If any task
    raises, one of the raised exceptions is re-raised (with its
    backtrace) in the calling domain after every task has finished —
    the pool itself stays usable. *)

val shutdown : t -> unit
(** Finish the queued tasks, then join every worker domain. Idempotent
    and safe to call concurrently from several threads or domains: every
    caller blocks until the workers are actually joined, whichever call
    does the joining. Work submitted before the shutdown is guaranteed to
    run; {!map_array} on a shut-down pool raises [Invalid_argument]. *)

val with_pool : ?size:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] over a fresh pool and shuts it down afterwards,
    whether [f] returns or raises. *)

(** Process-wide worker pool for the RNS kernel hot loops.

    {!Hecate_rns.Poly} fans its independent per-RNS-component loops (one
    NTT or residue loop per modulus) out over this pool when more than one
    job is configured. The job count comes from {!Kernel.set_jobs} when
    called, else from the [HECATE_KERNEL_JOBS] environment variable, else
    defaults to 1 (serial) — parallel kernels are strictly opt-in so that
    nested parallelism with exploration pools never oversubscribes by
    surprise. A job count of [j] computes on [j] domains: the one calling
    {!Kernel.parallel_for} and [j - 1] workers. Results are bit-identical
    for every job count.

    The pool is spawned lazily on first use, resized on {!Kernel.set_jobs},
    and joined via [at_exit]. Tasks must not themselves call
    {!Kernel.parallel_for}. *)
module Kernel : sig
  val jobs : unit -> int
  (** Effective job count: [set_jobs] override, else [HECATE_KERNEL_JOBS],
      else 1. *)

  val set_jobs : int -> unit
  (** Set the job count (clamped to at least 1; 1 means serial). Resizes
      the shared pool on next use. Do not call concurrently with kernel
      work on other domains. *)

  val parallel_for : int -> (int -> unit) -> unit
  (** [parallel_for count f] runs [f 0 .. f (count-1)], on the shared pool
      when [jobs () > 1] and [count > 1], serially otherwise. Blocks until
      every iteration finished; exceptions propagate after all complete. *)
end
