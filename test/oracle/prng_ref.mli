(** Deterministic pseudo-random number generation (xoshiro256 "starstar").

    Every random choice in the repository flows through an explicit generator
    state so that key generation, encryption and synthetic workloads are
    reproducible from a seed. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] initialises a generator from a 63-bit seed via splitmix64
    expansion. *)

val copy : t -> t
(** Independent copy of the current state. *)

val split : t -> string -> t
(** [split g name] derives a named sub-stream: a fresh generator whose state
    is a hash of [g]'s {e current} state and [name]. The parent state is
    read, not advanced, so sibling sub-streams are independent of the order
    they are derived in and [split g name] is reproducible for as long as
    [g] has not been advanced. Distinct names yield decorrelated streams.
    Used by the fuzzer to make program-shape, constant and input draws
    independently reproducible from one printed seed. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int_below : t -> int -> int
(** [int_below g n] is uniform in [\[0, n)]. Requires [0 < n]. Rejection
    sampling; unbiased. *)

val uniform_mod : t -> int -> int
(** [uniform_mod g q] is a uniform canonical residue modulo [q]. *)

val float01 : t -> float
(** Uniform float in [\[0, 1)]. *)

val ternary : t -> int
(** Uniform in [{-1, 0, 1}] — the CKKS secret-key distribution. *)

val centered_binomial : t -> eta:int -> int
(** Centered binomial sample with parameter [eta]: the difference of two
    [eta]-bit popcounts, in [\[-eta, eta\]]. Approximates a discrete Gaussian
    of standard deviation [sqrt (eta / 2)]; [eta = 21] gives the usual
    sigma ≈ 3.2 RLWE error. *)

val gaussian : t -> sigma:float -> float
(** Box–Muller Gaussian with standard deviation [sigma]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
