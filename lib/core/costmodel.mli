(** Cost models for RNS-CKKS operations (paper §VI-C).

    The latency of an RNS-CKKS operation is determined by the number of RNS
    primes still present in the operands — [num_primes = L - level] — and the
    ring degree [n]: linear or quadratic in the prime count, linear or
    log-linear in [n]. A model maps an operation class and those two
    parameters to seconds. The estimator consumes a model; the backend can
    build one from profiled measurements of the real evaluator. *)

type op_class =
  | Cipher_add (** also sub / negate between ciphertexts *)
  | Plain_add
  | Cipher_mul (** tensor + relinearization *)
  | Plain_mul
  | Rotate
  | Rotate_hoisted
      (** marginal rotation in a hoisted fan: the digit decomposition of the
          shared source is paid once (by the fan's first [Rotate]) and each
          further rotation only permutes the cached digits *)
  | Rescale
  | Mul_rescale
      (** fused ciphertext multiply + rescale (one NTT round-trip saved
          relative to [Cipher_mul] followed by [Rescale]) *)
  | Modswitch
  | Encode

type t = { cost : op_class -> num_primes:int -> n:int -> float (** seconds *) }

val analytic : ?units_per_second:float -> unit -> t
(** Structural model counting modular-arithmetic work: NTTs are
    [n log2 n] units, linear passes [n] units per prime; key switching is
    quadratic in the prime count. [units_per_second] calibrates units to
    wall-clock (default [2.5e8], roughly this machine). *)

val of_table : (op_class * int * int, float) Hashtbl.t -> fallback:t -> t
(** Model backed by measured samples keyed by [(class, num_primes, n)];
    missing entries fall back to [fallback] rescaled to agree with the
    nearest measured prime count when one exists. The nearest-neighbour
    choice is deterministic: when two measured prime counts are
    equidistant from the query, the smaller one wins (never the hash-table
    iteration order), so estimates are reproducible run-to-run for the
    same table contents. *)

val classes : op_class list
val class_name : op_class -> string

val num_classes : int

val index : op_class -> int
(** Position of a class in {!classes}, from 0 to [num_classes - 1]. *)
