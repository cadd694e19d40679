(** Typing rules for scale-managed HECATE IR (paper §IV-B, Eq. 1-6).

    The checker enforces the RNS-CKKS constraints:
    - C1: every scale stays below the modulus remaining at its level
      (checked when [max_log_q] is supplied);
    - C2: rescaling and downscaling never push a ciphertext scale below the
      waterline;
    - C3: binary operations require equal operand levels, and additions
      equal operand scales.

    Scales are in log2. *)

type config = {
  sf : float; (** log2 of the rescaling factor [S_f] (the rescale prime size) *)
  waterline : float; (** log2 of the waterline [S_w] *)
  max_level : int option; (** number of rescaling primes available, if fixed *)
  max_log_q : float; (** total log2 ciphertext modulus for C1; [infinity] to skip *)
}

val config : ?max_level:int -> ?max_log_q:float -> sf:float -> waterline:float -> unit -> config

val infer : config -> Prog.kind -> Types.t array -> (Types.t, Diagnostic.t) result
(** Result type of one operation from its operand types. Error diagnostics
    carry a {!Diagnostic.code} and a suggested fix but no op id (the rule
    does not know which op it is typing) — {!check} fills that in. *)

val check : config -> Prog.t -> (unit, Diagnostic.t) result
(** Type the whole program, storing each op's type on the op, and verify
    every constraint, including that outputs are ciphertexts. Error
    diagnostics name the offending op, its operand types, and its surface
    provenance; [Diagnostic.to_string] reproduces the pre-structured error
    strings exactly. *)

val check_exn : config -> Prog.t -> unit
(** @raise Invalid_argument with the legacy verifier message
    ([Diagnostic.to_string] of the diagnostic) on failure. *)
