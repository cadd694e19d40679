(** Which operations execute together: the two structural optimizations of
    the SEAL dialect, decided once for the estimator and the lowering.

    - {b Mul -> Rescale fusion}: a ciphertext-ciphertext [Mul] whose only
      use is a [Rescale] runs as one fused multiply-rescale at the
      [Rescale] (one NTT round-trip saved, bit-identical result).
    - {b Rotation fans}: when one value is rotated by two or more distinct
      amounts, its first [Rotate] computes all of them from one hoisted
      digit decomposition; the later [Rotate]s of that value (including
      repeats of an amount) take their result from it. *)

type role =
  | Single  (** runs on its own *)
  | Fused_mul  (** a multiply that runs at its [Rescale] *)
  | Fused_rescale  (** the [Rescale] that runs a fused multiply *)
  | Fan_head of int list
      (** first [Rotate] of a fan: computes the rotations by these distinct
          amounts, in first-use order *)
  | Fan_member  (** a later [Rotate] of a fan: computed at the head *)

val analyze : Prog.t -> role array
(** The role of every operation, indexed by value id. Fusion needs typed
    operands (it applies to ciphertext products only); on an untyped
    program no multiply is fused. *)
