(** Encryption-parameter selection for a scale-managed, typed program.

    From the scales and levels the type checker assigned, compute the
    modulus chain the program needs (constraint C1 with headroom for the
    message integer part) and the ring degree the security standard would
    demand. Because this repository runs its CKKS substrate at reduced
    degrees, the selection separately reports the degree used for actual
    execution (capped, documented in DESIGN.md). *)

type t = {
  q0_bits : int; (** base prime size *)
  sf_bits : int; (** rescaling prime size (the paper's S_f) *)
  chain_levels : int; (** number of rescaling primes in the chain *)
  log_q : float; (** total ciphertext-modulus bits *)
  secure_n : int; (** degree the 128-bit security table requires *)
  slot_count : int; (** slots the program was written for *)
}

val select :
  ?q0_bits:int ->
  ?margin_bits:float ->
  sf_bits:int ->
  types:Hecate_ir.Types.t array ->
  slot_count:int ->
  unit ->
  t
(** [select ~sf_bits ~types ~slot_count ()] sizes the chain so that every
    value satisfies [scale + margin <= q0 + (chain_levels - level) * sf].
    [margin_bits] (default 6.0) is headroom for message magnitude.
    @raise Invalid_argument if some scale cannot fit even at level 0. *)

val of_prog : ?q0_bits:int -> ?margin_bits:float -> sf_bits:int -> Hecate_ir.Prog.t -> t
(** {!select} over the types annotated on a typed program's ops
    ({!Hecate_ir.Typing.check} sets them), for its slot count, with no
    type array built. *)

val num_primes_at : t -> level:int -> int
(** Chain primes still present at a rescaling level. *)
