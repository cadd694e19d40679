(** RNS-CKKS key material.

    Key switching uses the hybrid (special-prime) technique with per-prime
    RNS digit decomposition: switching key component [i] encrypts
    [P * w_i * s'] under [s], where [w_i] is the CRT gadget weight for chain
    prime [i] and [P] the special prime. *)

type switch_key = private {
  k0 : Hecate_rns.Poly.t array; (** per digit, [Eval] domain, full basis + special *)
  k1 : Hecate_rns.Poly.t array;
}

type t = private {
  params : Params.t;
  secret_coeffs : int array; (** centered ternary secret *)
  secret_eval : Hecate_rns.Poly.t; (** [s] in [Eval] over the full chain (no special) *)
  public0 : Hecate_rns.Poly.t; (** [-(a s) + e], [Eval], full chain *)
  public1 : Hecate_rns.Poly.t; (** [a] *)
  relin : switch_key;
  galois : (int, switch_key) Hashtbl.t; (** keyed by Galois element *)
}

val generate : ?seed:int -> Params.t -> galois_elements:int list -> t
(** [generate params ~galois_elements] draws a fresh key set; a rotation key
    is created for each listed Galois element (duplicates are merged). *)

val error_poly :
  Hecate_support.Prng.t -> Params.t -> level_count:int -> with_special:bool -> Hecate_rns.Poly.t
(** A fresh RLWE error polynomial in [Eval] domain: [n] centered binomial
    draws with the parameters' [error_sigma_eta], over the first
    [level_count] chain primes (and the special prime when
    [with_special]). *)

val ternary_poly : Hecate_support.Prng.t -> Params.t -> level_count:int -> Hecate_rns.Poly.t
(** A fresh uniform ternary polynomial in [Eval] domain over the first
    [level_count] chain primes (the encryption mask [u]). *)

val error_poly_into :
  Hecate_support.Prng.t -> Params.t -> dst:Hecate_rns.Poly.t -> Hecate_rns.Poly.t
(** {!error_poly} over [dst]'s basis, written into the [Coeff]-labelled
    [dst] and transformed there; returns [dst]'s [Eval] view. Draws what
    {!error_poly} draws. *)

val ternary_poly_into :
  Hecate_support.Prng.t -> Params.t -> dst:Hecate_rns.Poly.t -> Hecate_rns.Poly.t
(** {!ternary_poly} into [dst], as {!error_poly_into}. *)

val galois_key : t -> int -> switch_key
(** @raise Not_found if no key was generated for that element. *)

