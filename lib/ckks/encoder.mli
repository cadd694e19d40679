(** CKKS canonical-embedding encoder.

    Real slot vectors of length [N/2] are mapped to integer polynomials of
    degree [N] via the canonical embedding: slot [j] is the evaluation of the
    message polynomial at [zeta^(5^j mod 2N)] where [zeta = exp(i*pi/N)].
    Ordering slots along the orbit of 5 makes the Galois automorphism
    [X -> X^(5^r)] act as a cyclic rotation of the slot vector. *)

type t
(** Cached orbit tables and FFT buffers for one ring degree. *)

val create : n:int -> t

val slots : t -> int

val encode :
  t -> Hecate_rns.Chain.t -> level_count:int -> scale:float -> float array -> Hecate_rns.Poly.t
(** [encode enc chain ~level_count ~scale v] encodes the slot vector [v]
    (length at most [slots enc]; shorter vectors are zero-padded) at the
    given scale into a [Coeff]-domain polynomial over the first
    [level_count] chain primes.
    @raise Invalid_argument if a rounded coefficient would overflow the
    native integer range (scale too large for the message). *)

val encode_into : t -> dst:Hecate_rns.Poly.t -> scale:float -> float array -> unit
(** {!encode} into the [Coeff]-domain [dst] (its chain and level count,
    no special component). *)

val encode_constant :
  t -> Hecate_rns.Chain.t -> level_count:int -> scale:float -> float -> Hecate_rns.Poly.t
(** [encode_constant enc chain ~level_count ~scale c] encodes the constant
    vector [c, c, ..., c] exactly (a degree-0 polynomial with coefficient
    [round (c * scale)]), bypassing the FFT.
    @raise Invalid_argument if that coefficient would overflow the native
    integer range. *)

val scaled_constant : scale:float -> float -> int
(** [scaled_constant ~scale c] is the coefficient [round (c * scale)] that
    {!encode_constant} embeds; the Eval form of that encoding holds its
    residue in every slot.
    @raise Invalid_argument as {!encode_constant} does. *)

val decode : t -> scale:float -> float array -> float array
(** [decode enc ~scale coeffs] maps centered real coefficients (length [N])
    back to the [N/2] slot values. *)

val galois_element : t -> rotation:int -> int
(** [galois_element enc ~rotation:r] is [5^r mod 2N], the automorphism that
    rotates slots left by [r] (negative [r] rotates right). *)
