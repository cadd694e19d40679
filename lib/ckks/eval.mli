(** RNS-CKKS evaluator: encryption, decryption and homomorphic operations.

    A ciphertext carries its scale (as an exact double) and its rescaling
    level (number of chain primes consumed); the polynomial components live
    over the first [L - level] chain primes in NTT form. Operations enforce
    the RNS-CKKS constraints: operands of binary operations must be at the
    same level, and addition operands must agree on scale (within the small
    drift that non-power-of-two primes introduce). *)

type ciphertext = private {
  c0 : Hecate_rns.Poly.t;
  c1 : Hecate_rns.Poly.t;
  scale : float;
  level : int;
}

type plaintext = private { poly : Hecate_rns.Poly.t; pt_scale : float; pt_level : int }

type t
(** Evaluator context: parameters, encoder, keys, encryption randomness. *)

exception Scale_mismatch of string
exception Level_mismatch of string

val create : ?seed:int -> Params.t -> rotations:int list -> t
(** [create params ~rotations] generates keys, including one rotation key per
    distinct slot-rotation amount in [rotations]. *)

val restart_encryption : t -> t
(** A context sharing [t]'s keys whose encryptions draw from the start of
    [t]'s encryption stream, as a context just created from the same seed
    would. [t]'s own stream does not move: each holder of a shared context
    encrypts reproducibly, whatever the others encrypt. *)

(** {2 Storage for the destination forms}

    Every operation below that yields a ciphertext or a plaintext has a
    destination form, [op_into], that writes its result into storage the
    caller owns and returns a value over it; the allocating [op] is
    [op_into] given fresh storage. An executor that
    keeps its storage for a whole run allocates no residues per
    operation. A destination must not hold an operand of the operation
    that writes it. Storage is plain mutable memory: one owner at a time,
    never shared between domains. [t] itself holds none, so one [t] serves
    concurrent runs that each bring their own. *)

type register
(** Storage for one ciphertext, [(c0, c1)], at the level it was made for
    or any deeper one. A ciphertext written into it lives in its storage
    until the register is written again. *)

type slot
(** Storage for one plaintext, as {!register}. *)

type scratch
(** What key switching and the divisions write besides their result:
    the switched polynomial's Coeff form, one digit, the two
    extended-basis sums, a mod-down result, the divisions' temporary
    vectors and a rotation fan's digits. Each part is allocated on first
    use and reused after that. *)

val register : t -> level:int -> register
val slot : t -> level:int -> slot

val scratch : t -> level:int -> scratch
(** Scratch for operations on ciphertexts at [level] or any deeper one. *)

val params : t -> Params.t
val encoder : t -> Encoder.t
val keys : t -> Keys.t
val max_level : t -> int

val encode : t -> level:int -> scale:float -> float array -> plaintext

val encode_into : t -> dst:slot -> level:int -> scale:float -> float array -> plaintext
(** The slot vector's [Coeff] form is written into [dst] and transformed
    there. *)

val encode_constant : t -> level:int -> scale:float -> float -> plaintext
val encode_constant_into : t -> dst:slot -> level:int -> scale:float -> float -> plaintext

val encrypt : t -> plaintext -> ciphertext

val encrypt_into : t -> scratch:scratch -> dst:register -> plaintext -> ciphertext
(** [scratch] and [dst] must be made for level 0. *)

val encrypt_vector : t -> scale:float -> float array -> ciphertext
(** Encrypt at level 0. *)

val encrypt_vector_into :
  t -> scratch:scratch -> dst:register -> scale:float -> float array -> ciphertext

val decrypt : t -> ciphertext -> float array
(** Decrypt and decode to the [N/2] slot values. *)

val level : ciphertext -> int
val scale : ciphertext -> float

val add : t -> ciphertext -> ciphertext -> ciphertext
val add_into : t -> dst:register -> ciphertext -> ciphertext -> ciphertext
val sub : t -> ciphertext -> ciphertext -> ciphertext
val sub_into : t -> dst:register -> ciphertext -> ciphertext -> ciphertext
val negate : t -> ciphertext -> ciphertext
val negate_into : t -> dst:register -> ciphertext -> ciphertext
val add_plain : t -> ciphertext -> plaintext -> ciphertext
val add_plain_into : t -> dst:register -> ciphertext -> plaintext -> ciphertext
val sub_plain : t -> ciphertext -> plaintext -> ciphertext
val sub_plain_into : t -> dst:register -> ciphertext -> plaintext -> ciphertext

val mul : t -> ciphertext -> ciphertext -> ciphertext
(** Ciphertext product with relinearization; the result scale is the product
    of the operand scales. *)

val mul_into : t -> scratch:scratch -> dst:register -> ciphertext -> ciphertext -> ciphertext

val mul_plain : t -> ciphertext -> plaintext -> ciphertext
val mul_plain_into : t -> dst:register -> ciphertext -> plaintext -> ciphertext

val rescale : t -> ciphertext -> ciphertext
(** Drop the last chain prime with exact RNS division: the scale shrinks by
    that prime (≈ [2^sf_bits]) and the level grows by one.
    @raise Level_mismatch when no rescaling prime remains. *)

val rescale_into : t -> scratch:scratch -> dst:register -> ciphertext -> ciphertext

val mul_rescale : t -> ciphertext -> ciphertext -> ciphertext
(** [mul_rescale t a b] is bit-identical to [rescale t (mul t a b)] but
    fuses the relinearization mod-down with the rescale
    ({!Hecate_rns.Poly.mod_down_rescale}): both divisions share one forward
    transform per kept modulus, saving [2 lc] transforms per ciphertext
    multiplication at [lc] chain primes.
    @raise Level_mismatch when no rescaling prime remains. *)

val mul_rescale_into :
  t -> scratch:scratch -> dst:register -> ciphertext -> ciphertext -> ciphertext

val mod_switch : t -> ciphertext -> ciphertext
(** Drop the last chain prime without dividing: level + 1, scale unchanged. *)

val mod_switch_into : t -> dst:register -> ciphertext -> ciphertext

val mod_switch_plain : t -> plaintext -> plaintext
(** [modswitch] for plaintexts: drop the last prime of the encoded
    polynomial (scale unchanged, level + 1). *)

val mod_switch_plain_into : t -> dst:slot -> plaintext -> plaintext

val upscale : t -> ciphertext -> factor:float -> ciphertext
(** Multiply by the exactly-encoded constant 1 at scale [factor]: the scale
    is multiplied by [factor], the level is unchanged. The product with
    {!encode_constant}'s plaintext, computed as one scalar multiply per
    modulus. *)

val upscale_into : t -> dst:register -> ciphertext -> factor:float -> ciphertext

val set_scale : t -> ciphertext -> float -> ciphertext
(** Relabel the ciphertext's scale (SEAL's scale-adjustment idiom). The new
    scale must be within 1% of the current one; the message acquires a
    relative error of the same magnitude. Used to absorb the drift of
    near-power-of-two rescaling primes before additions. It copies
    nothing: the result shares [ct]'s storage. *)

val set_scale_into : t -> dst:register -> ciphertext -> float -> ciphertext
(** {!set_scale} copied into [dst], for a result that must own its
    storage. *)

val rotate : t -> ciphertext -> int -> ciphertext
(** [rotate t ct r] rotates slots left by [r] (negative [r]: right). Requires
    the matching rotation key.
    @raise Not_found if the key set lacks that rotation. *)

val rotate_into : t -> scratch:scratch -> dst:register -> ciphertext -> int -> ciphertext
(** A rotation by 0 copies [ct] into [dst]. *)

val rotate_many : t -> ciphertext -> int list -> ciphertext list
(** [rotate_many t ct rs] rotates [ct] by every amount in [rs]
    (result [i] corresponds to [rs]'s element [i]) with Halevi–Shoup
    hoisting: the RNS digit decomposition and its forward transforms —
    the dominant cost of rotation key switching — are computed once for
    [ct] and shared by all rotations, each of which only permutes the
    cached Eval-domain digits (read through each rotation's slot
    permutation, not copied). Every result is bit-identical to the
    corresponding [rotate t ct r]; with fewer than two non-trivial amounts
    it simply maps {!rotate}. *)

val rotate_many_into :
  t -> scratch:scratch -> dsts:register list -> ciphertext -> int list -> ciphertext list
(** Result [i] is written into [dsts]'s element [i]; the registers must be
    distinct. The digits are kept in [scratch]. *)

val keyswitch :
  t ->
  lc:int ->
  Hecate_rns.Poly.t ->
  Keys.switch_key ->
  Hecate_rns.Poly.t * Hecate_rns.Poly.t
(** [keyswitch t ~lc d key]: hybrid key switching of the [Eval]-domain
    polynomial [d] (over the first [lc] chain primes) against [key],
    returning [(p0, p1)] in [Eval] domain with [p0 + p1*s ≈ d*s'] where
    [s'] is the key's secret payload. It takes each digit's own component
    from [d] instead of transforming it, sums the digit products with
    lazy reduction and divides by the special prime in [Eval] domain; all
    of it is bit-identical to key-switching [to_coeff d] with every digit
    transformed, every product reduced and the division in [Coeff]
    domain. Exposed for the kernel microbenchmarks; [mul] and [rotate]
    share its code. *)

val keyswitch_into :
  t ->
  scratch:scratch ->
  dst:register ->
  lc:int ->
  Hecate_rns.Poly.t ->
  Keys.switch_key ->
  Hecate_rns.Poly.t * Hecate_rns.Poly.t
(** {!keyswitch} with [(p0, p1)] written into [dst]. *)
