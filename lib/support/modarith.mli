(** Modular arithmetic over word-sized odd prime moduli.

    All moduli handled by this module are at most 31 bits wide so that the
    product of two residues fits in OCaml's 63-bit native [int] without
    overflow. Residues are kept in canonical form, i.e. in [\[0, q)].

    Besides the naive operations, the module provides the Shoup kernel
    for a fixed operand [w] (NTT twiddles, [n^-1]): the precomputed
    [w' = floor(w * 2^31 / q)] lets {!mulmod_shoup} reduce with a single
    estimated-quotient multiply and no division (see docs/PERFORMANCE.md).
    Hot loops elsewhere reduce with a hardware [mod] written in their own
    module, which under dune's [-opaque] builds beats any call into this
    one. *)

val max_modulus_bits : int
(** Largest supported modulus width in bits (31). *)

val add : q:int -> int -> int -> int
(** [add ~q a b] is [(a + b) mod q] for canonical [a], [b]. *)

val sub : q:int -> int -> int -> int
(** [sub ~q a b] is [(a - b) mod q], canonical. *)

val neg : q:int -> int -> int
(** [neg ~q a] is [(-a) mod q], canonical. *)

val mul : q:int -> int -> int -> int
(** [mul ~q a b] is [(a * b) mod q] by hardware division. Requires
    [q < 2^31]. The reference against which {!mulmod_shoup} is
    validated. *)

val shoup : q:int -> int -> int
(** [shoup ~q w] is the Shoup precomputation [floor(w * 2^31 / q)] for a
    canonical [w]. @raise Invalid_argument if [w] is not in [\[0, q)]. *)

val mulmod_shoup : q:int -> int -> int -> int -> int
(** [mulmod_shoup ~q a w w'] is [(a * w) mod q] given [w' = shoup ~q w].
    Requires canonical [a] and [q < 2^31]; agrees exactly with {!mul}. *)

val pow : q:int -> int -> int -> int
(** [pow ~q b e] is [b^e mod q] by square-and-multiply. [e >= 0]. [b] may
    be any native integer (negative bases are normalized first). *)

val inv : q:int -> int -> int
(** [inv ~q a] is the multiplicative inverse of [a] modulo the prime [q].
    @raise Invalid_argument if [a = 0 mod q]. *)

val reduce : q:int -> int -> int
(** [reduce ~q a] maps any native integer (possibly negative) to canonical
    form in [\[0, q)]. *)

val to_centered : q:int -> int -> int
(** [to_centered ~q a] maps a canonical residue to the centered representative
    in [(-q/2, q/2\]]. *)

val of_centered : q:int -> int -> int
(** Inverse of {!to_centered}; same as [reduce]. *)
