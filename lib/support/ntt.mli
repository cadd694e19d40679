(** Negacyclic number-theoretic transform modulo an NTT-friendly prime.

    A table caches the powers of a primitive [2n]-th root of unity [ψ] in
    bit-reversed order (Longa–Naehrig layout), together with their Shoup
    precomputations ([floor(w * 2^31 / p)]). Point-wise multiplication of
    two forward-transformed vectors followed by {!inverse} computes the
    product in [Z_p\[X\]/(X^n + 1)].

    Residue vectors are {!Buf.t} — unboxed Bigarray storage the GC never
    scans (see buf.mli); transforms mutate them in place.

    The {!forward}/{!inverse} butterflies use Shoup multiplication and
    contain no division instruction. *)

type table
(** Precomputed twiddle factors for one (prime, degree) pair. *)

val make_table : p:int -> n:int -> table
(** [make_table ~p ~n] builds tables for degree [n] (a power of two) and
    prime [p ≡ 1 (mod 2n)]. *)

val prime : table -> int
val degree : table -> int

val forward : table -> Buf.t -> unit
(** In-place forward negacyclic NTT. Input and output are canonical residues.
    The output ordering is an internal (bit-reversed) one; it is consistent
    between {!forward} and {!inverse} and suitable for point-wise products. *)

val inverse : table -> Buf.t -> unit
(** In-place inverse transform; [inverse t (forward t a) = a]. *)

val pointwise_mul : table -> Buf.t -> Buf.t -> Buf.t -> unit
(** [pointwise_mul t dst a b] sets [dst.(i) <- a.(i) * b.(i) mod p]. [dst]
    may alias [a] or [b]. *)

val galois_perm : table -> galois:int -> int array
(** [galois_perm t ~galois:g] is the slot permutation the automorphism
    [X -> X^g] ([g] odd) induces on forward-transformed vectors:
    [out.(j) = in.(perm.(j))] applied point-wise equals transforming
    [f(X^g)] directly. The permutation depends only on the ring degree and
    [g] (not the prime), and is cached process-wide; safe to call from
    multiple domains. Hoisted rotation key switching uses it to rotate
    already-decomposed digits without leaving the Eval domain. *)
