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
    prime [p ≡ 1 (mod 2n)]. Tables are immutable and memoised per
    [(p, n)] process-wide: a second call returns the first call's table.
    Safe to call from multiple domains. *)

val prime : table -> int
val degree : table -> int

val forward : table -> Buf.t -> unit
(** In-place forward negacyclic NTT. Input and output are canonical residues.
    The output ordering is an internal (bit-reversed) one; it is consistent
    between {!forward} and {!inverse} and suitable for point-wise products.
    Primes with [2p <= 2^31] (and [n >= 4]) take lazy radix-4 butterflies
    that keep intermediate values in [\[0, 2p)]; wider primes take strict
    radix-2 butterflies. Both give the same output. *)

val inverse : table -> Buf.t -> unit
(** In-place inverse transform; [inverse t (forward t a) = a]. It takes
    lazy radix-4 or strict butterflies under the same condition as
    {!forward}, and folds the scaling by [n^-1] into the last stage's
    multipliers. *)

val galois_perm : table -> galois:int -> int array
(** [galois_perm t ~galois:g] is the slot permutation the automorphism
    [X -> X^g] ([g] odd) induces on forward-transformed vectors:
    [out.(j) = in.(perm.(j))] applied point-wise equals transforming
    [f(X^g)] directly. The permutation depends only on the ring degree and
    [g] (not the prime), and is cached process-wide; safe to call from
    multiple domains. Hoisted rotation key switching uses it to rotate
    already-decomposed digits without leaving the Eval domain. *)
