(** RNS modulus chains for RNS-CKKS.

    A chain holds the ciphertext primes [q_0 .. q_{L-1}] (decreasing
    significance: rescaling drops the {e last} prime first) plus one special
    prime [P] used only during key switching, together with every
    precomputation key switching and rescaling need:

    - per-prime negacyclic NTT tables;
    - the key-switching gadget weights
      [w_i = (Q_L / q_i) * ((Q_L / q_i)^{-1} mod q_i)] reduced modulo every
      modulus of the extended basis;
    - [q_l^{-1} mod q_i] for exact RNS rescaling at every level;
    - [P^{-1} mod q_i] for the mod-down after key switching;
    - Garner mixed-radix inverses for exact CRT reconstruction at decode. *)

type t

val create : n:int -> q0_bits:int -> sf_bits:int -> levels:int -> special_bits:int -> t
(** [create ~n ~q0_bits ~sf_bits ~levels ~special_bits] builds a chain for
    ring degree [n] with one [q0_bits]-bit base prime, [levels] rescaling
    primes of [sf_bits] bits each (so [L = levels + 1] chain primes) and a
    [special_bits]-bit key-switching prime. All primes are distinct and
    NTT-friendly for [n].
    @raise Invalid_argument on unattainable parameters. *)

val degree : t -> int
val length : t -> int
(** Number of ciphertext primes [L]. *)

val prime : t -> int -> int
(** [prime c i] is [q_i], [0 <= i < length c]. *)

val primes : t -> int array
(** Copy of the chain primes. *)

val special_prime : t -> int
val table : t -> int -> Hecate_support.Ntt.table
(** NTT table for chain prime [i]. *)

val special_table : t -> Hecate_support.Ntt.table

val log2_q : t -> upto:int -> float
(** [log2_q c ~upto] is [log2 (q_0 * ... * q_{upto-1})]. *)

val gadget_weight : t -> digit:int -> modulus_index:int -> int
(** [gadget_weight c ~digit:i ~modulus_index:j] is [w_i mod q_j]; pass
    [modulus_index = length c] for [w_i mod P]. *)

val rescale_inv : t -> dropped:int -> int -> int
(** [rescale_inv c ~dropped:l i] is [q_l^{-1} mod q_i] for [i < l]. *)

val special_inv : t -> int -> int
(** [special_inv c i] is [P^{-1} mod q_i]. *)

val garner_inv : t -> int -> int -> int
(** [garner_inv c j i] is [q_j^{-1} mod q_i] for [j < i], used by CRT
    reconstruction. *)

val modulus_product : t -> upto:int -> Hecate_support.Bigint.t
(** [modulus_product c ~upto] is [q_0 * ... * q_{upto-1}] exactly. *)
