(** Polynomials of [Z_Q\[X\]/(X^n + 1)] in RNS (double-CRT) representation.

    A polynomial carries one residue vector per active modulus: the first
    [level_count] chain primes, plus optionally the special prime. Residues
    are stored either in coefficient form ([Coeff]) or NTT/evaluation form
    ([Eval]); operations check that operands agree on basis and domain. *)

type domain = Coeff | Eval

type t = private {
  chain : Chain.t;
  level_count : int; (** number of chain primes present, [1 <= level_count <= L] *)
  with_special : bool;
  domain : domain;
  data : Hecate_support.Buf.t array;
      (** [data.(i)] are the residues modulo chain prime [i]; if
          [with_special] then the final entry holds the special-prime
          residues. Components are O(1) views into one flat unboxed
          allocation (see {!Hecate_support.Buf}), so the GC never scans
          coefficient payloads. *)
}

val zero : Chain.t -> level_count:int -> with_special:bool -> domain -> t
val copy : t -> t

val view : t -> level_count:int -> domain:domain -> t
(** [view p ~level_count ~domain] is [p]'s first [level_count] chain
    components, and its special component when it has one, labelled
    [domain]. It shares [p]'s residue storage: only a small array of
    component views is allocated. A ciphertext register holds storage for
    its widest level, and the destination forms below write through views
    of it at the level of each result. The label is a claim about the
    residues: a view is meant as a destination, which the writer fills.
    [level_count] must lie in [1 .. p.level_count]. *)

val copy_into : dst:t -> t -> unit
(** [copy_into ~dst p] sets [dst <- p]; same basis and domain. *)

val component_count : t -> int
(** [level_count + (1 if with_special)]. *)

val modulus_at : t -> int -> int
(** Modulus of component [i] (the special prime for the last component when
    present). *)

val of_centered_coeffs : Chain.t -> level_count:int -> with_special:bool -> int array -> t
(** Build a [Coeff]-domain polynomial from centered integer coefficients
    (each in [(-2^62, 2^62)]), reducing modulo every active modulus. *)

val of_centered_coeffs_into : dst:t -> int array -> unit
(** {!of_centered_coeffs} into the [Coeff]-domain [dst]. *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t

val mul : t -> t -> t
(** Point-wise product; both operands must be in [Eval] domain. *)

(** {2 Destination-buffer forms}

    The [_into] variants write into an existing polynomial instead of
    allocating a result, eliminating the per-operation allocation churn in
    hot paths (key switching accumulates into two buffers across all
    digits). Every allocating operation of this module is its destination
    form applied to a fresh polynomial. The destination must share the
    operands' basis and domain. The forms in this group are element-wise,
    so the destination may alias either operand; the structure-changing
    forms further down may not. *)

val add_into : dst:t -> t -> t -> unit
(** [add_into ~dst a b] sets [dst <- a + b]. *)

val sub_into : dst:t -> t -> t -> unit
(** [sub_into ~dst a b] sets [dst <- a - b]. *)

val mul_into : dst:t -> t -> t -> unit
(** [mul_into ~dst a b] sets [dst <- a * b] point-wise; all three must be
    in [Eval] domain. *)

val neg_into : dst:t -> t -> unit
(** [neg_into ~dst a] sets [dst <- -a]. *)

val mul_component_scalars_into : dst:t -> t -> int array -> unit
(** {!mul_component_scalars} into [dst]. *)

val mul_add_into : acc:t -> t -> t -> unit
(** [mul_add_into ~acc a b] sets [acc <- acc + a * b] point-wise ([Eval]
    domain). The multiplier [b] may carry a deeper basis than [acc] and [a]
    ([b.level_count >= a.level_count], same chain and special flag): chain
    component [i] of [b] is read directly and [b]'s special component is
    used for [a]'s special slot. This lets full-level key material be
    consumed at a reduced ciphertext level without [restrict_levels]
    copies. *)

val key_switch_add :
  acc0:t -> acc1:t -> t -> k0:t -> k1:t -> galois:int -> term:int -> terms:int -> unit
(** [key_switch_add ~acc0 ~acc1 dig ~k0 ~k1 ~galois ~term ~terms] adds
    [σ(dig) * k0] to [acc0] and [σ(dig) * k1] to [acc1] point-wise, where
    [σ] is the automorphism [X -> X^galois] applied as the slot permutation
    of {!automorphism_eval} ([galois = 1] reads [dig] as it is). It is
    term [term] of the [terms]-term key-switching inner product
    [Σ_i σ(digit_i) * key_i]. All operands are in [Eval] domain; the keys
    may carry a deeper basis, as in {!mul_add_into}.

    The sum is reduced lazily: per modulus [q], only the terms that would
    let it pass [max_int] ([(max_int - q) / (q - 1)^2] products after a
    reduction) and the last term reduce. Term 0 overwrites [acc0] and
    [acc1] with its products, so they need not be cleared first; between
    terms they hold unreduced sums, and after term [terms - 1] canonical
    residues, equal to a sum reduced at every term. *)

val lift_digit_into : dst:t -> t -> eval:t -> digit:int -> unit
(** [lift_digit_into ~dst p ~eval ~digit:i] extracts the RNS digit [i] of
    the [Coeff]-domain [p] (its residues modulo [q_i]), lifts each
    coefficient to its centered representative, reduces it modulo every
    modulus of [dst] and writes the forward transform of the result into
    the [Eval]-domain [dst] (same chain and level count as [p], with or
    without the special prime). [eval] is [to_eval p]. Digit [i] lifted
    to [q_i] is [p]'s own residue [i], so component [i] is copied from
    [eval] instead of transformed: a key switch over [l] digits pays [l]
    fewer forward transforms. *)

val mul_scalar : t -> int -> t
(** Multiply every residue by a non-negative integer constant (reduced per
    modulus). Domain-agnostic. *)

val mul_component_scalars : t -> int array -> t
(** [mul_component_scalars p ks] multiplies component [i] by [ks.(i)], where
    each [ks.(i)] is already reduced modulo that component's modulus. Used
    for gadget factors such as [P * w_i] whose integer value exceeds the
    native range. [Array.length ks] must equal [component_count p]. *)

val to_eval : t -> t
(** NTT-transform a [Coeff] polynomial (identity on [Eval]). Allocates a
    fresh polynomial; the argument is unchanged. *)

val to_coeff : t -> t
(** Inverse-NTT an [Eval] polynomial (identity on [Coeff]). Allocates a
    fresh polynomial; the argument is unchanged. *)

val to_eval_inplace : t -> t
(** Destructive {!to_eval}: transforms the residue arrays in place and
    returns a shell sharing them with the updated [domain]. The argument
    must not be used afterwards (its [domain] field is stale). Intended for
    freshly-built intermediates whose coefficient form is never needed
    again. *)

val to_coeff_inplace : t -> t
(** Destructive {!to_coeff}; same ownership contract as
    {!to_eval_inplace}. *)

val to_coeff_into : dst:t -> t -> unit
(** [to_coeff_into ~dst p] writes the [Coeff] form of [p] into the
    [Coeff]-labelled [dst] (same basis): a copy, inverse-transformed in
    place when [p] is in [Eval] domain. *)

val automorphism : t -> galois:int -> t
(** [automorphism p ~galois:g] applies [X -> X^g] ([g] odd). Operand must be
    in [Coeff] domain. *)

val automorphism_eval : t -> galois:int -> t
(** [automorphism_eval p ~galois:g] applies [X -> X^g] directly to an
    [Eval]-domain polynomial as a slot permutation — bit-identical to
    [to_eval (automorphism (to_coeff p) ~galois:g)] without the two NTT
    round-trips (see {!Hecate_support.Ntt.galois_perm}). Rotation permutes
    [c0] with it; key switching reads its digits through the same
    permutation ({!key_switch_add}). *)

val automorphism_eval_into : dst:t -> t -> galois:int -> unit
(** {!automorphism_eval} into [dst], which must not share storage with
    the operand. *)

(** {2 Divisions}

    The destination forms of the divisions take their scratch vectors from
    a {!temp}, so a run that keeps one allocates nothing per call. Their
    destination must not share storage with the operands. *)

type temp
(** Scratch residue vectors of one ring degree, owned by one caller at a
    time. A division makes the vectors it needs beyond those the [temp]
    holds, and the [temp] keeps them for the next call. *)

val temp : Chain.t -> temp
(** No vectors yet, for operands over the chain's ring degree. *)

val rescale_last : t -> t
(** Exact RNS rescale: divide by the last chain prime with centered rounding
    and drop it. Requires no special component and [level_count >= 2].
    Either domain; the result is in the operand's domain. In [Eval] domain
    only the dropped component is inverse-transformed, and the result is
    bit-identical to [to_eval (rescale_last (to_coeff p))]. *)

val rescale_last_into : temp:temp -> dst:t -> t -> unit
(** {!rescale_last} into [dst] (one chain component fewer, same domain). *)

val drop_last : t -> t
(** Drop the last chain prime without dividing (modswitch). Domain-agnostic.
    Requires no special component and [level_count >= 2]. *)

val drop_last_into : dst:t -> t -> unit
(** {!drop_last} into [dst]: a copy of the kept components. *)

val mod_down_special : t -> t
(** Divide by the special prime with centered rounding and drop it (the
    tail of key switching). Requires [with_special]. Either domain, as for
    {!rescale_last}: in [Eval] domain only the special component is
    inverse-transformed, bit-identical to
    [to_eval (mod_down_special (to_coeff p))]. *)

val mod_down_special_into : temp:temp -> dst:t -> t -> unit
(** {!mod_down_special} into [dst] (the chain components only). *)

val mod_down_rescale : t -> plus:t -> t
(** [mod_down_rescale acc ~plus:d] is
    [rescale_last (add d (mod_down_special acc))] for [Eval]-domain [acc]
    (with the special component) and [d] (without it, same level count
    [>= 2]), bit for bit, with the two divisions sharing their forward
    transforms: one forward transform per kept modulus and two inverse
    transforms, against [2 level_count - 1] forward and two inverse for
    the composition. The tail of a fused multiply-and-rescale. *)

val mod_down_rescale_into : temp:temp -> dst:t -> t -> plus:t -> unit
(** {!mod_down_rescale} into [dst]. *)

val restrict_levels : t -> level_count:int -> t
(** Keep only the first [level_count] chain components (and the special
    component when present). Used to evaluate full-basis key material at a
    reduced ciphertext level. Domain-agnostic. *)

val crt_reconstruct_centered : t -> float array
(** Exact CRT (Garner) reconstruction of each coefficient to its centered
    integer value, returned as nearest doubles. Requires [Coeff] domain and
    no special component. *)

val equal : t -> t -> bool
(** Structural equality of basis, domain and residues. *)
