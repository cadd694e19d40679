module Poly = Hecate_rns.Poly
module Chain = Hecate_rns.Chain
module Prng = Hecate_support.Prng
module Buf = Hecate_support.Buf

type ciphertext = { c0 : Poly.t; c1 : Poly.t; scale : float; level : int }
type plaintext = { poly : Poly.t; pt_scale : float; pt_level : int }
type t = { params : Params.t; encoder : Encoder.t; keys : Keys.t; seed : int; enc_rng : Prng.t }

exception Scale_mismatch of string
exception Level_mismatch of string

let params t = t.params
let encoder t = t.encoder
let keys t = t.keys
let max_level t = t.params.Params.levels
let level ct = ct.level
let scale ct = ct.scale

let create ?(seed = 0xCAFE) params ~rotations =
  let encoder = Encoder.create ~n:params.Params.n in
  let galois_elements =
    List.filter_map
      (fun r ->
        let r = ((r mod (params.Params.n / 2)) + (params.Params.n / 2)) mod (params.Params.n / 2) in
        if r = 0 then None else Some (Encoder.galois_element encoder ~rotation:r))
      rotations
  in
  let keys = Keys.generate ~seed params ~galois_elements in
  { params; encoder; keys; seed; enc_rng = Prng.create ~seed:(seed lxor 0x7E57) }

let restart_encryption t = { t with enc_rng = Prng.create ~seed:(t.seed lxor 0x7E57) }

let level_count t lvl = Chain.length t.params.Params.chain - lvl

let check_level name t lvl =
  if lvl < 0 || lvl > max_level t then raise (Level_mismatch ("Eval." ^ name ^ ": bad level"))

(* Storage the destination forms write into. A register holds (c0, c1),
   and a slot one plaintext, at the width of the level they were made for;
   a value at that level or a deeper one lives in views of their first
   components (Poly.view). *)
type register = { r0 : Poly.t; r1 : Poly.t }
type slot = Poly.t

let storage t ~level_count ~with_special =
  Poly.zero t.params.Params.chain ~level_count ~with_special Poly.Eval

let register_lc t lc =
  let poly () = storage t ~level_count:lc ~with_special:false in
  { r0 = poly (); r1 = poly () }

let register t ~level =
  check_level "register" t level;
  register_lc t (level_count t level)

let slot t ~level =
  check_level "slot" t level;
  storage t ~level_count:(level_count t level) ~with_special:false

(* What key switching and the divisions write besides their result, each
   part made on first use: the switched polynomial's Coeff form, one
   lifted digit, the two extended-basis sums, [prod] (a1 b1 before the
   switch, a mod-down's result after it), the divisions' vectors and a
   fan's digits. A run keeps one and passes it to every operation. *)
type scratch = {
  coeffs : Poly.t Lazy.t;
  prod : Poly.t Lazy.t;
  digit : Poly.t Lazy.t;
  acc0 : Poly.t Lazy.t;
  acc1 : Poly.t Lazy.t;
  temp : Poly.temp;
  hoisted : Poly.t array Lazy.t;
}

let scratch_lc t lc =
  let poly with_special = lazy (storage t ~level_count:lc ~with_special) in
  {
    coeffs = poly false;
    prod = poly false;
    digit = poly true;
    acc0 = poly true;
    acc1 = poly true;
    temp = Poly.temp t.params.Params.chain;
    hoisted = lazy (Array.init lc (fun _ -> storage t ~level_count:lc ~with_special:true));
  }

let scratch t ~level =
  check_level "scratch" t level;
  scratch_lc t (level_count t level)

(* a scratch part's first [lc] chain components, labelled [domain] *)
let at p lc domain = Poly.view (Lazy.force p) ~level_count:lc ~domain

(* [dst]'s views for a ciphertext over [lc] chain primes *)
let target dst lc =
  let view p = Poly.view p ~level_count:lc ~domain:Poly.Eval in
  (view dst.r0, view dst.r1)

let width ct = ct.c0.Poly.level_count

let encode_into t ~dst ~level:lvl ~scale v =
  check_level "encode" t lvl;
  let p = Poly.view dst ~level_count:(level_count t lvl) ~domain:Poly.Coeff in
  Encoder.encode_into t.encoder ~dst:p ~scale v;
  { poly = Poly.to_eval_inplace p; pt_scale = scale; pt_level = lvl }

let encode t ~level ~scale v = encode_into t ~dst:(slot t ~level) ~level ~scale v

(* A constant polynomial takes its value at every evaluation point, so
   its Eval form is the constant's residue in every slot: no transform. *)
let encode_constant_into t ~dst ~level:lvl ~scale c =
  check_level "encode_constant" t lvl;
  let k = Encoder.scaled_constant ~scale c in
  let poly = Poly.view dst ~level_count:(level_count t lvl) ~domain:Poly.Eval in
  Array.iteri
    (fun i d -> Buf.fill d (Hecate_support.Modarith.reduce ~q:(Poly.modulus_at poly i) k))
    poly.Poly.data;
  { poly; pt_scale = scale; pt_level = lvl }

let encode_constant t ~level ~scale c = encode_constant_into t ~dst:(slot t ~level) ~level ~scale c

(* c0 = pk0 u + e0 + m and c1 = pk1 u + e1, assembled over the fresh error
   polynomials, which are drawn into [dst]; the mask [u] takes the
   scratch's [prod]. Each sum of one residue product and at most two
   residues stays below [q^2 < 2^62], so one hardware [mod] reduces it. *)
let encrypt_into t ~scratch ~dst pt =
  if pt.pt_level <> 0 then
    raise (Level_mismatch "Eval.encrypt: fresh ciphertexts are encrypted at level 0");
  let lc = level_count t 0 in
  let chain = t.params.Params.chain in
  if pt.poly.Poly.chain != chain || pt.poly.Poly.level_count <> lc then
    invalid_arg "Eval.encrypt: plaintext from another context";
  let u = Keys.ternary_poly_into t.enc_rng t.params ~dst:(at scratch.prod lc Poly.Coeff) in
  let draw r =
    Keys.error_poly_into t.enc_rng t.params ~dst:(Poly.view r ~level_count:lc ~domain:Poly.Coeff)
  in
  let c0 = draw dst.r0 in
  let c1 = draw dst.r1 in
  let pk0 = t.keys.Keys.public0 and pk1 = t.keys.Keys.public1 in
  for j = 0 to lc - 1 do
    let q = Chain.prime chain j in
    let du = u.Poly.data.(j) and dm = pt.poly.Poly.data.(j) in
    let d0 = c0.Poly.data.(j) and d1 = c1.Poly.data.(j) in
    let p0 = pk0.Poly.data.(j) and p1 = pk1.Poly.data.(j) in
    for i = 0 to Buf.length du - 1 do
      let x = Buf.unsafe_get du i in
      Buf.unsafe_set d0 i
        (((Buf.unsafe_get p0 i * x) + Buf.unsafe_get d0 i + Buf.unsafe_get dm i) mod q);
      Buf.unsafe_set d1 i (((Buf.unsafe_get p1 i * x) + Buf.unsafe_get d1 i) mod q)
    done
  done;
  { c0; c1; scale = pt.pt_scale; level = 0 }

let encrypt t pt = encrypt_into t ~scratch:(scratch t ~level:0) ~dst:(register t ~level:0) pt

(* The plaintext is encoded into the scratch's [coeffs]. *)
let encrypt_vector_into t ~scratch ~dst ~scale v =
  encrypt_into t ~scratch ~dst (encode_into t ~dst:(Lazy.force scratch.coeffs) ~level:0 ~scale v)

let encrypt_vector t ~scale v =
  encrypt_vector_into t ~scratch:(scratch t ~level:0) ~dst:(register t ~level:0) ~scale v

(* [c0 + c1 s], reading the stored full-chain secret's first components. *)
let decrypt t ct =
  let m = Poly.copy ct.c0 in
  Poly.mul_add_into ~acc:m ct.c1 t.keys.Keys.secret_eval;
  let coeffs = Poly.crt_reconstruct_centered (Poly.to_coeff_inplace m) in
  Encoder.decode t.encoder ~scale:ct.scale coeffs

(* scales drift slightly because rescaling primes are not exactly powers of
   two; treat scales within 0.1% as equal, like EVA does. *)
let scales_compatible s1 s2 = Float.abs (s1 -. s2) /. Float.max s1 s2 < 1e-3

let check_binop name a b =
  if a.level <> b.level then
    raise (Level_mismatch (Printf.sprintf "Eval.%s: levels %d vs %d" name a.level b.level))

let check_scales name s1 s2 =
  if not (scales_compatible s1 s2) then
    raise (Scale_mismatch (Printf.sprintf "Eval.%s: scales %.3e vs %.3e" name s1 s2))

(* The allocating forms: a register at the result's level, then the
   destination form. [fresh_below] is for results one level below [ct];
   at the last level it takes [ct]'s, for the operation to reject. *)
let fresh t ct f = f ~dst:(register t ~level:ct.level)
let fresh_below t ct f = f ~dst:(register t ~level:(min (ct.level + 1) (max_level t)))

let copy_into ~dst ct =
  let c0, c1 = target dst (width ct) in
  Poly.copy_into ~dst:c0 ct.c0;
  Poly.copy_into ~dst:c1 ct.c1;
  { ct with c0; c1 }

let add_into _t ~dst a b =
  check_binop "add" a b;
  check_scales "add" a.scale b.scale;
  let c0, c1 = target dst (width a) in
  Poly.add_into ~dst:c0 a.c0 b.c0;
  Poly.add_into ~dst:c1 a.c1 b.c1;
  { a with c0; c1 }

let add t a b = fresh t a (add_into t a b)

let sub_into _t ~dst a b =
  check_binop "sub" a b;
  check_scales "sub" a.scale b.scale;
  let c0, c1 = target dst (width a) in
  Poly.sub_into ~dst:c0 a.c0 b.c0;
  Poly.sub_into ~dst:c1 a.c1 b.c1;
  { a with c0; c1 }

let sub t a b = fresh t a (sub_into t a b)

let negate_into _t ~dst a =
  let c0, c1 = target dst (width a) in
  Poly.neg_into ~dst:c0 a.c0;
  Poly.neg_into ~dst:c1 a.c1;
  { a with c0; c1 }

let negate t a = fresh t a (negate_into t a)

let check_plain name ct pt =
  if ct.level <> pt.pt_level then
    raise (Level_mismatch (Printf.sprintf "Eval.%s: cipher level %d vs plain level %d" name ct.level pt.pt_level))

let add_plain_into _t ~dst ct pt =
  check_plain "add_plain" ct pt;
  check_scales "add_plain" ct.scale pt.pt_scale;
  let c0, c1 = target dst (width ct) in
  Poly.add_into ~dst:c0 ct.c0 pt.poly;
  Poly.copy_into ~dst:c1 ct.c1;
  { ct with c0; c1 }

let add_plain t ct pt = fresh t ct (add_plain_into t ct pt)

let sub_plain_into _t ~dst ct pt =
  check_plain "sub_plain" ct pt;
  check_scales "sub_plain" ct.scale pt.pt_scale;
  let c0, c1 = target dst (width ct) in
  Poly.sub_into ~dst:c0 ct.c0 pt.poly;
  Poly.copy_into ~dst:c1 ct.c1;
  { ct with c0; c1 }

let sub_plain t ct pt = fresh t ct (sub_plain_into t ct pt)

(* Key switching: given d in Eval domain over lc chain primes and a key for
   secret payload s', produce (p0, p1) over the same basis with
   p0 + p1*s ≈ d*s'. *)

(* [switch_sums] sums the digits against the full-level key material
   (key_switch_add reads the key's matching components) with lazy
   reduction, into the scratch's accumulators; [digit i] returns the
   Eval-domain digit [i] of the switched polynomial before the
   automorphism [galois] (1 for none). [mod_down] divides in Eval domain:
   per accumulator one inverse transform of the special component and [lc]
   forward transforms of its lift, where a Coeff round trip takes [lc + 1]
   and [lc]. Every step is exact arithmetic on canonical residues, so the
   pair is bit-identical to summing reduced products and dividing in Coeff
   domain. *)
let switch_sums scratch ~lc ~galois digit (key : Keys.switch_key) =
  let acc0 = at scratch.acc0 lc Poly.Eval and acc1 = at scratch.acc1 lc Poly.Eval in
  for i = 0 to lc - 1 do
    Poly.key_switch_add ~acc0 ~acc1 (digit i) ~k0:key.Keys.k0.(i) ~k1:key.Keys.k1.(i) ~galois
      ~term:i ~terms:lc
  done;
  (acc0, acc1)

let mod_down scratch ~dst acc = Poly.mod_down_special_into ~temp:scratch.temp ~dst acc

(* Digits of the Eval-domain [d] lifted one at a time into the scratch's
   digit buffer and transformed there: each is consumed before the next.
   Digit [i]'s component [i] is [d]'s own, copied (Poly.lift_digit_into),
   so the [lc] digits take [lc] inverse and [lc^2] forward transforms. *)
let scratch_digits scratch ~lc d =
  let coeffs = at scratch.coeffs lc Poly.Coeff in
  Poly.to_coeff_into ~dst:coeffs d;
  let dig = at scratch.digit lc Poly.Eval in
  fun i ->
    Poly.lift_digit_into ~dst:dig coeffs ~eval:d ~digit:i;
    dig

let keyswitch_into _t ~scratch ~dst ~lc d key =
  let acc0, acc1 = switch_sums scratch ~lc ~galois:1 (scratch_digits scratch ~lc d) key in
  let p0, p1 = target dst lc in
  mod_down scratch ~dst:p0 acc0;
  mod_down scratch ~dst:p1 acc1;
  (p0, p1)

let keyswitch t ~lc d key =
  keyswitch_into t ~scratch:(scratch_lc t lc) ~dst:(register_lc t lc) ~lc d key

(* The relinearization sums of [d2 = a1 b1], computed in the scratch's
   [prod]; [prod] is free again once they are. *)
let relin_sums t scratch ~lc a b =
  let d2 = at scratch.prod lc Poly.Eval in
  Poly.mul_into ~dst:d2 a.c1 b.c1;
  switch_sums scratch ~lc ~galois:1 (scratch_digits scratch ~lc d2) t.keys.Keys.relin

(* [d0 = a0 b0] and [d1 = a0 b1 + a1 b0] *)
let cross_terms ~d0 ~d1 a b =
  Poly.mul_into ~dst:d0 a.c0 b.c0;
  Poly.mul_into ~dst:d1 a.c0 b.c1;
  Poly.mul_add_into ~acc:d1 a.c1 b.c0

let mul_into t ~scratch ~dst a b =
  check_binop "mul" a b;
  let lc = width a in
  let acc0, acc1 = relin_sums t scratch ~lc a b in
  let c0, c1 = target dst lc in
  cross_terms ~d0:c0 ~d1:c1 a b;
  let p = at scratch.prod lc Poly.Eval in
  mod_down scratch ~dst:p acc0;
  Poly.add_into ~dst:c0 c0 p;
  mod_down scratch ~dst:p acc1;
  Poly.add_into ~dst:c1 c1 p;
  { c0; c1; scale = a.scale *. b.scale; level = a.level }

let mul t a b = fresh t a (mul_into t ~scratch:(scratch t ~level:a.level) a b)

let mul_plain_into _t ~dst ct pt =
  check_plain "mul_plain" ct pt;
  let c0, c1 = target dst (width ct) in
  Poly.mul_into ~dst:c0 ct.c0 pt.poly;
  Poly.mul_into ~dst:c1 ct.c1 pt.poly;
  { ct with c0; c1; scale = ct.scale *. pt.pt_scale }

let mul_plain t ct pt = fresh t ct (mul_plain_into t ct pt)

(* Rescales in Eval domain (Poly.rescale_last): one inverse and [lc - 1]
   forward transforms per polynomial instead of [lc] and [lc - 1],
   bit-identical to a Coeff round trip. *)
let rescale_into t ~scratch ~dst ct =
  if ct.level >= max_level t then
    raise (Level_mismatch "Eval.rescale: no rescaling prime remains");
  let lc = width ct in
  let dropped_prime = Chain.prime t.params.Params.chain (lc - 1) in
  let c0, c1 = target dst (lc - 1) in
  let temp = scratch.temp in
  Poly.rescale_last_into ~temp ~dst:c0 ct.c0;
  Poly.rescale_last_into ~temp ~dst:c1 ct.c1;
  { c0; c1; scale = ct.scale /. float_of_int dropped_prime; level = ct.level + 1 }

let rescale t ct = fresh_below t ct (rescale_into t ~scratch:(scratch t ~level:ct.level) ct)

(* Fused multiply + rescale. The relinearization mod-down and the rescale
   both divide by a dropped modulus, and in Eval domain each needs the
   forward transform of a lift per kept modulus. Poly.mod_down_rescale
   adds the two lifts before transforming them, so the pair costs one
   forward transform per kept modulus instead of two: [2 lc] fewer
   transforms than [rescale t (mul t a b)], to which it is bit-identical.
   The cross terms take the scratch's [coeffs] and [prod], free once the
   sums are done. *)
let mul_rescale_into t ~scratch ~dst a b =
  check_binop "mul_rescale" a b;
  if a.level >= max_level t then
    raise (Level_mismatch "Eval.mul_rescale: no rescaling prime remains");
  let lc = width a in
  let acc0, acc1 = relin_sums t scratch ~lc a b in
  let d0 = at scratch.coeffs lc Poly.Eval and d1 = at scratch.prod lc Poly.Eval in
  cross_terms ~d0 ~d1 a b;
  let dropped_prime = Chain.prime t.params.Params.chain (lc - 1) in
  let c0, c1 = target dst (lc - 1) in
  let temp = scratch.temp in
  Poly.mod_down_rescale_into ~temp ~dst:c0 acc0 ~plus:d0;
  Poly.mod_down_rescale_into ~temp ~dst:c1 acc1 ~plus:d1;
  { c0; c1; scale = a.scale *. b.scale /. float_of_int dropped_prime; level = a.level + 1 }

let mul_rescale t a b = fresh_below t a (mul_rescale_into t ~scratch:(scratch t ~level:a.level) a b)

let mod_switch_into t ~dst ct =
  if ct.level >= max_level t then
    raise (Level_mismatch "Eval.mod_switch: no chain prime remains");
  let c0, c1 = target dst (width ct - 1) in
  Poly.drop_last_into ~dst:c0 ct.c0;
  Poly.drop_last_into ~dst:c1 ct.c1;
  { ct with c0; c1; level = ct.level + 1 }

let mod_switch t ct = fresh_below t ct (mod_switch_into t ct)

let mod_switch_plain_into t ~dst pt =
  if pt.pt_level >= max_level t then
    raise (Level_mismatch "Eval.mod_switch_plain: no chain prime remains");
  let poly =
    Poly.view dst ~level_count:(pt.poly.Poly.level_count - 1) ~domain:pt.poly.Poly.domain
  in
  Poly.drop_last_into ~dst:poly pt.poly;
  { pt with poly; pt_level = pt.pt_level + 1 }

let mod_switch_plain t pt = mod_switch_plain_into t ~dst:(slot t ~level:pt.pt_level) pt

(* A product with the constant plaintext of {!encode_constant}, whose Eval
   form holds the constant's residue in every slot: one scalar per
   modulus, so nothing is encoded. *)
let upscale_into _t ~dst ct ~factor =
  if factor < 1. then invalid_arg "Eval.upscale: factor must be >= 1";
  (* Round the factor so the recorded scale matches the integer constant the
     encoder actually embeds. *)
  let factor = Float.round factor in
  let k = Encoder.scaled_constant ~scale:factor 1. in
  let ks =
    Array.init (width ct) (fun i ->
        Hecate_support.Modarith.reduce ~q:(Poly.modulus_at ct.c0 i) k)
  in
  let c0, c1 = target dst (width ct) in
  Poly.mul_component_scalars_into ~dst:c0 ct.c0 ks;
  Poly.mul_component_scalars_into ~dst:c1 ct.c1 ks;
  { ct with c0; c1; scale = ct.scale *. factor }

let upscale t ct ~factor = fresh t ct (upscale_into t ct ~factor)

let set_scale _t ct new_scale =
  if Float.abs (new_scale -. ct.scale) /. ct.scale > 0.01 then
    raise (Scale_mismatch "Eval.set_scale: adjustment larger than 1%");
  { ct with scale = new_scale }

let set_scale_into t ~dst ct new_scale = copy_into ~dst (set_scale t ct new_scale)

(* [ct] rotated by the Galois element [galois] into [dst], given the
   Eval-domain digits of its unrotated [c1]. *)
let rotated t scratch ~dst ct ~lc ~galois digit =
  let key = Keys.galois_key t.keys galois in
  let acc0, acc1 = switch_sums scratch ~lc ~galois digit key in
  let c0, c1 = target dst lc in
  Poly.automorphism_eval_into ~dst:c0 ct.c0 ~galois;
  let p0 = at scratch.prod lc Poly.Eval in
  mod_down scratch ~dst:p0 acc0;
  Poly.add_into ~dst:c0 c0 p0;
  mod_down scratch ~dst:c1 acc1;
  { ct with c0; c1 }

let norm_rotation t r =
  let half = t.params.Params.n / 2 in
  ((r mod half) + half) mod half

(* Rotation key switching reads the digits of the unrotated [c1] through
   the Galois permutation: digit extraction commutes with the automorphism
   (the centered lift is symmetric, so negating a residue negates its
   lift), and on Eval-domain vectors the automorphism is the pure slot
   permutation {!Poly.automorphism_eval}. [c0] is permuted in Eval domain
   too, so a rotation pays no Coeff round trip beyond the digit
   decomposition of [c1], whose identity components come from [c1]
   itself. Bit-identical to key-switching the Coeff-domain automorphism
   of [c1]. A rotation by 0 copies. *)
let rotate_into t ~scratch ~dst ct r =
  let r = norm_rotation t r in
  if r = 0 then copy_into ~dst ct
  else begin
    let g = Encoder.galois_element t.encoder ~rotation:r in
    let lc = width ct in
    rotated t scratch ~dst ct ~lc ~galois:g (scratch_digits scratch ~lc ct.c1)
  end

let rotate t ct r = fresh t ct (rotate_into t ~scratch:(scratch t ~level:ct.level) ct r)

(* Hoisted rotation fan (Halevi–Shoup hoisting): every rotation of the same
   ciphertext key-switches an automorphism of the same [c1], and the
   expensive part of key switching — lifting each RNS digit and
   forward-transforming it over the extended basis, lc^2 NTTs — does not
   depend on the rotation amount. So: decompose once, into the scratch's
   fan digits, then per rotation read the cached Eval-domain digits
   through that rotation's permutation. The digit sums run in the same
   order as {!rotate}'s, so every output residue is bit-identical to the
   per-rotation path, which fans of fewer than two non-trivial amounts
   take. *)
let rotate_many_into t ~scratch ~dsts ct rs =
  if List.length dsts <> List.length rs then
    invalid_arg "Eval.rotate_many: one register per amount";
  if List.length (List.filter (fun r -> norm_rotation t r <> 0) rs) < 2 then
    List.map2 (fun dst r -> rotate_into t ~scratch ~dst ct r) dsts rs
  else begin
    let lc = width ct in
    let coeffs = at scratch.coeffs lc Poly.Coeff in
    Poly.to_coeff_into ~dst:coeffs ct.c1;
    let hoisted = Lazy.force scratch.hoisted in
    let digits =
      Array.init lc (fun i ->
          let dig = Poly.view hoisted.(i) ~level_count:lc ~domain:Poly.Eval in
          Poly.lift_digit_into ~dst:dig coeffs ~eval:ct.c1 ~digit:i;
          dig)
    in
    List.map2
      (fun dst r ->
        let r = norm_rotation t r in
        if r = 0 then copy_into ~dst ct
        else begin
          let g = Encoder.galois_element t.encoder ~rotation:r in
          rotated t scratch ~dst ct ~lc ~galois:g (Array.get digits)
        end)
      dsts rs
  end

let rotate_many t ct rs =
  rotate_many_into t ~scratch:(scratch t ~level:ct.level)
    ~dsts:(List.map (fun _ -> register t ~level:ct.level) rs)
    ct rs
