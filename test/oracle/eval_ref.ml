(* The reference evaluator the fast [Eval] is checked against: every
   product, transform, lift and division runs on [Poly_ref]. Key switching
   allocates fresh polynomials for every digit (lift, NTT, level-restricted
   key copies, products, accumulator sums) and divides by the special prime
   in Coeff domain; a rotation key-switches the Coeff-domain automorphism
   of [c1]; a rescale takes the Coeff round trip; a fused multiply-rescale
   is the composition and a rotation fan one rotation per amount. It reads
   the parameters, keys and encoder of an [Eval.t] and leaves the level,
   scale and key checks to [Eval]. *)

module Poly = Hecate_rns.Poly
module Chain = Hecate_rns.Chain
module Params = Hecate_ckks.Params
module Keys = Hecate_ckks.Keys
module Encoder = Hecate_ckks.Encoder
module Eval = Hecate_ckks.Eval
module R = Poly_ref

type ciphertext = { c0 : Poly.t; c1 : Poly.t; scale : float; level : int }
type plaintext = { poly : Poly.t; pt_scale : float; pt_level : int }

let of_eval (c : Eval.ciphertext) =
  { c0 = c.Eval.c0; c1 = c.Eval.c1; scale = c.Eval.scale; level = c.Eval.level }

let chain t = (Eval.params t).Params.chain
let level_count t lvl = Chain.length (chain t) - lvl

let encode t ~level ~scale v =
  let p = Encoder.encode (Eval.encoder t) (chain t) ~level_count:(level_count t level) ~scale v in
  { poly = R.to_eval p; pt_scale = scale; pt_level = level }

let encode_constant t ~level ~scale c =
  let p =
    Encoder.encode_constant (Eval.encoder t) (chain t) ~level_count:(level_count t level) ~scale c
  in
  { poly = R.to_eval p; pt_scale = scale; pt_level = level }

let decrypt t ct =
  let lc = level_count t ct.level in
  let s =
    R.to_eval
      (Poly.of_centered_coeffs (chain t) ~level_count:lc ~with_special:false
         (Eval.keys t).Keys.secret_coeffs)
  in
  let m = Poly.add ct.c0 (R.mul ct.c1 s) in
  Encoder.decode (Eval.encoder t) ~scale:ct.scale (R.crt_reconstruct_centered (R.to_coeff m))

let add _t a b = { a with c0 = Poly.add a.c0 b.c0; c1 = Poly.add a.c1 b.c1 }
let sub _t a b = { a with c0 = Poly.sub a.c0 b.c0; c1 = Poly.sub a.c1 b.c1 }
let negate _t a = { a with c0 = Poly.neg a.c0; c1 = Poly.neg a.c1 }
let add_plain _t ct pt = { ct with c0 = Poly.add ct.c0 pt.poly }
let sub_plain _t ct pt = { ct with c0 = Poly.sub ct.c0 pt.poly }

let mul_plain _t ct pt =
  { ct with c0 = R.mul ct.c0 pt.poly; c1 = R.mul ct.c1 pt.poly; scale = ct.scale *. pt.pt_scale }

(* Given [d] in Coeff domain over [lc] chain primes and a key for secret
   payload s', produce (p0, p1) over the same basis with p0 + p1*s ≈ d*s'. *)
let keyswitch t ~lc d (key : Keys.switch_key) =
  let chain = chain t in
  let acc0 = ref (Poly.zero chain ~level_count:lc ~with_special:true Poly.Eval) in
  let acc1 = ref (Poly.zero chain ~level_count:lc ~with_special:true Poly.Eval) in
  for i = 0 to lc - 1 do
    let dig = R.to_eval (R.lift_digit d ~digit:i ~with_special:true) in
    let k0 = Poly.restrict_levels key.Keys.k0.(i) ~level_count:lc in
    let k1 = Poly.restrict_levels key.Keys.k1.(i) ~level_count:lc in
    acc0 := Poly.add !acc0 (R.mul dig k0);
    acc1 := Poly.add !acc1 (R.mul dig k1)
  done;
  let p0 = R.mod_down_special (R.to_coeff !acc0) in
  let p1 = R.mod_down_special (R.to_coeff !acc1) in
  (R.to_eval p0, R.to_eval p1)

let mul t a b =
  let lc = level_count t a.level in
  let d0 = R.mul a.c0 b.c0 in
  let d1 = Poly.add (R.mul a.c0 b.c1) (R.mul a.c1 b.c0) in
  let d2 = R.mul a.c1 b.c1 in
  let p0, p1 = keyswitch t ~lc (R.to_coeff d2) (Eval.keys t).Keys.relin in
  { c0 = Poly.add d0 p0; c1 = Poly.add d1 p1; scale = a.scale *. b.scale; level = a.level }

let rescale t ct =
  let dropped_prime = Chain.prime (chain t) (level_count t ct.level - 1) in
  let rescale_poly p = R.to_eval (R.rescale_last (R.to_coeff p)) in
  {
    c0 = rescale_poly ct.c0;
    c1 = rescale_poly ct.c1;
    scale = ct.scale /. float_of_int dropped_prime;
    level = ct.level + 1;
  }

let mul_rescale t a b = rescale t (mul t a b)

let mod_switch _t ct =
  { ct with c0 = Poly.drop_last ct.c0; c1 = Poly.drop_last ct.c1; level = ct.level + 1 }

let mod_switch_plain _t pt = { pt with poly = Poly.drop_last pt.poly; pt_level = pt.pt_level + 1 }

let upscale t ct ~factor =
  let factor = Float.round factor in
  mul_plain t ct (encode_constant t ~level:ct.level ~scale:factor 1.)

let set_scale _t ct scale = { ct with scale }

let rotate t ct r =
  let half = (Eval.params t).Params.n / 2 in
  let r = ((r mod half) + half) mod half in
  if r = 0 then ct
  else begin
    let g = Encoder.galois_element (Eval.encoder t) ~rotation:r in
    let lc = level_count t ct.level in
    let key = Keys.galois_key (Eval.keys t) g in
    let c0r = Poly.automorphism (R.to_coeff ct.c0) ~galois:g in
    let c1r = Poly.automorphism (R.to_coeff ct.c1) ~galois:g in
    let p0, p1 = keyswitch t ~lc c1r key in
    { ct with c0 = Poly.add (R.to_eval c0r) p0; c1 = p1 }
  end

let rotate_many t ct rs = List.map (rotate t ct) rs
