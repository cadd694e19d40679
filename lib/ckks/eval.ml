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

let encode t ~level:lvl ~scale v =
  check_level "encode" t lvl;
  let p =
    Encoder.encode t.encoder t.params.Params.chain ~level_count:(level_count t lvl) ~scale v
  in
  { poly = Poly.to_eval p; pt_scale = scale; pt_level = lvl }

(* A constant polynomial takes its value at every evaluation point, so
   its Eval form is the constant's residue in every slot: no transform. *)
let encode_constant t ~level:lvl ~scale c =
  check_level "encode_constant" t lvl;
  let k = Encoder.scaled_constant ~scale c in
  let poly =
    Poly.zero t.params.Params.chain ~level_count:(level_count t lvl) ~with_special:false Poly.Eval
  in
  Array.iteri
    (fun i dst -> Buf.fill dst (Hecate_support.Modarith.reduce ~q:(Poly.modulus_at poly i) k))
    poly.Poly.data;
  { poly; pt_scale = scale; pt_level = lvl }

(* c0 = pk0 u + e0 + m and c1 = pk1 u + e1, assembled over the fresh error
   polynomials. Each sum of one residue product and at most two residues
   stays below [q^2 < 2^62], so one hardware [mod] reduces it. *)
let encrypt t pt =
  if pt.pt_level <> 0 then
    raise (Level_mismatch "Eval.encrypt: fresh ciphertexts are encrypted at level 0");
  let lc = level_count t 0 in
  let chain = t.params.Params.chain in
  if pt.poly.Poly.chain != chain || pt.poly.Poly.level_count <> lc then
    invalid_arg "Eval.encrypt: plaintext from another context";
  let u = Keys.ternary_poly t.enc_rng t.params ~level_count:lc in
  let c0 = Keys.error_poly t.enc_rng t.params ~level_count:lc ~with_special:false in
  let c1 = Keys.error_poly t.enc_rng t.params ~level_count:lc ~with_special:false in
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

let encrypt_vector t ~scale v = encrypt t (encode t ~level:0 ~scale v)

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

let add _t a b =
  check_binop "add" a b;
  if not (scales_compatible a.scale b.scale) then
    raise (Scale_mismatch (Printf.sprintf "Eval.add: scales %.3e vs %.3e" a.scale b.scale));
  { a with c0 = Poly.add a.c0 b.c0; c1 = Poly.add a.c1 b.c1 }

let sub _t a b =
  check_binop "sub" a b;
  if not (scales_compatible a.scale b.scale) then
    raise (Scale_mismatch (Printf.sprintf "Eval.sub: scales %.3e vs %.3e" a.scale b.scale));
  { a with c0 = Poly.sub a.c0 b.c0; c1 = Poly.sub a.c1 b.c1 }

let negate _t a = { a with c0 = Poly.neg a.c0; c1 = Poly.neg a.c1 }

let check_plain name ct pt =
  if ct.level <> pt.pt_level then
    raise (Level_mismatch (Printf.sprintf "Eval.%s: cipher level %d vs plain level %d" name ct.level pt.pt_level))

let add_plain _t ct pt =
  check_plain "add_plain" ct pt;
  if not (scales_compatible ct.scale pt.pt_scale) then
    raise (Scale_mismatch (Printf.sprintf "Eval.add_plain: scales %.3e vs %.3e" ct.scale pt.pt_scale));
  { ct with c0 = Poly.add ct.c0 pt.poly }

let sub_plain _t ct pt =
  check_plain "sub_plain" ct pt;
  if not (scales_compatible ct.scale pt.pt_scale) then
    raise (Scale_mismatch (Printf.sprintf "Eval.sub_plain: scales %.3e vs %.3e" ct.scale pt.pt_scale));
  { ct with c0 = Poly.sub ct.c0 pt.poly }

(* Key switching: given d in Eval domain over lc chain primes and a key for
   secret payload s', produce (p0, p1) over the same basis with
   p0 + p1*s ≈ d*s'. *)

(* [switch_sums] sums the digits against the full-level key material
   (key_switch_add reads the key's matching components) with lazy
   reduction; [digit i] returns the Eval-domain digit [i] of the switched
   polynomial before the automorphism [galois] (1 for none). [mod_down]
   divides in Eval domain: per accumulator one inverse transform of the
   special component and [lc] forward transforms of its lift, where a
   Coeff round trip takes [lc + 1] and [lc]. Every step is exact arithmetic
   on canonical residues, so the pair is bit-identical to summing reduced
   products and dividing in Coeff domain. *)
let switch_sums t ~lc ~galois digit (key : Keys.switch_key) =
  let chain = t.params.Params.chain in
  let acc0 = Poly.zero chain ~level_count:lc ~with_special:true Poly.Eval in
  let acc1 = Poly.zero chain ~level_count:lc ~with_special:true Poly.Eval in
  for i = 0 to lc - 1 do
    Poly.key_switch_add ~acc0 ~acc1 (digit i) ~k0:key.Keys.k0.(i) ~k1:key.Keys.k1.(i) ~galois
      ~term:i ~terms:lc
  done;
  (acc0, acc1)

let mod_down (acc0, acc1) = (Poly.mod_down_special acc0, Poly.mod_down_special acc1)

(* Digits of the Eval-domain [d] lifted one at a time into a single
   scratch buffer and transformed there: each is consumed before the next.
   Digit [i]'s component [i] is [d]'s own, copied (Poly.lift_digit_into),
   so the [lc] digits take [lc] inverse and [lc^2] forward transforms. *)
let scratch_digits t ~lc d =
  let coeffs = Poly.to_coeff d in
  let dig = Poly.zero t.params.Params.chain ~level_count:lc ~with_special:true Poly.Eval in
  fun i ->
    Poly.lift_digit_into ~dst:dig coeffs ~eval:d ~digit:i;
    dig

let keyswitch t ~lc d (key : Keys.switch_key) =
  mod_down (switch_sums t ~lc ~galois:1 (scratch_digits t ~lc d) key)

(* The product's parts before the relinearization mod-down:
   [d0 = a0 b0], [d1 = a0 b1 + a1 b0] and the extended-basis key-switch
   sums of [d2 = a1 b1]. *)
let mul_parts t ~lc a b =
  let d0 = Poly.mul a.c0 b.c0 in
  let d1 = Poly.mul a.c0 b.c1 in
  Poly.mul_add_into ~acc:d1 a.c1 b.c0;
  let d2 = Poly.mul a.c1 b.c1 in
  (d0, d1, switch_sums t ~lc ~galois:1 (scratch_digits t ~lc d2) t.keys.Keys.relin)

let mul t a b =
  check_binop "mul" a b;
  let lc = level_count t a.level in
  let d0, d1, sums = mul_parts t ~lc a b in
  let p0, p1 = mod_down sums in
  Poly.add_into ~dst:d0 d0 p0;
  Poly.add_into ~dst:d1 d1 p1;
  { c0 = d0; c1 = d1; scale = a.scale *. b.scale; level = a.level }

let mul_plain _t ct pt =
  check_plain "mul_plain" ct pt;
  {
    ct with
    c0 = Poly.mul ct.c0 pt.poly;
    c1 = Poly.mul ct.c1 pt.poly;
    scale = ct.scale *. pt.pt_scale;
  }

(* Rescales in Eval domain (Poly.rescale_last): one inverse and [lc - 1]
   forward transforms per polynomial instead of [lc] and [lc - 1],
   bit-identical to a Coeff round trip. *)
let rescale t ct =
  if ct.level >= max_level t then
    raise (Level_mismatch "Eval.rescale: no rescaling prime remains");
  let lc = level_count t ct.level in
  let dropped_prime = Chain.prime t.params.Params.chain (lc - 1) in
  {
    c0 = Poly.rescale_last ct.c0;
    c1 = Poly.rescale_last ct.c1;
    scale = ct.scale /. float_of_int dropped_prime;
    level = ct.level + 1;
  }

(* Fused multiply + rescale. The relinearization mod-down and the rescale
   both divide by a dropped modulus, and in Eval domain each needs the
   forward transform of a lift per kept modulus. Poly.mod_down_rescale
   adds the two lifts before transforming them, so the pair costs one
   forward transform per kept modulus instead of two: [2 lc] fewer
   transforms than [rescale t (mul t a b)], to which it is bit-identical. *)
let mul_rescale t a b =
  check_binop "mul_rescale" a b;
  if a.level >= max_level t then
    raise (Level_mismatch "Eval.mul_rescale: no rescaling prime remains");
  let lc = level_count t a.level in
  let d0, d1, (acc0, acc1) = mul_parts t ~lc a b in
  let dropped_prime = Chain.prime t.params.Params.chain (lc - 1) in
  {
    c0 = Poly.mod_down_rescale acc0 ~plus:d0;
    c1 = Poly.mod_down_rescale acc1 ~plus:d1;
    scale = a.scale *. b.scale /. float_of_int dropped_prime;
    level = a.level + 1;
  }

let mod_switch t ct =
  if ct.level >= max_level t then
    raise (Level_mismatch "Eval.mod_switch: no chain prime remains");
  let c0 = Poly.drop_last ct.c0 in
  let c1 = Poly.drop_last ct.c1 in
  { ct with c0; c1; level = ct.level + 1 }

let mod_switch_plain t pt =
  if pt.pt_level >= max_level t then
    raise (Level_mismatch "Eval.mod_switch_plain: no chain prime remains");
  { pt with poly = Poly.drop_last pt.poly; pt_level = pt.pt_level + 1 }

let upscale t ct ~factor =
  if factor < 1. then invalid_arg "Eval.upscale: factor must be >= 1";
  (* Round the factor so the recorded scale matches the integer constant the
     encoder actually embeds. *)
  let factor = Float.round factor in
  let pt = encode_constant t ~level:ct.level ~scale:factor 1. in
  mul_plain t ct pt

let set_scale _t ct new_scale =
  if Float.abs (new_scale -. ct.scale) /. ct.scale > 0.01 then
    raise (Scale_mismatch "Eval.set_scale: adjustment larger than 1%");
  { ct with scale = new_scale }

(* [ct] rotated by the Galois element [galois], given the Eval-domain
   digits of its unrotated [c1]. *)
let rotated t ct ~lc ~galois digit =
  let key = Keys.galois_key t.keys galois in
  let p0, p1 = mod_down (switch_sums t ~lc ~galois digit key) in
  let c0 = Poly.automorphism_eval ct.c0 ~galois in
  Poly.add_into ~dst:c0 c0 p0;
  { ct with c0; c1 = p1 }

(* Rotation key switching reads the digits of the unrotated [c1] through
   the Galois permutation: digit extraction commutes with the automorphism
   (the centered lift is symmetric, so negating a residue negates its
   lift), and on Eval-domain vectors the automorphism is the pure slot
   permutation {!Poly.automorphism_eval}. [c0] is permuted in Eval domain
   too, so a rotation pays no Coeff round trip beyond the digit
   decomposition of [c1], whose identity components come from [c1]
   itself. Bit-identical to key-switching the Coeff-domain automorphism
   of [c1]. *)
let rotate t ct r =
  let half = t.params.Params.n / 2 in
  let r = ((r mod half) + half) mod half in
  if r = 0 then ct
  else begin
    let g = Encoder.galois_element t.encoder ~rotation:r in
    let lc = level_count t ct.level in
    rotated t ct ~lc ~galois:g (scratch_digits t ~lc ct.c1)
  end

(* Hoisted rotation fan (Halevi–Shoup hoisting): every rotation of the same
   ciphertext key-switches an automorphism of the same [c1], and the
   expensive part of key switching — lifting each RNS digit and
   forward-transforming it over the extended basis, lc^2 NTTs — does not
   depend on the rotation amount. So: decompose once, then per rotation
   read the cached Eval-domain digits through that rotation's permutation.
   The digit sums run in the same order as {!rotate}'s, so every output
   residue is bit-identical to the per-rotation path, which fans of fewer
   than two non-trivial amounts take. *)
let rotate_many t ct rs =
  let half = t.params.Params.n / 2 in
  let norm r = ((r mod half) + half) mod half in
  if List.length (List.filter (fun r -> norm r <> 0) rs) < 2 then
    List.map (rotate t ct) rs
  else begin
    let lc = level_count t ct.level in
    let coeffs = Poly.to_coeff ct.c1 in
    let digits =
      Array.init lc (fun i ->
          let dig = Poly.zero t.params.Params.chain ~level_count:lc ~with_special:true Poly.Eval in
          Poly.lift_digit_into ~dst:dig coeffs ~eval:ct.c1 ~digit:i;
          dig)
    in
    List.map
      (fun r ->
        let r = norm r in
        if r = 0 then ct
        else begin
          let g = Encoder.galois_element t.encoder ~rotation:r in
          rotated t ct ~lc ~galois:g (Array.get digits)
        end)
      rs
  end
