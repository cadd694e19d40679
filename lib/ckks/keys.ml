module Poly = Hecate_rns.Poly
module Chain = Hecate_rns.Chain
module Prng = Hecate_support.Prng
module Buf = Hecate_support.Buf

type switch_key = { k0 : Poly.t array; k1 : Poly.t array }

type t = {
  params : Params.t;
  secret_coeffs : int array;
  secret_eval : Poly.t;
  public0 : Poly.t;
  public1 : Poly.t;
  relin : switch_key;
  galois : (int, switch_key) Hashtbl.t;
}

let uniform_poly g chain ~level_count ~with_special =
  (* Independently uniform residues per modulus form a uniform ring element
     by CRT. Sampled directly in Eval domain (the NTT of a uniform element
     is uniform). *)
  let p = Poly.zero chain ~level_count ~with_special Poly.Eval in
  Array.iteri (fun i dst -> Prng.fill_uniform_mod g (Poly.modulus_at p i) dst) p.Poly.data;
  p

(* The polynomial with centered coefficients [coeffs], all of magnitude at
   most [bound], written into [dst] (Coeff-labelled) and transformed there
   to Eval domain. Below every modulus a coefficient's residue is [c] or
   [c + q], so no reduction is needed. *)
let small_poly_into ~dst ~bound coeffs =
  Array.iteri
    (fun i d ->
      let q = Poly.modulus_at dst i in
      if bound >= q then invalid_arg "Keys: sampled coefficients exceed a modulus";
      for t = 0 to Array.length coeffs - 1 do
        let c = Array.unsafe_get coeffs t in
        Buf.unsafe_set d t (if c < 0 then c + q else c)
      done)
    dst.Poly.data;
  Poly.to_eval_inplace dst

let small_poly chain ~level_count ~with_special ~bound coeffs =
  small_poly_into ~dst:(Poly.zero chain ~level_count ~with_special Poly.Coeff) ~bound coeffs

let error_poly_into g params ~dst =
  let eta = params.Params.error_sigma_eta in
  let n = Chain.degree params.Params.chain in
  let coeffs = Array.init n (fun _ -> Prng.centered_binomial g ~eta) in
  small_poly_into ~dst ~bound:eta coeffs

let error_poly g params ~level_count ~with_special =
  error_poly_into g params
    ~dst:(Poly.zero params.Params.chain ~level_count ~with_special Poly.Coeff)

let ternary_coeffs g n = Array.init n (fun _ -> Prng.ternary g)

let ternary_poly_into g params ~dst =
  small_poly_into ~dst ~bound:1 (ternary_coeffs g (Chain.degree params.Params.chain))

let ternary_poly g params ~level_count =
  ternary_poly_into g params
    ~dst:(Poly.zero params.Params.chain ~level_count ~with_special:false Poly.Coeff)

(* [e <- e - a s + f_j m] on every component [j] of [e], in place: the
   body of a key whose fresh error polynomial is [e]. [s] and [m] may carry
   more components than [e]; only the first [component_count e] are read.
   Residue products are below [q^2 < 2^62], so the difference of two of
   them reduces with one hardware [mod], into [(-q, q)]. *)
let key_body e a s m factor =
  Array.iteri
    (fun j de ->
      let q = Poly.modulus_at e j and f = factor j in
      let da = a.Poly.data.(j) and ds = s.Poly.data.(j) and dm = m.Poly.data.(j) in
      for t = 0 to Buf.length de - 1 do
        let r =
          ((f * Buf.unsafe_get dm t) - (Buf.unsafe_get da t * Buf.unsafe_get ds t)) mod q
          + Buf.unsafe_get de t
        in
        Buf.unsafe_set de t (if r < 0 then r + q else if r >= q then r - q else r)
      done)
    e.Poly.data

(* b = -(a * s) + e + (P * w_i) ⊙ payload, assembled over e *)
let make_switch_key g params ~s_full_sp ~payload =
  let chain = params.Params.chain in
  let l = Chain.length chain in
  let sp = Chain.special_prime chain in
  let k0 = Array.make l s_full_sp and k1 = Array.make l s_full_sp in
  for i = 0 to l - 1 do
    let a = uniform_poly g chain ~level_count:l ~with_special:true in
    let b = error_poly g params ~level_count:l ~with_special:true in
    key_body b a s_full_sp payload (fun j ->
        let m = if j = l then sp else Chain.prime chain j in
        Hecate_support.Modarith.mul ~q:m (sp mod m)
          (Chain.gadget_weight chain ~digit:i ~modulus_index:j));
    k0.(i) <- b;
    k1.(i) <- a
  done;
  { k0; k1 }

let generate ?(seed = 0x5EC4E7) params ~galois_elements =
  let chain = params.Params.chain in
  let l = Chain.length chain in
  let n = Chain.degree chain in
  let g = Prng.create ~seed in
  let secret_coeffs = ternary_coeffs g n in
  let s_full = small_poly chain ~level_count:l ~with_special:false ~bound:1 secret_coeffs in
  let s_full_sp = small_poly chain ~level_count:l ~with_special:true ~bound:1 secret_coeffs in
  (* public key: -(a s) + e *)
  let a = uniform_poly g chain ~level_count:l ~with_special:false in
  let public0 = error_poly g params ~level_count:l ~with_special:false in
  key_body public0 a s_full s_full (fun _ -> 0);
  (* relinearization key encrypts P * w_i * s^2 *)
  let s_squared = Poly.mul s_full_sp s_full_sp in
  let relin = make_switch_key g params ~s_full_sp ~payload:s_squared in
  (* rotation keys encrypt P * w_i * sigma_g(s) *)
  let galois = Hashtbl.create 8 in
  List.iter
    (fun elt ->
      if not (Hashtbl.mem galois elt) then
        Hashtbl.replace galois elt
          (make_switch_key g params ~s_full_sp
             ~payload:(Poly.automorphism_eval s_full_sp ~galois:elt)))
    galois_elements;
  { params; secret_coeffs; secret_eval = s_full; public0; public1 = a; relin; galois }

let galois_key t elt = Hashtbl.find t.galois elt
