(* Key generation and encryption as they were before the sampler and the
   switch keys were rebuilt for speed: every draw goes through [Prng_ref]
   (the old boxed-state generator, kept verbatim) and every key is
   assembled from allocating [Poly] operations, with the products and
   transforms of the reference kernels ([Poly_ref]). Kept as the
   differential oracle for [Keys.generate] and [Eval.encrypt], which must
   produce byte-identical key material and ciphertexts from the same
   seeds. *)

module Poly = Hecate_rns.Poly
module Chain = Hecate_rns.Chain
module Params = Hecate_ckks.Params
module Keys = Hecate_ckks.Keys
module Prng = Prng_ref
module R = Kernel_ref.Poly_ref

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
  let comps = Poly.component_count p in
  let n = Chain.degree chain in
  for i = 0 to comps - 1 do
    let q = Poly.modulus_at p i in
    let dst = p.Poly.data.(i) in
    for t = 0 to n - 1 do
      Hecate_support.Buf.set dst t (Prng.uniform_mod g q)
    done
  done;
  p

let error_poly g params chain ~level_count ~with_special =
  let n = Chain.degree chain in
  let coeffs =
    Array.init n (fun _ -> Prng.centered_binomial g ~eta:params.Params.error_sigma_eta)
  in
  R.to_eval (Poly.of_centered_coeffs chain ~level_count ~with_special coeffs)

let ternary_coeffs g n = Array.init n (fun _ -> Prng.ternary g)

(* b = -(a * s) + e + factor_scalars ⊙ payload *)
let make_switch_key g params ~s_full_sp ~payload =
  let chain = params.Params.chain in
  let l = Chain.length chain in
  let sp = Chain.special_prime chain in
  let k0 = Array.make l s_full_sp and k1 = Array.make l s_full_sp in
  for i = 0 to l - 1 do
    let a = uniform_poly g chain ~level_count:l ~with_special:true in
    let e = error_poly g params chain ~level_count:l ~with_special:true in
    let factors =
      Array.init (l + 1) (fun j ->
          let m = if j = l then sp else Chain.prime chain j in
          Hecate_support.Modarith.mul ~q:m (sp mod m)
            (Chain.gadget_weight chain ~digit:i ~modulus_index:j))
    in
    let gadget = R.mul_component_scalars payload factors in
    let b = Poly.add (Poly.add (Poly.neg (R.mul a s_full_sp)) e) gadget in
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
  let s_full =
    R.to_eval
      (Poly.of_centered_coeffs chain ~level_count:l ~with_special:false secret_coeffs)
  in
  let s_full_sp =
    R.to_eval
      (Poly.of_centered_coeffs chain ~level_count:l ~with_special:true secret_coeffs)
  in
  (* public key *)
  let a = uniform_poly g chain ~level_count:l ~with_special:false in
  let e = error_poly g params chain ~level_count:l ~with_special:false in
  let public0 = Poly.add (Poly.neg (R.mul a s_full)) e in
  (* relinearization key encrypts P * w_i * s^2 *)
  let s_squared = R.mul s_full_sp s_full_sp in
  let relin = make_switch_key g params ~s_full_sp ~payload:s_squared in
  (* rotation keys encrypt P * w_i * sigma_g(s) *)
  let galois = Hashtbl.create 8 in
  List.iter
    (fun elt ->
      if not (Hashtbl.mem galois elt) then begin
        let s_rot =
          R.to_eval
            (Poly.automorphism
               (Poly.of_centered_coeffs chain ~level_count:l ~with_special:true secret_coeffs)
               ~galois:elt)
        in
        Hashtbl.replace galois elt (make_switch_key g params ~s_full_sp ~payload:s_rot)
      end)
    galois_elements;
  { params; secret_coeffs; secret_eval = s_full; public0; public1 = a; relin; galois }

(* ------------------------------------------------------------------ *)
(* Encryption                                                          *)
(* ------------------------------------------------------------------ *)

let ternary_poly g chain ~level_count =
  let coeffs = Array.init (Chain.degree chain) (fun _ -> Prng.ternary g) in
  R.to_eval (Poly.of_centered_coeffs chain ~level_count ~with_special:false coeffs)

let error_poly_eval (params : Params.t) g ~level_count =
  let chain = params.Params.chain in
  let coeffs =
    Array.init (Chain.degree chain) (fun _ ->
        Prng.centered_binomial g ~eta:params.Params.error_sigma_eta)
  in
  R.to_eval (Poly.of_centered_coeffs chain ~level_count ~with_special:false coeffs)

(* [Eval.encrypt] of the Eval-domain plaintext polynomial [pt] with the
   context's encryption generator passed in: an evaluator made by
   [Eval.create ~seed] draws from [Prng_ref.create ~seed:(seed lxor
   0x7E57)]. Returns [(c0, c1)]. *)
let encrypt (keys : Keys.t) enc_rng pt =
  let params = keys.Keys.params in
  let lc = Chain.length params.Params.chain in
  let u = ternary_poly enc_rng params.Params.chain ~level_count:lc in
  let e0 = error_poly_eval params enc_rng ~level_count:lc in
  let e1 = error_poly_eval params enc_rng ~level_count:lc in
  let c0 = Poly.add (Poly.add (R.mul keys.Keys.public0 u) e0) pt in
  let c1 = Poly.add (R.mul keys.Keys.public1 u) e1 in
  (c0, c1)
