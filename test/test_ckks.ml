(* Correctness tests for the from-scratch RNS-CKKS implementation:
   encode/decode, encrypt/decrypt, homomorphic ops vs plaintext reference. *)

module Params = Hecate_ckks.Params
module Encoder = Hecate_ckks.Encoder
module Eval = Hecate_ckks.Eval
module Poly = Hecate_rns.Poly
module Chain = Hecate_rns.Chain
module Prng = Hecate_support.Prng
module Stats = Hecate_support.Stats
module Ref = Kernel_ref.Eval_ref

let check = Alcotest.check

let params =
  lazy (Params.create ~n:1024 ~q0_bits:30 ~sf_bits:28 ~levels:3 ())

(* One shared evaluator: key generation is the expensive part. *)
let ctx = lazy (Eval.create ~seed:7 (Lazy.force params) ~rotations:[ 1; 3; -2; 511 ])

let random_vector ?(amplitude = 1.) seed k =
  let g = Prng.create ~seed in
  Array.init k (fun _ -> amplitude *. ((2. *. Prng.float01 g) -. 1.))

let scale20 = 0x1p24

(* ------------------------------------------------------------------ *)
(* Parameters                                                          *)
(* ------------------------------------------------------------------ *)

let test_params_basic () =
  let p = Lazy.force params in
  check Alcotest.int "slots" 512 (Params.slots p);
  check Alcotest.int "chain length" 4 (Chain.length p.Params.chain);
  check Alcotest.bool "log2 q in range" true
    (Params.log2_q p > 100. && Params.log2_q p < 128.)

let test_params_security_table () =
  check Alcotest.int "bound at 4096" 109 (Params.max_log_qp ~n:4096);
  check Alcotest.int "bound at 32768" 881 (Params.max_log_qp ~n:32768);
  check Alcotest.int "min degree small" 1024 (Params.min_degree_for ~log_qp:20.);
  check Alcotest.int "min degree mid" 8192 (Params.min_degree_for ~log_qp:150.);
  Alcotest.check_raises "too large"
    (Invalid_argument "Params.min_degree_for: modulus too large for supported degrees")
    (fun () -> ignore (Params.min_degree_for ~log_qp:2000.))

let test_params_security_check () =
  (* 30+28*3 = 114 bits of Q > 27-bit bound at n=1024, so the secure
     constructor must reject it. *)
  match Params.create ~check_security:true ~n:1024 ~q0_bits:30 ~sf_bits:28 ~levels:3 () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Encoder                                                             *)
(* ------------------------------------------------------------------ *)

let test_encode_roundtrip () =
  let p = Lazy.force params in
  let enc = Encoder.create ~n:p.Params.n in
  let v = random_vector 11 (Encoder.slots enc) in
  let poly = Encoder.encode enc p.Params.chain ~level_count:4 ~scale:scale20 v in
  let coeffs = Poly.crt_reconstruct_centered poly in
  let v' = Encoder.decode enc ~scale:scale20 coeffs in
  check Alcotest.bool "roundtrip error small" true (Stats.max_abs_diff v v' < 1e-4)

let test_encode_constant_exact () =
  let p = Lazy.force params in
  let enc = Encoder.create ~n:p.Params.n in
  let poly = Encoder.encode_constant enc p.Params.chain ~level_count:2 ~scale:scale20 1. in
  let coeffs = Poly.crt_reconstruct_centered poly in
  check (Alcotest.float 0.) "constant term" scale20 coeffs.(0);
  for i = 1 to p.Params.n - 1 do
    check (Alcotest.float 0.) "zero elsewhere" 0. coeffs.(i)
  done;
  let v = Encoder.decode enc ~scale:scale20 coeffs in
  check Alcotest.bool "decodes to all ones" true
    (Stats.max_abs_diff v (Array.make (Encoder.slots enc) 1.) < 1e-9)

let test_encode_partial_vector () =
  let p = Lazy.force params in
  let enc = Encoder.create ~n:p.Params.n in
  let poly = Encoder.encode enc p.Params.chain ~level_count:4 ~scale:scale20 [| 0.5; -0.25 |] in
  let v' = Encoder.decode enc ~scale:scale20 (Poly.crt_reconstruct_centered poly) in
  check Alcotest.bool "slot 0" true (Float.abs (v'.(0) -. 0.5) < 1e-4);
  check Alcotest.bool "slot 1" true (Float.abs (v'.(1) +. 0.25) < 1e-4);
  check Alcotest.bool "padding decodes to 0" true (Float.abs v'.(100) < 1e-4)

let test_encode_overflow_rejected () =
  let p = Lazy.force params in
  let enc = Encoder.create ~n:p.Params.n in
  match Encoder.encode_constant enc p.Params.chain ~level_count:1 ~scale:0x1p62 1. with
  | _ -> Alcotest.fail "expected overflow rejection"
  | exception Invalid_argument _ -> ()

(* [Eval.encode_constant] fills the constant's residue into every slot
   instead of transforming the degree-0 encoding: the two must agree bit
   for bit at every level, for negative constants, zero and constants whose
   scaled value is next to the overflow limit, and the overflow must be
   rejected with the encoder's error. *)
let test_encode_constant_eval_form () =
  let t = Lazy.force ctx in
  let p = Lazy.force params in
  let enc = Encoder.create ~n:p.Params.n in
  let chain = p.Params.chain in
  List.iter
    (fun (c, scale) ->
      for level = 0 to Eval.max_level t do
        let expect =
          Poly.to_eval
            (Encoder.encode_constant enc chain ~level_count:(Chain.length chain - level) ~scale c)
        in
        let pt = Eval.encode_constant t ~level ~scale c in
        check Alcotest.bool
          (Printf.sprintf "%h at scale %h, level %d" c scale level)
          true
          (Poly.equal expect pt.Eval.poly);
        check Alcotest.bool "= reference" true
          (Poly.equal (Ref.encode_constant t ~level ~scale c).Ref.poly pt.Eval.poly)
      done)
    [
      (1., scale20); (-1., scale20); (0., scale20); (-0.37, 0x1p30); (2.5, 0x1p40);
      (-1., 0x1p61 -. 0x1p8); (1., 0x1p61 -. 0x1p8); (-3.25, 1.);
    ];
  Alcotest.check_raises "overflow"
    (Invalid_argument "Encoder.encode_constant: scaled constant overflows the native integer range")
    (fun () -> ignore (Eval.encode_constant t ~level:0 ~scale:0x1p62 (-1.)))

let test_galois_elements () =
  let enc = Encoder.create ~n:1024 in
  check Alcotest.int "rotation 0" 1 (Encoder.galois_element enc ~rotation:0);
  check Alcotest.int "rotation 1" 5 (Encoder.galois_element enc ~rotation:1);
  check Alcotest.int "rotation 2" 25 (Encoder.galois_element enc ~rotation:2);
  (* full cycle returns to identity *)
  check Alcotest.int "rotation slots" 1 (Encoder.galois_element enc ~rotation:512)

(* ------------------------------------------------------------------ *)
(* Encrypt / decrypt                                                   *)
(* ------------------------------------------------------------------ *)

let test_encrypt_roundtrip () =
  let t = Lazy.force ctx in
  let v = random_vector 13 512 in
  let ct = Eval.encrypt_vector t ~scale:scale20 v in
  let v' = Eval.decrypt t ct in
  check Alcotest.bool "noise below 1e-3" true (Stats.max_abs_diff v v' < 3e-3)

let test_encrypt_is_randomized () =
  let t = Lazy.force ctx in
  let v = random_vector 17 512 in
  let ct1 = Eval.encrypt_vector t ~scale:scale20 v in
  let ct2 = Eval.encrypt_vector t ~scale:scale20 v in
  check Alcotest.bool "fresh randomness" false (Poly.equal ct1.Eval.c0 ct2.Eval.c0)

(* ------------------------------------------------------------------ *)
(* Homomorphic operations                                              *)
(* ------------------------------------------------------------------ *)

let test_hom_add_sub_neg () =
  let t = Lazy.force ctx in
  let a = random_vector 19 512 and b = random_vector 23 512 in
  let ca = Eval.encrypt_vector t ~scale:scale20 a in
  let cb = Eval.encrypt_vector t ~scale:scale20 b in
  let sum = Eval.decrypt t (Eval.add t ca cb) in
  let diff = Eval.decrypt t (Eval.sub t ca cb) in
  let neg = Eval.decrypt t (Eval.negate t ca) in
  for i = 0 to 511 do
    check Alcotest.bool "add" true (Float.abs (sum.(i) -. (a.(i) +. b.(i))) < 5e-3);
    check Alcotest.bool "sub" true (Float.abs (diff.(i) -. (a.(i) -. b.(i))) < 5e-3);
    check Alcotest.bool "neg" true (Float.abs (neg.(i) +. a.(i)) < 5e-3)
  done

let test_hom_add_plain () =
  let t = Lazy.force ctx in
  let a = random_vector 29 512 and b = random_vector 31 512 in
  let ca = Eval.encrypt_vector t ~scale:scale20 a in
  let pb = Eval.encode t ~level:0 ~scale:scale20 b in
  let sum = Eval.decrypt t (Eval.add_plain t ca pb) in
  let diff = Eval.decrypt t (Eval.sub_plain t ca pb) in
  for i = 0 to 511 do
    check Alcotest.bool "add_plain" true (Float.abs (sum.(i) -. (a.(i) +. b.(i))) < 5e-3);
    check Alcotest.bool "sub_plain" true (Float.abs (diff.(i) -. (a.(i) -. b.(i))) < 5e-3)
  done

let test_hom_mul_plain_rescale () =
  let t = Lazy.force ctx in
  let a = random_vector 37 512 and b = random_vector 41 512 in
  let ca = Eval.encrypt_vector t ~scale:scale20 a in
  let pb = Eval.encode t ~level:0 ~scale:scale20 b in
  let prod = Eval.mul_plain t ca pb in
  check Alcotest.bool "scale grew" true (Eval.scale prod > 0x1p47);
  let rescaled = Eval.rescale t prod in
  check Alcotest.int "level grew" 1 (Eval.level rescaled);
  let v = Eval.decrypt t rescaled in
  for i = 0 to 511 do
    check Alcotest.bool "mul_plain" true (Float.abs (v.(i) -. (a.(i) *. b.(i))) < 1e-2)
  done

let test_hom_mul_cipher () =
  let t = Lazy.force ctx in
  let a = random_vector 43 512 and b = random_vector 47 512 in
  let ca = Eval.encrypt_vector t ~scale:scale20 a in
  let cb = Eval.encrypt_vector t ~scale:scale20 b in
  let prod = Eval.rescale t (Eval.mul t ca cb) in
  let v = Eval.decrypt t prod in
  for i = 0 to 511 do
    check Alcotest.bool "cipher mul" true (Float.abs (v.(i) -. (a.(i) *. b.(i))) < 1e-2)
  done

let test_hom_mul_depth2 () =
  (* ((a*b) rescaled) * (modswitched c): exercises level matching. *)
  let t = Lazy.force ctx in
  let a = random_vector 53 512 and b = random_vector 59 512 and c = random_vector 61 512 in
  let ca = Eval.encrypt_vector t ~scale:scale20 a in
  let cb = Eval.encrypt_vector t ~scale:scale20 b in
  let cc = Eval.encrypt_vector t ~scale:scale20 c in
  let ab = Eval.rescale t (Eval.mul t ca cb) in
  let cc1 = Eval.mod_switch t cc in
  let abc = Eval.rescale t (Eval.mul t ab cc1) in
  check Alcotest.int "level 2" 2 (Eval.level abc);
  let v = Eval.decrypt t abc in
  for i = 0 to 511 do
    check Alcotest.bool "depth-2 product" true
      (Float.abs (v.(i) -. (a.(i) *. b.(i) *. c.(i))) < 1e-1)
  done

let test_hom_square () =
  let t = Lazy.force ctx in
  let a = random_vector 67 512 in
  let ca = Eval.encrypt_vector t ~scale:scale20 a in
  let sq = Eval.decrypt t (Eval.rescale t (Eval.mul t ca ca)) in
  for i = 0 to 511 do
    check Alcotest.bool "square" true (Float.abs (sq.(i) -. (a.(i) *. a.(i))) < 1e-2)
  done

let test_mod_switch_preserves_value () =
  let t = Lazy.force ctx in
  let a = random_vector 71 512 in
  let ca = Eval.encrypt_vector t ~scale:scale20 a in
  let switched = Eval.mod_switch t ca in
  check Alcotest.int "level + 1" 1 (Eval.level switched);
  check (Alcotest.float 0.) "scale unchanged" scale20 (Eval.scale switched);
  let v = Eval.decrypt t switched in
  check Alcotest.bool "value preserved" true (Stats.max_abs_diff v a < 5e-3)

let test_upscale () =
  let t = Lazy.force ctx in
  let a = random_vector 73 512 in
  let ca = Eval.encrypt_vector t ~scale:scale20 a in
  let up = Eval.upscale t ca ~factor:0x1p8 in
  check (Alcotest.float 16.) "scale multiplied" 0x1p32 (Eval.scale up);
  check Alcotest.int "level unchanged" 0 (Eval.level up);
  let v = Eval.decrypt t up in
  check Alcotest.bool "value preserved" true (Stats.max_abs_diff v a < 5e-3)

let test_downscale_composition () =
  (* downscale = upscale to (S_f * S_w / current) then rescale: the scale
     comes back to the waterline and the level rises by one. *)
  let t = Lazy.force ctx in
  let p = Lazy.force params in
  let a = random_vector 79 512 in
  let ca = Eval.encrypt_vector t ~scale:scale20 a in
  let q_dropped = Chain.prime p.Params.chain (Chain.length p.Params.chain - 1) in
  let factor = float_of_int q_dropped in
  let down = Eval.rescale t (Eval.upscale t ca ~factor) in
  check Alcotest.int "level + 1" 1 (Eval.level down);
  check Alcotest.bool "scale back at waterline" true
    (Float.abs ((Eval.scale down /. scale20) -. 1.) < 1e-9);
  let v = Eval.decrypt t down in
  check Alcotest.bool "value preserved" true (Stats.max_abs_diff v a < 5e-3)

let test_rotate () =
  let t = Lazy.force ctx in
  let a = random_vector 83 512 in
  let ca = Eval.encrypt_vector t ~scale:scale20 a in
  let check_rotation r =
    let v = Eval.decrypt t (Eval.rotate t ca r) in
    let expected = Array.init 512 (fun i -> a.((i + r + 512) mod 512)) in
    check Alcotest.bool (Printf.sprintf "rotate %d" r) true (Stats.max_abs_diff v expected < 5e-3)
  in
  check_rotation 1;
  check_rotation 3;
  check_rotation 510 (* = -2 left = 2 right *)

let test_rotate_zero_is_identity () =
  let t = Lazy.force ctx in
  let a = random_vector 89 512 in
  let ca = Eval.encrypt_vector t ~scale:scale20 a in
  let v = Eval.decrypt t (Eval.rotate t ca 0) in
  check Alcotest.bool "identity" true (Stats.max_abs_diff v a < 5e-3)

let test_rotate_missing_key () =
  let t = Lazy.force ctx in
  let a = random_vector 97 512 in
  let ca = Eval.encrypt_vector t ~scale:scale20 a in
  match Eval.rotate t ca 7 with
  | _ -> Alcotest.fail "expected Not_found"
  | exception Not_found -> ()

(* ------------------------------------------------------------------ *)
(* Constraint enforcement                                               *)
(* ------------------------------------------------------------------ *)

let test_level_mismatch_rejected () =
  let t = Lazy.force ctx in
  let a = random_vector 101 512 in
  let ca = Eval.encrypt_vector t ~scale:scale20 a in
  let cb = Eval.mod_switch t ca in
  match Eval.add t ca cb with
  | _ -> Alcotest.fail "expected Level_mismatch"
  | exception Eval.Level_mismatch _ -> ()

let test_scale_mismatch_rejected () =
  let t = Lazy.force ctx in
  let a = random_vector 103 512 in
  let ca = Eval.encrypt_vector t ~scale:scale20 a in
  let cb = Eval.encrypt_vector t ~scale:0x1p25 a in
  match Eval.add t ca cb with
  | _ -> Alcotest.fail "expected Scale_mismatch"
  | exception Eval.Scale_mismatch _ -> ()

let test_rescale_exhaustion () =
  let t = Lazy.force ctx in
  let a = random_vector 107 512 in
  let ct = ref (Eval.encrypt_vector t ~scale:scale20 a) in
  for _ = 1 to Eval.max_level t do
    ct := Eval.mod_switch t !ct
  done;
  match Eval.rescale t !ct with
  | _ -> Alcotest.fail "expected Level_mismatch"
  | exception Eval.Level_mismatch _ -> ()

(* Latency shape: operations get cheaper as the level rises. This is the
   physical fact HECATE exploits; assert it holds in our substrate. *)
let test_mul_faster_at_higher_level () =
  let t = Lazy.force ctx in
  let a = random_vector 109 512 in
  let ca = Eval.encrypt_vector t ~scale:scale20 a in
  let high = Eval.mod_switch t (Eval.mod_switch t ca) in
  let mul ct = Stats.calls (fun () -> ignore (Eval.mul t ct ct)) in
  let timing = Stats.interleave ~rounds:5 [| mul ca; mul high |] in
  check Alcotest.bool "level-2 mul faster than level-0" true
    (timing.Stats.median.(1) < timing.Stats.median.(0))

(* ------------------------------------------------------------------ *)
(* Fast kernels vs naive reference                                     *)
(* ------------------------------------------------------------------ *)

(* [reference] (a reference-kernel result) and [fast] hold the same
   residues and scale. *)
let same_ct name (reference : Ref.ciphertext) (fast : Eval.ciphertext) =
  check Alcotest.bool (name ^ " c0") true (Poly.equal reference.Ref.c0 fast.Eval.c0);
  check Alcotest.bool (name ^ " c1") true (Poly.equal reference.Ref.c1 fast.Eval.c1);
  check (Alcotest.float 0.) (name ^ " scale") reference.Ref.scale fast.Eval.scale

(* The fast (Shoup, lazily reduced, Eval-domain) evaluator paths must be
   bit-identical to the division-based reference kernels (Eval_ref in
   test/oracle) on the same inputs, residue for residue. *)
let test_eval_fast_matches_reference () =
  let t = Lazy.force ctx in
  let a = random_vector 131 512 and b = random_vector 137 512 in
  let ca = Eval.encrypt_vector t ~scale:scale20 a in
  let cb = Eval.encrypt_vector t ~scale:scale20 b in
  let ra = Ref.of_eval ca and rb = Ref.of_eval cb in
  let mul_ref = Ref.mul t ra rb and mul_fast = Eval.mul t ca cb in
  same_ct "mul" mul_ref mul_fast;
  let rs_fast = Eval.rescale t mul_fast in
  same_ct "rescale" (Ref.rescale t mul_ref) rs_fast;
  same_ct "rotate" (Ref.rotate t ra 3) (Eval.rotate t ca 3);
  (* raw keyswitch on the c1 component against the relinearization key *)
  let p = Lazy.force params in
  let lc = Chain.length p.Params.chain in
  let d = ca.Eval.c1 in
  let relin = (Eval.keys t).Hecate_ckks.Keys.relin in
  let ks_ref = Ref.keyswitch t ~lc (Poly.to_coeff d) relin
  and ks_fast = Eval.keyswitch t ~lc d relin in
  check Alcotest.bool "keyswitch fst" true (Poly.equal (fst ks_ref) (fst ks_fast));
  check Alcotest.bool "keyswitch snd" true (Poly.equal (snd ks_ref) (snd ks_fast));
  (* and the decrypted values agree end to end *)
  let dec_ref = Ref.decrypt t (Ref.of_eval rs_fast) and dec_fast = Eval.decrypt t rs_fast in
  check Alcotest.bool "decrypt" true (Stats.max_abs_diff dec_ref dec_fast = 0.)

(* Hoisting shares one digit decomposition across a rotation fan; the
   result must nevertheless be bit-identical to repeated single-rotation
   key switching, for every amount shape: positive, negative, the
   identity, and amounts at or beyond the slot count (wrap-around). *)
let test_rotate_many_matches_rotate () =
  let t = Lazy.force ctx in
  let a = random_vector 139 512 in
  let ca = Eval.encrypt_vector t ~scale:scale20 a in
  let rs = [ 1; 3; -2; 511; 513; 0; 1024 ] in
  let hoisted = Eval.rotate_many t ca rs in
  let single = List.map (Eval.rotate t ca) rs in
  List.iteri
    (fun i (h, s) ->
      let name = Printf.sprintf "rotate %d" (List.nth rs i) in
      check Alcotest.bool (name ^ " c0") true (Poly.equal h.Eval.c0 s.Eval.c0);
      check Alcotest.bool (name ^ " c1") true (Poly.equal h.Eval.c1 s.Eval.c1))
    (List.combine hoisted single)

(* ... and the fast hoisted path must match the reference kernels, which
   take the unhoisted per-rotation route. *)
let test_rotate_many_matches_reference () =
  let t = Lazy.force ctx in
  let a = random_vector 149 512 in
  let ca = Eval.encrypt_vector t ~scale:scale20 a in
  let rs = [ 3; -2; 511 ] in
  List.iteri
    (fun i (r, f) -> same_ct (Printf.sprintf "rotate %d" (List.nth rs i)) r f)
    (List.combine (Ref.rotate_many t (Ref.of_eval ca) rs) (Eval.rotate_many t ca rs))

let test_mul_rescale_matches_composition () =
  (* the fused path drops one NTT round-trip but must stay bit-identical
     to rescale-after-mul, in payload, scale, and level *)
  let t = Lazy.force ctx in
  let a = random_vector 151 512 and b = random_vector 157 512 in
  let ca = Eval.encrypt_vector t ~scale:scale20 a in
  let cb = Eval.encrypt_vector t ~scale:scale20 b in
  let fused = Eval.mul_rescale t ca cb in
  let composed = Eval.rescale t (Eval.mul t ca cb) in
  check Alcotest.bool "c0" true (Poly.equal fused.Eval.c0 composed.Eval.c0);
  check Alcotest.bool "c1" true (Poly.equal fused.Eval.c1 composed.Eval.c1);
  check (Alcotest.float 0.) "scale" (Eval.scale composed) (Eval.scale fused);
  check Alcotest.int "level" (Eval.level composed) (Eval.level fused)

(* A context whose key-switch sums overrun the lazy-reduction budget: the
   30-bit chain primes take four unreduced products and the sums here run
   over eight digits (seven after one rescale), so every fast operation
   reduces mid-sum on chain primes, and every digit on the 31-bit special
   prime. Each must match the reference kernels bit for bit. *)
let deep_ctx =
  lazy
    (Eval.create ~seed:11
       (Params.create ~n:512 ~q0_bits:30 ~sf_bits:30 ~levels:7 ())
       ~rotations:[ 1; 5; -3 ])

let test_deep_chain_matches_reference () =
  let t = Lazy.force deep_ctx in
  let slots = Params.slots (Eval.params t) in
  let ca = Eval.encrypt_vector t ~scale:0x1p26 (random_vector 163 slots) in
  let cb = Eval.encrypt_vector t ~scale:0x1p26 (random_vector 167 slots) in
  let at_level name a b =
    let ra = Ref.of_eval a and rb = Ref.of_eval b in
    let lc = Chain.length (Eval.params t).Params.chain - Eval.level a in
    let relin = (Eval.keys t).Hecate_ckks.Keys.relin in
    let d = a.Eval.c1 in
    let ks_ref = Ref.keyswitch t ~lc (Poly.to_coeff d) relin
    and ks_fast = Eval.keyswitch t ~lc d relin in
    check Alcotest.bool (name ^ "keyswitch p0") true (Poly.equal (fst ks_ref) (fst ks_fast));
    check Alcotest.bool (name ^ "keyswitch p1") true (Poly.equal (snd ks_ref) (snd ks_fast));
    let prod = Ref.mul t ra rb in
    same_ct (name ^ "mul") prod (Eval.mul t a b);
    same_ct (name ^ "rescale") (Ref.rescale t prod) (Eval.rescale t (Eval.mul t a b));
    same_ct (name ^ "mul_rescale") (Ref.mul_rescale t ra rb) (Eval.mul_rescale t a b);
    same_ct (name ^ "rotate") (Ref.rotate t ra 5) (Eval.rotate t a 5);
    List.iter2
      (same_ct (name ^ "rotate_many"))
      (Ref.rotate_many t ra [ 1; 5; -3 ])
      (Eval.rotate_many t a [ 1; 5; -3 ])
  in
  at_level "" ca cb;
  let down ct = Eval.rescale t (Eval.mul_plain t ct (Eval.encode_constant t ~level:0 ~scale:0x1p30 1.)) in
  at_level "level 1 " (down ca) (down cb)

(* ------------------------------------------------------------------ *)
(* Failure injection / security smoke                                  *)
(* ------------------------------------------------------------------ *)

let test_wrong_key_garbage () =
  (* decrypting under an unrelated key must not reveal the message *)
  let p = Lazy.force params in
  let t1 = Lazy.force ctx in
  let t2 = Eval.create ~seed:999 p ~rotations:[] in
  let v = random_vector 211 512 in
  let ct = Eval.encrypt_vector t1 ~scale:scale20 v in
  let wrong = Eval.decrypt t2 ct in
  check Alcotest.bool "wrong key decrypt far from message" true
    (Stats.max_abs_diff v wrong > 1.)

let test_foreign_plaintext () =
  (* encryption reads the plaintext's residues directly, so a plaintext
     encoded under another chain is rejected before any is read *)
  let t = Lazy.force ctx in
  let other = Eval.create (Params.create ~n:16 ~q0_bits:30 ~sf_bits:20 ~levels:1 ()) ~rotations:[] in
  let pt = Eval.encode other ~level:0 ~scale:scale20 [| 1. |] in
  match Eval.encrypt t pt with
  | _ -> Alcotest.fail "encrypted a plaintext from another context"
  | exception Invalid_argument _ -> ()

let test_deep_chain_exhaustion () =
  (* four muls need four rescales but only three primes can be dropped *)
  let t = Lazy.force ctx in
  let v = random_vector 223 512 in
  let ct = ref (Eval.encrypt_vector t ~scale:scale20 v) in
  (match
     for _ = 1 to 4 do
       ct := Eval.rescale t (Eval.mul t !ct !ct)
     done
   with
  | () -> Alcotest.fail "expected exhaustion"
  | exception Eval.Level_mismatch _ -> ())

let test_encode_beyond_levels () =
  let t = Lazy.force ctx in
  match Eval.encode t ~level:99 ~scale:scale20 [| 1. |] with
  | _ -> Alcotest.fail "expected level rejection"
  | exception Eval.Level_mismatch _ -> ()

let test_full_rotation_is_identity () =
  let t = Lazy.force ctx in
  let v = random_vector 227 512 in
  let ct = Eval.encrypt_vector t ~scale:scale20 v in
  (* 512 = slot count: normalizes to 0, needs no key *)
  let v' = Eval.decrypt t (Eval.rotate t ct 512) in
  check Alcotest.bool "identity" true (Stats.max_abs_diff v v' < 3e-3)

let test_plain_modswitch_roundtrip () =
  let t = Lazy.force ctx in
  let v = random_vector 229 512 in
  let ct = Eval.mod_switch t (Eval.encrypt_vector t ~scale:scale20 v) in
  let pt = Eval.mod_switch_plain t (Eval.encode t ~level:0 ~scale:scale20 v) in
  let sum = Eval.decrypt t (Eval.add_plain t ct pt) in
  for i = 0 to 511 do
    check Alcotest.bool "plain modswitch preserves value" true
      (Float.abs (sum.(i) -. (2. *. v.(i))) < 5e-3)
  done

let test_additive_homomorphism_many () =
  (* summing 64 fresh encryptions stays accurate: noise grows ~sqrt(64) *)
  let t = Lazy.force ctx in
  let vs = Array.init 64 (fun i -> random_vector (300 + i) 512) in
  let total = Array.make 512 0. in
  Array.iter (fun v -> Array.iteri (fun i x -> total.(i) <- total.(i) +. x) v) vs;
  let sum =
    Array.fold_left
      (fun acc v ->
        let ct = Eval.encrypt_vector t ~scale:scale20 v in
        match acc with None -> Some ct | Some a -> Some (Eval.add t a ct))
      None vs
  in
  let got = Eval.decrypt t (Option.get sum) in
  check Alcotest.bool "64-way sum accurate" true (Stats.max_abs_diff total got < 3e-2)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let qtest = QCheck_alcotest.to_alcotest

(* Encode/decode roundtrip across parameter presets. The decode error of a
   scale-S encoding is dominated by coefficient rounding (each of the N
   coefficients rounds by at most 1/2), so N/S bounds the slot error. *)
let encoder_presets =
  [
    lazy (Params.create ~n:64 ~q0_bits:30 ~sf_bits:20 ~levels:2 ());
    lazy (Params.create ~n:256 ~q0_bits:30 ~sf_bits:24 ~levels:2 ());
    lazy (Params.create ~n:1024 ~q0_bits:30 ~sf_bits:28 ~levels:3 ());
  ]

let prop_encode_roundtrip_presets =
  QCheck.Test.make ~name:"encode/decode roundtrip bound across presets" ~count:45
    QCheck.(pair (int_bound (List.length encoder_presets - 1)) (int_bound 10_000))
    (fun (pi, seed) ->
      let p = Lazy.force (List.nth encoder_presets pi) in
      let enc = Encoder.create ~n:p.Params.n in
      let scale = Float.exp2 (float_of_int p.Params.sf_bits) in
      let v = random_vector ((pi * 20011) + seed) (Encoder.slots enc) in
      let poly =
        Encoder.encode enc p.Params.chain ~level_count:(Chain.length p.Params.chain) ~scale v
      in
      let v' = Encoder.decode enc ~scale (Poly.crt_reconstruct_centered poly) in
      Stats.max_abs_diff v v' < float_of_int p.Params.n /. scale)

(* Random op sequences preserve the evaluator's scale/level bookkeeping:
   add/rotate/negate change neither, modswitch bumps only the level,
   upscale multiplies only the scale, mul multiplies the operand scales and
   rescale divides by exactly the dropped chain prime. *)
let prop_eval_scale_level_invariants =
  QCheck.Test.make ~name:"ops preserve scale/level bookkeeping" ~count:25
    QCheck.(pair (int_bound 10_000) (list_of_size Gen.(1 -- 8) (int_bound 5)))
    (fun (seed, steps) ->
      let t = Lazy.force ctx in
      let p = Lazy.force params in
      let chain = p.Params.chain in
      let fresh lvl s =
        let ct = ref (Eval.encrypt_vector t ~scale:s (random_vector seed 512)) in
        for _ = 1 to lvl do
          ct := Eval.mod_switch t !ct
        done;
        !ct
      in
      let ct = ref (fresh 0 scale20) in
      let expect_scale = ref scale20 and expect_level = ref 0 in
      let max_level = Eval.max_level t in
      List.iter
        (fun step ->
          match step with
          | 0 -> ct := Eval.add t !ct (fresh !expect_level (Eval.scale !ct))
          | 1 -> ct := Eval.rotate t !ct 1
          | 2 -> ct := Eval.negate t !ct
          | 3 ->
              if !expect_scale < 0x1p40 then begin
                ct := Eval.upscale t !ct ~factor:0x1p4;
                expect_scale := !expect_scale *. 0x1p4
              end
          | 4 ->
              if !expect_level < max_level then begin
                ct := Eval.mod_switch t !ct;
                incr expect_level
              end
          | _ ->
              if !expect_level < max_level && !expect_scale < 0x1p34 then begin
                let prod = Eval.mul t !ct (fresh !expect_level scale20) in
                if
                  Float.abs (Eval.scale prod -. (!expect_scale *. scale20))
                  > 1e-6 *. Eval.scale prod
                then QCheck.Test.fail_report "mul scale is not the product of operand scales";
                let dropped =
                  float_of_int (Chain.prime chain (Chain.length chain - 1 - !expect_level))
                in
                ct := Eval.rescale t prod;
                expect_scale := !expect_scale *. scale20 /. dropped;
                incr expect_level
              end)
        steps;
      Float.abs (Eval.scale !ct -. !expect_scale) <= 1e-6 *. !expect_scale
      && Eval.level !ct = !expect_level)

(* C3 enforcement is exact: [add] must raise precisely when levels differ
   (Level_mismatch) or scales differ beyond drift (Scale_mismatch). *)
let prop_add_mismatch_exact =
  QCheck.Test.make ~name:"add raises exactly on level/scale mismatch" ~count:40
    QCheck.(triple (int_bound 10_000) (int_bound 2) (int_bound 2))
    (fun (seed, dl, ds) ->
      let t = Lazy.force ctx in
      let a = random_vector seed 512 in
      let ca = ref (Eval.encrypt_vector t ~scale:scale20 a) in
      for _ = 1 to dl do
        ca := Eval.mod_switch t !ca
      done;
      let cb = Eval.encrypt_vector t ~scale:(scale20 *. Float.exp2 (float_of_int ds)) a in
      match Eval.add t !ca cb with
      | _ -> dl = 0 && ds = 0
      | exception Eval.Level_mismatch _ -> dl <> 0
      | exception Eval.Scale_mismatch _ -> dl = 0 && ds <> 0)

let prop_mul_level_mismatch_exact =
  QCheck.Test.make ~name:"mul raises exactly on level mismatch" ~count:30
    QCheck.(pair (int_bound 10_000) (int_bound 2))
    (fun (seed, dl) ->
      let t = Lazy.force ctx in
      let a = random_vector seed 512 in
      let ca = ref (Eval.encrypt_vector t ~scale:scale20 a) in
      for _ = 1 to dl do
        ca := Eval.mod_switch t !ca
      done;
      let cb = Eval.encrypt_vector t ~scale:scale20 a in
      match Eval.mul t !ca cb with
      | _ -> dl = 0
      | exception Eval.Level_mismatch _ -> dl <> 0)

let () =
  Alcotest.run "hecate_ckks"
    [
      ( "params",
        [
          Alcotest.test_case "basics" `Quick test_params_basic;
          Alcotest.test_case "security table" `Quick test_params_security_table;
          Alcotest.test_case "security check" `Quick test_params_security_check;
        ] );
      ( "encoder",
        [
          Alcotest.test_case "roundtrip" `Quick test_encode_roundtrip;
          Alcotest.test_case "constant exact" `Quick test_encode_constant_exact;
          Alcotest.test_case "partial vector" `Quick test_encode_partial_vector;
          Alcotest.test_case "overflow rejected" `Quick test_encode_overflow_rejected;
          Alcotest.test_case "constant in Eval form" `Quick test_encode_constant_eval_form;
          Alcotest.test_case "galois elements" `Quick test_galois_elements;
        ] );
      ( "encrypt",
        [
          Alcotest.test_case "roundtrip" `Quick test_encrypt_roundtrip;
          Alcotest.test_case "randomized" `Quick test_encrypt_is_randomized;
        ] );
      ( "homomorphic",
        [
          Alcotest.test_case "add/sub/neg" `Quick test_hom_add_sub_neg;
          Alcotest.test_case "plain add/sub" `Quick test_hom_add_plain;
          Alcotest.test_case "plain mul + rescale" `Quick test_hom_mul_plain_rescale;
          Alcotest.test_case "cipher mul" `Quick test_hom_mul_cipher;
          Alcotest.test_case "depth 2" `Quick test_hom_mul_depth2;
          Alcotest.test_case "square" `Quick test_hom_square;
          Alcotest.test_case "modswitch" `Quick test_mod_switch_preserves_value;
          Alcotest.test_case "upscale" `Quick test_upscale;
          Alcotest.test_case "downscale composition" `Quick test_downscale_composition;
          Alcotest.test_case "rotate" `Quick test_rotate;
          Alcotest.test_case "rotate 0" `Quick test_rotate_zero_is_identity;
          Alcotest.test_case "rotate missing key" `Quick test_rotate_missing_key;
        ] );
      ( "constraints",
        [
          Alcotest.test_case "level mismatch" `Quick test_level_mismatch_rejected;
          Alcotest.test_case "scale mismatch" `Quick test_scale_mismatch_rejected;
          Alcotest.test_case "rescale exhaustion" `Quick test_rescale_exhaustion;
          Alcotest.test_case "level speeds up mul" `Slow test_mul_faster_at_higher_level;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "fast matches naive" `Quick test_eval_fast_matches_reference;
          Alcotest.test_case "rotate_many matches rotate" `Quick test_rotate_many_matches_rotate;
          Alcotest.test_case "rotate_many matches naive" `Quick test_rotate_many_matches_reference;
          Alcotest.test_case "mul_rescale matches composition" `Quick
            test_mul_rescale_matches_composition;
          Alcotest.test_case "deep chain matches naive" `Quick test_deep_chain_matches_reference;
        ] );
      ( "properties",
        [
          qtest prop_encode_roundtrip_presets;
          qtest prop_eval_scale_level_invariants;
          qtest prop_add_mismatch_exact;
          qtest prop_mul_level_mismatch_exact;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "wrong key garbage" `Quick test_wrong_key_garbage;
          Alcotest.test_case "chain exhaustion" `Quick test_deep_chain_exhaustion;
          Alcotest.test_case "encode beyond levels" `Quick test_encode_beyond_levels;
          Alcotest.test_case "full rotation identity" `Quick test_full_rotation_is_identity;
          Alcotest.test_case "plain modswitch" `Quick test_plain_modswitch_roundtrip;
          Alcotest.test_case "64-way additive" `Quick test_additive_homomorphism_many;
          Alcotest.test_case "foreign plaintext" `Quick test_foreign_plaintext;
        ] );
    ]
