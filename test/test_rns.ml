(* Tests for the RNS layer: modulus chains, double-CRT polynomials, exact
   rescaling, base extension/reduction, CRT reconstruction, and the bignum
   that backs it. *)

module Bigint = Hecate_support.Bigint
module Prng = Hecate_support.Prng
module M = Hecate_support.Modarith
module Chain = Hecate_rns.Chain
module Poly = Hecate_rns.Poly
module Buf = Hecate_support.Buf
module R = Kernel_ref.Poly_ref

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let chain = lazy (Chain.create ~n:64 ~q0_bits:30 ~sf_bits:28 ~levels:3 ~special_bits:31)

let random_poly ?(with_special = false) ?(level_count = 4) seed =
  let c = Lazy.force chain in
  let g = Prng.create ~seed in
  let coeffs = Array.init (Chain.degree c) (fun _ -> Prng.int_below g 1000000 - 500000) in
  (Poly.of_centered_coeffs c ~level_count ~with_special coeffs, coeffs)

(* ------------------------------------------------------------------ *)
(* Bigint                                                              *)
(* ------------------------------------------------------------------ *)

let test_bigint_basics () =
  check Alcotest.string "zero" "0" (Bigint.to_string Bigint.zero);
  check Alcotest.string "of_int" "123456789" (Bigint.to_string (Bigint.of_int 123456789));
  check Alcotest.string "add_int carry" "1000000000"
    (Bigint.to_string (Bigint.add_int (Bigint.of_int 999999999) 1));
  check Alcotest.string "mul_int" "999999998000000001"
    (Bigint.to_string (Bigint.mul_int (Bigint.of_int 999999999) 999999999));
  check (Alcotest.float 1.) "to_float" 1e9 (Bigint.to_float (Bigint.of_int 1_000_000_000))

let test_bigint_big_products () =
  (* 2^200 via repeated doubling, checked against to_float *)
  let x = ref Bigint.one in
  for _ = 1 to 200 do
    x := Bigint.mul_int !x 2
  done;
  check Alcotest.bool "2^200" true (Float.abs ((Bigint.to_float !x /. 0x1p200) -. 1.) < 1e-12)

let test_bigint_sub_compare () =
  let a = Bigint.mul_int (Bigint.of_int 123456789) 1000000007 in
  let b = Bigint.of_int 42 in
  check Alcotest.int "a > b" 1 (Bigint.compare a b);
  check Alcotest.string "a - a = 0" "0" (Bigint.to_string (Bigint.sub a a));
  let d = Bigint.sub a b in
  check Alcotest.string "sub then add roundtrip" (Bigint.to_string a)
    (Bigint.to_string (Bigint.add d b));
  Alcotest.check_raises "negative rejected" (Invalid_argument "Bigint.sub: would be negative")
    (fun () -> ignore (Bigint.sub b a))

let prop_bigint_horner_matches_int =
  QCheck.Test.make ~name:"bigint arithmetic matches int below 2^62" ~count:300
    QCheck.(pair (int_bound 0x3FFFFFFF) (int_bound 0x3FFFFFFF))
    (fun (a, b) ->
      let big = Bigint.add_int (Bigint.mul_int (Bigint.of_int a) b) a in
      Bigint.to_string big = string_of_int ((a * b) + a))

(* ------------------------------------------------------------------ *)
(* Chain                                                               *)
(* ------------------------------------------------------------------ *)

let test_chain_structure () =
  let c = Lazy.force chain in
  check Alcotest.int "length" 4 (Chain.length c);
  check Alcotest.int "degree" 64 (Chain.degree c);
  let ps = Array.to_list (Chain.primes c) in
  check Alcotest.int "distinct" 4 (List.length (List.sort_uniq compare ps));
  check Alcotest.bool "special distinct" true (not (List.mem (Chain.special_prime c) ps));
  List.iteri
    (fun i p ->
      check Alcotest.int (Printf.sprintf "prime %d ntt-friendly" i) 1 (p mod (2 * 64)))
    ps

let test_chain_gadget_weights () =
  (* w_i = 1 mod q_i and 0 mod q_j (j <> i): the CRT interpolation basis *)
  let c = Lazy.force chain in
  for i = 0 to Chain.length c - 1 do
    for j = 0 to Chain.length c - 1 do
      let w = Chain.gadget_weight c ~digit:i ~modulus_index:j in
      if i = j then check Alcotest.int "w_i = 1 mod q_i" 1 w
      else check Alcotest.int "w_i = 0 mod q_j" 0 w
    done;
    (* mod P it is some well-defined residue *)
    let wp = Chain.gadget_weight c ~digit:i ~modulus_index:(Chain.length c) in
    check Alcotest.bool "w_i mod P in range" true (wp >= 0 && wp < Chain.special_prime c)
  done

let test_chain_inverses () =
  let c = Lazy.force chain in
  for l = 1 to Chain.length c - 1 do
    for i = 0 to l - 1 do
      let q = Chain.prime c i in
      check Alcotest.int "rescale inverse" 1
        (M.mul ~q (Chain.rescale_inv c ~dropped:l i) (Chain.prime c l mod q))
    done
  done;
  for i = 0 to Chain.length c - 1 do
    let q = Chain.prime c i in
    check Alcotest.int "special inverse" 1
      (M.mul ~q (Chain.special_inv c i) (Chain.special_prime c mod q))
  done

let test_chain_log2 () =
  let c = Lazy.force chain in
  let expect =
    Array.fold_left (fun acc p -> acc +. (log (float_of_int p) /. log 2.)) 0. (Chain.primes c)
  in
  check (Alcotest.float 1e-9) "log2 q" expect (Chain.log2_q c ~upto:4);
  check Alcotest.bool "about 30+3*28" true (Float.abs (expect -. 114.) < 1.)

(* ------------------------------------------------------------------ *)
(* Poly                                                                *)
(* ------------------------------------------------------------------ *)

let test_poly_roundtrip_crt () =
  let p, coeffs = random_poly 1 in
  let back = Poly.crt_reconstruct_centered p in
  Array.iteri
    (fun i c -> check (Alcotest.float 0.) (Printf.sprintf "coeff %d" i) (float_of_int c) back.(i))
    coeffs

let test_poly_ring_laws () =
  let c = Lazy.force chain in
  let p1, _ = random_poly 2 and p2, _ = random_poly 3 and p3, _ = random_poly 4 in
  let ( +! ) = Poly.add and ( *! ) a b = Poly.mul (Poly.to_eval a) (Poly.to_eval b) in
  ignore c;
  check Alcotest.bool "add commutes" true (Poly.equal (p1 +! p2) (p2 +! p1));
  check Alcotest.bool "mul commutes" true (Poly.equal (p1 *! p2) (p2 *! p1));
  let lhs = Poly.to_coeff (p1 *! (Poly.to_coeff (p2 +! p3))) in
  let rhs = Poly.to_coeff (Poly.add (p1 *! p2) (p1 *! p3)) in
  check Alcotest.bool "distributes" true (Poly.equal lhs rhs);
  check Alcotest.bool "neg cancels" true
    (Poly.equal (p1 +! Poly.neg p1) (Poly.sub p1 p1))

let test_poly_ntt_roundtrip () =
  let p, _ = random_poly 5 in
  check Alcotest.bool "to_eval/to_coeff roundtrip" true
    (Poly.equal p (Poly.to_coeff (Poly.to_eval p)))

let test_poly_rescale_exact () =
  (* rescaling a polynomial that is an exact multiple of the dropped prime
     divides it exactly *)
  let c = Lazy.force chain in
  let q_last = Chain.prime c 3 in
  let g = Prng.create ~seed:6 in
  let base = Array.init (Chain.degree c) (fun _ -> Prng.int_below g 20000 - 10000) in
  let scaled = Array.map (fun x -> x * q_last) base in
  let p = Poly.of_centered_coeffs c ~level_count:4 ~with_special:false scaled in
  let r = Poly.rescale_last p in
  let back = Poly.crt_reconstruct_centered r in
  Array.iteri
    (fun i b -> check (Alcotest.float 0.) "exact division" (float_of_int b) back.(i))
    base

let test_poly_rescale_rounds () =
  (* otherwise the error after division is at most 1/2 + epsilon *)
  let c = Lazy.force chain in
  let q_last = float_of_int (Chain.prime c 3) in
  let p, coeffs = random_poly 7 in
  let r = Poly.rescale_last p in
  let back = Poly.crt_reconstruct_centered r in
  Array.iteri
    (fun i orig ->
      let err = Float.abs (back.(i) -. (float_of_int orig /. q_last)) in
      check Alcotest.bool (Printf.sprintf "rounded division %d" i) true (err <= 0.5 +. 1e-9))
    coeffs

let test_poly_drop_last () =
  let p, coeffs = random_poly 8 in
  let d = Poly.drop_last p in
  check Alcotest.int "one fewer component" 3 (Poly.component_count d);
  (* values preserved mod the smaller modulus: small coefficients intact *)
  let back = Poly.crt_reconstruct_centered d in
  Array.iteri
    (fun i c -> check (Alcotest.float 0.) "value intact" (float_of_int c) back.(i))
    coeffs

let test_poly_mod_down_special () =
  (* mod-down divides by P with centered rounding *)
  let c = Lazy.force chain in
  let sp = float_of_int (Chain.special_prime c) in
  let p, coeffs = random_poly ~with_special:true 9 in
  let r = Poly.mod_down_special p in
  check Alcotest.bool "no special left" true (not r.Poly.with_special);
  let back = Poly.crt_reconstruct_centered r in
  Array.iteri
    (fun i orig ->
      let err = Float.abs (back.(i) -. (float_of_int orig /. sp)) in
      check Alcotest.bool "divided by P" true (err <= 0.5 +. 1e-9))
    coeffs

let test_poly_automorphism_involution () =
  (* X -> X^g then X -> X^{g^{-1} mod 2n} is the identity *)
  let c = Lazy.force chain in
  let two_n = 2 * Chain.degree c in
  let g = 5 in
  (* find inverse of 5 mod 2n *)
  let rec inv k = if k * g mod two_n = 1 then k else inv (k + 2) in
  let g_inv = inv 1 in
  let p, _ = random_poly 10 in
  let q = Poly.automorphism (Poly.automorphism p ~galois:g) ~galois:g_inv in
  check Alcotest.bool "involution" true (Poly.equal p q)

let test_poly_automorphism_homomorphic () =
  (* sigma(a * b) = sigma(a) * sigma(b) *)
  let a, _ = random_poly 11 and b, _ = random_poly 12 in
  let mul x y = Poly.to_coeff (Poly.mul (Poly.to_eval x) (Poly.to_eval y)) in
  let lhs = Poly.automorphism (mul a b) ~galois:5 in
  let rhs = mul (Poly.automorphism a ~galois:5) (Poly.automorphism b ~galois:5) in
  check Alcotest.bool "ring homomorphism" true (Poly.equal lhs rhs)

let test_poly_automorphism_odd_precondition () =
  (* the Galois group of a power-of-two cyclotomic is (Z/2nZ)^*: only odd
     elements are units, so both automorphism entry points must reject
     even ones instead of building a non-permutation *)
  let p, _ = random_poly 30 in
  (match Poly.automorphism p ~galois:4 with
  | _ -> Alcotest.fail "expected rejection of even galois element (coeff)"
  | exception Invalid_argument _ -> ());
  match Poly.automorphism_eval (Poly.to_eval p) ~galois:6 with
  | _ -> Alcotest.fail "expected rejection of even galois element (eval)"
  | exception Invalid_argument _ -> ()

let test_poly_automorphism_composition () =
  (* sigma_a (sigma_b p) = sigma_{a*b mod 2n} p *)
  let c = Lazy.force chain in
  let two_n = 2 * Chain.degree c in
  let p, _ = random_poly 31 in
  List.iter
    (fun (a, b) ->
      let lhs = Poly.automorphism (Poly.automorphism p ~galois:b) ~galois:a in
      let rhs = Poly.automorphism p ~galois:(a * b mod two_n) in
      check Alcotest.bool (Printf.sprintf "sigma_%d o sigma_%d" a b) true (Poly.equal lhs rhs))
    [ (3, 5); (5, 25); (7, 9); (two_n - 1, 3) ]

let test_poly_automorphism_eval_inverse_roundtrip () =
  (* the Eval-domain slot permutation agrees with the Coeff-domain
     definition through the NTT, and composing with the inverse Galois
     element is the identity *)
  let c = Lazy.force chain in
  let two_n = 2 * Chain.degree c in
  let g = 5 in
  let rec inv k = if k * g mod two_n = 1 then k else inv (k + 2) in
  let g_inv = inv 1 in
  let p, _ = random_poly 32 in
  let pe = Poly.to_eval p in
  let rot = Poly.automorphism_eval pe ~galois:g in
  check Alcotest.bool "matches coeff-domain automorphism" true
    (Poly.equal rot (Poly.to_eval (Poly.automorphism p ~galois:g)));
  check Alcotest.bool "inverse round-trip" true
    (Poly.equal pe (Poly.automorphism_eval rot ~galois:g_inv))

let test_poly_lift_digit () =
  (* gadget identity: sum_i lift(digit_i) * w_i = p (mod every chain
     prime), in Eval domain *)
  let c = Lazy.force chain in
  let p, _ = random_poly 13 in
  let eval = Poly.to_eval p in
  let acc = ref (Poly.zero c ~level_count:4 ~with_special:false Poly.Eval) in
  let dig = Poly.zero c ~level_count:4 ~with_special:false Poly.Eval in
  for i = 0 to 3 do
    Poly.lift_digit_into ~dst:dig p ~eval ~digit:i;
    let weights = Array.init 4 (fun j -> Chain.gadget_weight c ~digit:i ~modulus_index:j) in
    acc := Poly.add !acc (Poly.mul_component_scalars dig weights)
  done;
  check Alcotest.bool "gadget reconstruction" true (Poly.equal !acc eval)

let test_poly_restrict_levels () =
  let p, _ = random_poly ~with_special:true 14 in
  let r = Poly.restrict_levels p ~level_count:2 in
  check Alcotest.int "components" 3 (Poly.component_count r);
  check Alcotest.bool "keeps special" true r.Poly.with_special;
  check Alcotest.bool "prefix preserved" true
    (Hecate_support.Buf.equal p.Poly.data.(0) r.Poly.data.(0))

let test_poly_incompatible_rejected () =
  let p4, _ = random_poly 15 in
  let p2, _ = random_poly ~level_count:2 16 in
  (match Poly.add p4 p2 with
  | _ -> Alcotest.fail "expected incompatibility error"
  | exception Invalid_argument _ -> ());
  match Poly.mul p4 p4 with
  | _ -> Alcotest.fail "expected domain error (Coeff operands)"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Fast kernels: into-ops, in-place NTT, parallelism                   *)
(* ------------------------------------------------------------------ *)

let test_poly_into_ops_match_pure () =
  let a, _ = random_poly 22 and b, _ = random_poly 23 in
  let dst = Poly.copy a in
  Poly.add_into ~dst a b;
  check Alcotest.bool "add_into" true (Poly.equal dst (Poly.add a b));
  Poly.sub_into ~dst a b;
  check Alcotest.bool "sub_into" true (Poly.equal dst (Poly.sub a b));
  (* destination aliasing an operand is allowed *)
  let alias = Poly.copy a in
  Poly.add_into ~dst:alias alias b;
  check Alcotest.bool "add_into aliased" true (Poly.equal alias (Poly.add a b));
  let ea = Poly.to_eval a and eb = Poly.to_eval b in
  let dst = Poly.copy ea in
  Poly.mul_into ~dst ea eb;
  check Alcotest.bool "mul_into" true (Poly.equal dst (Poly.mul ea eb));
  let acc0, _ = random_poly 24 in
  let acc = Poly.to_eval acc0 in
  let expect = Poly.add acc (Poly.mul ea eb) in
  Poly.mul_add_into ~acc ea eb;
  check Alcotest.bool "mul_add_into" true (Poly.equal acc expect)

let test_poly_mul_add_into_deeper_basis () =
  (* the multiplier may carry the full basis while acc and a are reduced:
     equivalent to restricting the multiplier first *)
  let check_case ~with_special seed =
    let a2, _ = random_poly ~with_special ~level_count:2 seed in
    let b4, _ = random_poly ~with_special (seed + 1) in
    let acc0, _ = random_poly ~with_special ~level_count:2 (seed + 2) in
    let ea = Poly.to_eval a2 and eb = Poly.to_eval b4 in
    let acc = Poly.to_eval acc0 in
    let expect = Poly.add acc (Poly.mul ea (Poly.restrict_levels eb ~level_count:2)) in
    Poly.mul_add_into ~acc ea eb;
    check Alcotest.bool
      (Printf.sprintf "deeper-basis multiplier (special=%b)" with_special)
      true (Poly.equal acc expect)
  in
  check_case ~with_special:false 25;
  check_case ~with_special:true 35

let test_poly_inplace_transforms () =
  let p, _ = random_poly ~with_special:true 28 in
  let e = Poly.to_eval p in
  let ei = Poly.to_eval_inplace (Poly.copy p) in
  check Alcotest.bool "to_eval_inplace = to_eval" true (Poly.equal e ei);
  let back = Poly.to_coeff_inplace (Poly.copy e) in
  check Alcotest.bool "to_coeff_inplace = to_coeff" true (Poly.equal p back)

(* The Eval-domain lift copies the identity component from the operand's
   Eval form: it must equal the reference kernels' lift, transformed
   whole, with the destination reused across digits. *)
let test_poly_lift_digit_into () =
  let c = Lazy.force chain in
  let p, _ = random_poly 29 in
  let eval = Poly.to_eval p in
  List.iter
    (fun with_special ->
      let dst = Poly.zero c ~level_count:4 ~with_special Poly.Eval in
      for digit = 0 to 3 do
        Poly.lift_digit_into ~dst p ~eval ~digit;
        check Alcotest.bool
          (Printf.sprintf "lift_digit_into digit %d special=%b" digit with_special)
          true
          (Poly.equal dst (R.to_eval (R.lift_digit p ~digit ~with_special)))
      done)
    [ false; true ];
  let wrong = Poly.zero c ~level_count:3 ~with_special:true Poly.Eval in
  Alcotest.check_raises "destination of another level count"
    (Invalid_argument "Poly.lift_digit_into: incompatible destination") (fun () ->
      Poly.lift_digit_into ~dst:wrong p ~eval ~digit:0)

(* Parallel kernels only engage at degree >= 4096; use a full-size chain so
   the jobs > 1 paths are actually exercised. *)
let big_chain = lazy (Chain.create ~n:4096 ~q0_bits:30 ~sf_bits:28 ~levels:2 ~special_bits:31)

let random_big_poly seed =
  let c = Lazy.force big_chain in
  let g = Prng.create ~seed in
  let coeffs = Array.init (Chain.degree c) (fun _ -> Prng.int_below g 1000000 - 500000) in
  Poly.of_centered_coeffs c ~level_count:3 ~with_special:true coeffs

let test_poly_parallel_matches_serial () =
  let module K = Hecate_support.Pool.Kernel in
  let a = random_big_poly 30 and b = random_big_poly 31 in
  let saved = K.jobs () in
  Fun.protect
    ~finally:(fun () -> K.set_jobs saved)
    (fun () ->
      K.set_jobs 1;
      let ea = Poly.to_eval a and eb = Poly.to_eval b in
      let serial_sum = Poly.add a b in
      let serial_mul = Poly.mul ea eb in
      let serial_back = Poly.to_coeff serial_mul in
      (* the Eval-domain divisions and the lazy key-switch sum fan out too *)
      let key_switch () =
        let zero () = Poly.zero (Lazy.force big_chain) ~level_count:3 ~with_special:true Poly.Eval in
        let acc0 = zero () and acc1 = zero () in
        for term = 0 to 1 do
          Poly.key_switch_add ~acc0 ~acc1 ea ~k0:eb ~k1:ea ~galois:5 ~term ~terms:2
        done;
        (acc0, acc1)
      in
      let divisions () =
        let down = Poly.mod_down_special ea in
        [ down; Poly.rescale_last down; Poly.mod_down_rescale eb ~plus:down ]
      in
      let serial_switch = key_switch () and serial_divisions = divisions () in
      List.iter
        (fun jobs ->
          K.set_jobs jobs;
          let name s = Printf.sprintf "%s, jobs=%d" s jobs in
          check Alcotest.bool (name "add") true (Poly.equal serial_sum (Poly.add a b));
          let ea' = Poly.to_eval a and eb' = Poly.to_eval b in
          check Alcotest.bool (name "to_eval") true (Poly.equal ea ea');
          check Alcotest.bool (name "mul") true (Poly.equal serial_mul (Poly.mul ea' eb'));
          check Alcotest.bool (name "to_coeff") true
            (Poly.equal serial_back (Poly.to_coeff serial_mul));
          let acc0, acc1 = key_switch () in
          check Alcotest.bool (name "key_switch_add") true
            (Poly.equal (fst serial_switch) acc0 && Poly.equal (snd serial_switch) acc1);
          check Alcotest.bool (name "eval divisions") true
            (List.for_all2 Poly.equal serial_divisions (divisions ())))
        [ 1; 2; 4 ])

let prop_poly_add_matches_int =
  QCheck.Test.make ~name:"poly add = coefficient add" ~count:50
    QCheck.(pair small_int small_int)
    (fun (s1, s2) ->
      let p1, c1 = random_poly (100 + s1) and p2, c2 = random_poly (200 + s2) in
      let sum = Poly.crt_reconstruct_centered (Poly.add p1 p2) in
      Array.for_all2 (fun s (a, b) -> s = float_of_int (a + b)) sum
        (Array.map2 (fun a b -> (a, b)) c1 c2))

(* Lazy reduction and Eval-domain division at their boundaries: a chain
   whose 30-bit primes take only four unreduced products (eight digits
   overrun the budget mid-sum), a 31-bit base prime and a 31-bit special
   prime that take one, and residues drawn towards 0 and q - 1, where the
   unreduced sums peak, and towards (q - 1) / 2 and (q + 1) / 2, where
   the centered lift changes sign. Every fast result must equal the
   reference-kernel Coeff-domain computation. *)
let deep_chain =
  lazy (Chain.create ~n:64 ~q0_bits:31 ~sf_bits:30 ~levels:7 ~special_bits:31)

let extreme_poly ?(domain = Poly.Eval) g c ~level_count ~with_special =
  let p = Poly.zero c ~level_count ~with_special domain in
  Array.iteri
    (fun i d ->
      let q = Poly.modulus_at p i in
      for t = 0 to Buf.length d - 1 do
        Buf.set d t
          (match Prng.int_below g 10 with
          | 0 -> 0
          | 1 | 2 | 3 | 4 -> q - 1
          | 5 -> (q - 1) / 2
          | 6 -> (q + 1) / 2
          | _ -> Prng.int_below g q)
      done)
    p.Poly.data;
  p

let prop_eval_division_matches_coeff =
  QCheck.Test.make ~name:"eval mod-down/rescale = coeff" ~count:40 QCheck.small_nat
    (fun seed ->
      let c = Lazy.force deep_chain in
      let g = Prng.create ~seed in
      let lc = 2 + Prng.int_below g (Chain.length c - 1) in
      let acc = extreme_poly g c ~level_count:lc ~with_special:true in
      let d = extreme_poly g c ~level_count:lc ~with_special:false in
      let reference f = R.to_eval (f (R.to_coeff acc)) in
      Poly.equal (Poly.mod_down_special acc) (reference R.mod_down_special)
      && Poly.equal (Poly.rescale_last d) (R.to_eval (R.rescale_last (R.to_coeff d)))
      && Poly.equal
           (Poly.mod_down_rescale acc ~plus:d)
           (reference (fun a -> R.rescale_last (Poly.add (R.to_coeff d) (R.mod_down_special a)))))

(* The fast loops (digit lift, Coeff-domain mod-down and rescale) read the
   boundary residues directly. *)
let prop_coeff_division_matches_reference =
  QCheck.Test.make ~name:"coeff lift/mod-down/rescale = naive" ~count:40 QCheck.small_nat
    (fun seed ->
      let c = Lazy.force deep_chain in
      let g = Prng.create ~seed in
      let lc = 2 + Prng.int_below g (Chain.length c - 1) in
      let p = extreme_poly ~domain:Poly.Coeff g c ~level_count:lc ~with_special:true in
      let r = extreme_poly ~domain:Poly.Coeff g c ~level_count:lc ~with_special:false in
      let digit = Prng.int_below g lc in
      let dig = Poly.zero c ~level_count:lc ~with_special:true Poly.Eval in
      Poly.lift_digit_into ~dst:dig p ~eval:(R.to_eval p) ~digit;
      Poly.equal dig (R.to_eval (R.lift_digit p ~digit ~with_special:true))
      && Poly.equal (Poly.mod_down_special p) (R.mod_down_special p)
      && Poly.equal (Poly.rescale_last r) (R.rescale_last r))

let prop_lazy_key_switch_sum =
  QCheck.Test.make ~name:"lazy key-switch sum = reduced sum" ~count:40 QCheck.small_nat
    (fun seed ->
      let c = Lazy.force deep_chain in
      let g = Prng.create ~seed in
      let full = Chain.length c in
      let lc = 1 + Prng.int_below g full in
      let galois = [| 1; 3; 5; 127 |].(Prng.int_below g 4) in
      let zero () = Poly.zero c ~level_count:lc ~with_special:true Poly.Eval in
      let acc0 = zero () and acc1 = zero () in
      let ref0 = ref (zero ()) and ref1 = ref (zero ()) in
      for term = 0 to lc - 1 do
        let dig = extreme_poly g c ~level_count:lc ~with_special:true in
        let k0 = extreme_poly g c ~level_count:full ~with_special:true in
        let k1 = extreme_poly g c ~level_count:full ~with_special:true in
        Poly.key_switch_add ~acc0 ~acc1 dig ~k0 ~k1 ~galois ~term ~terms:lc;
        let rot = Poly.automorphism_eval dig ~galois in
        let plus acc k = Poly.add acc (R.mul rot (Poly.restrict_levels k ~level_count:lc)) in
        ref0 := plus !ref0 k0;
        ref1 := plus !ref1 k1
      done;
      Poly.equal acc0 !ref0 && Poly.equal acc1 !ref1)

let () =
  Alcotest.run "hecate_rns"
    [
      ( "bigint",
        [
          Alcotest.test_case "basics" `Quick test_bigint_basics;
          Alcotest.test_case "big products" `Quick test_bigint_big_products;
          Alcotest.test_case "sub/compare" `Quick test_bigint_sub_compare;
          qtest prop_bigint_horner_matches_int;
        ] );
      ( "chain",
        [
          Alcotest.test_case "structure" `Quick test_chain_structure;
          Alcotest.test_case "gadget weights" `Quick test_chain_gadget_weights;
          Alcotest.test_case "inverses" `Quick test_chain_inverses;
          Alcotest.test_case "log2" `Quick test_chain_log2;
        ] );
      ( "poly",
        [
          Alcotest.test_case "crt roundtrip" `Quick test_poly_roundtrip_crt;
          Alcotest.test_case "ring laws" `Quick test_poly_ring_laws;
          Alcotest.test_case "ntt roundtrip" `Quick test_poly_ntt_roundtrip;
          Alcotest.test_case "rescale exact" `Quick test_poly_rescale_exact;
          Alcotest.test_case "rescale rounds" `Quick test_poly_rescale_rounds;
          Alcotest.test_case "drop last" `Quick test_poly_drop_last;
          Alcotest.test_case "mod down special" `Quick test_poly_mod_down_special;
          Alcotest.test_case "automorphism involution" `Quick test_poly_automorphism_involution;
          Alcotest.test_case "automorphism homomorphic" `Quick test_poly_automorphism_homomorphic;
          Alcotest.test_case "automorphism odd precondition" `Quick
            test_poly_automorphism_odd_precondition;
          Alcotest.test_case "automorphism composition" `Quick test_poly_automorphism_composition;
          Alcotest.test_case "automorphism eval inverse" `Quick
            test_poly_automorphism_eval_inverse_roundtrip;
          Alcotest.test_case "gadget decomposition" `Quick test_poly_lift_digit;
          Alcotest.test_case "restrict levels" `Quick test_poly_restrict_levels;
          Alcotest.test_case "incompatible rejected" `Quick test_poly_incompatible_rejected;
          qtest prop_poly_add_matches_int;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "into ops match pure" `Quick test_poly_into_ops_match_pure;
          Alcotest.test_case "mul_add_into deeper basis" `Quick
            test_poly_mul_add_into_deeper_basis;
          Alcotest.test_case "inplace transforms" `Quick test_poly_inplace_transforms;
          Alcotest.test_case "lift_digit_into" `Quick test_poly_lift_digit_into;
          Alcotest.test_case "parallel matches serial" `Quick test_poly_parallel_matches_serial;
          qtest prop_eval_division_matches_coeff;
          qtest prop_coeff_division_matches_reference;
          qtest prop_lazy_key_switch_sum;
        ] );
    ]
