(* Unit and property tests for the hecate_support library. *)

module M = Hecate_support.Modarith
module P = Hecate_support.Prng
module F = Hecate_support.Fft
module Pr = Hecate_support.Primes
module N = Hecate_support.Ntt
module NR = Kernel_ref.Ntt_ref
module S = Hecate_support.Stats
module B = Hecate_support.Buf

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Modular arithmetic                                                  *)
(* ------------------------------------------------------------------ *)

let q31 = 2147483647 (* Mersenne prime 2^31 - 1 *)
let q_small = 97

let test_mod_basic () =
  check Alcotest.int "add wraps" 1 (M.add ~q:q_small 50 48);
  check Alcotest.int "sub wraps" 96 (M.sub ~q:q_small 0 1);
  check Alcotest.int "neg zero" 0 (M.neg ~q:q_small 0);
  check Alcotest.int "neg" 96 (M.neg ~q:q_small 1);
  check Alcotest.int "mul" (50 * 48 mod 97) (M.mul ~q:q_small 50 48);
  check Alcotest.int "pow base case" 1 (M.pow ~q:q_small 13 0);
  check Alcotest.int "pow fermat" 1 (M.pow ~q:q_small 13 (q_small - 1));
  check Alcotest.int "reduce negative" (q_small - 3) (M.reduce ~q:q_small (-3));
  check Alcotest.int "centered high" (-1) (M.to_centered ~q:q_small (q_small - 1));
  check Alcotest.int "centered low" 5 (M.to_centered ~q:q_small 5)

let test_mod_inverse () =
  for a = 1 to 96 do
    let ia = M.inv ~q:q_small a in
    check Alcotest.int (Printf.sprintf "inv %d" a) 1 (M.mul ~q:q_small a ia)
  done;
  Alcotest.check_raises "inv 0 raises"
    (Invalid_argument "Modarith.inv: zero has no inverse") (fun () ->
      ignore (M.inv ~q:q_small 0))

let prop_mul_assoc =
  QCheck.Test.make ~name:"modmul associative at 31 bits" ~count:500
    QCheck.(triple (int_bound (q31 - 1)) (int_bound (q31 - 1)) (int_bound (q31 - 1)))
    (fun (a, b, c) ->
      M.mul ~q:q31 (M.mul ~q:q31 a b) c = M.mul ~q:q31 a (M.mul ~q:q31 b c))

let prop_centered_roundtrip =
  QCheck.Test.make ~name:"centered <-> canonical roundtrip" ~count:500
    QCheck.(int_bound (q31 - 1))
    (fun a -> M.of_centered ~q:q31 (M.to_centered ~q:q31 a) = a)

(* The Shoup kernel must agree bit-for-bit with the division-based
   reference, across prime widths and including the boundary residues. *)

let shoup_test_primes () =
  (* several widths, including the 31-bit extreme the special prime can hit *)
  List.concat_map
    (fun bits -> Pr.ntt_primes ~bits ~n:1024 ~count:2)
    [ 28; 29; 30; 31 ]
  @ [ q31; q_small ]

let boundary_residues q = [ 0; 1; q - 2; q - 1 ]

let test_shoup_vs_naive () =
  let g = P.create ~seed:0x540FF in
  List.iter
    (fun q ->
      let ws = boundary_residues q @ List.init 50 (fun _ -> P.uniform_mod g q) in
      List.iter
        (fun w ->
          let w' = M.shoup ~q w in
          List.iter
            (fun a ->
              check Alcotest.int
                (Printf.sprintf "shoup q=%d a=%d w=%d" q a w)
                (M.mul ~q a w)
                (M.mulmod_shoup ~q a w w'))
            (boundary_residues q @ List.init 20 (fun _ -> P.uniform_mod g q)))
        ws)
    (shoup_test_primes ())

let test_pow_negative_base () =
  (* regression: [b mod q] is negative for negative [b] in OCaml; pow must
     normalize before squaring *)
  check Alcotest.int "(-2)^3 mod 97" (M.reduce ~q:q_small ((-2) * (-2) * -2))
    (M.pow ~q:q_small (-2) 3);
  check Alcotest.int "(-1)^2" 1 (M.pow ~q:q_small (-1) 2);
  check Alcotest.int "(-1)^3" (q_small - 1) (M.pow ~q:q_small (-1) 3);
  check Alcotest.int "negative base vs normalized base" (M.pow ~q:q31 (q31 - 5) 12345)
    (M.pow ~q:q31 (-5) 12345)

(* ------------------------------------------------------------------ *)
(* PRNG                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let g1 = P.create ~seed:42 and g2 = P.create ~seed:42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (P.bits64 g1) (P.bits64 g2)
  done

let test_prng_seeds_differ () =
  let g1 = P.create ~seed:1 and g2 = P.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if P.bits64 g1 = P.bits64 g2 then incr same
  done;
  check Alcotest.bool "different streams" true (!same < 4)

let test_prng_copy () =
  let g = P.create ~seed:7 in
  ignore (P.bits64 g);
  let g' = P.copy g in
  check Alcotest.int64 "copy continues identically" (P.bits64 g) (P.bits64 g')

let test_split_deterministic () =
  (* same parent seed + same name => identical sub-stream *)
  let g1 = P.create ~seed:99 and g2 = P.create ~seed:99 in
  let a = P.split g1 "shape" and b = P.split g2 "shape" in
  for _ = 1 to 50 do
    check Alcotest.int64 "same sub-stream" (P.bits64 a) (P.bits64 b)
  done

let test_split_names_differ () =
  let g = P.create ~seed:99 in
  let a = P.split g "shape" and b = P.split g "consts" in
  let same = ref 0 in
  for _ = 1 to 64 do
    if P.bits64 a = P.bits64 b then incr same
  done;
  check Alcotest.bool "decorrelated names" true (!same < 4)

let test_split_independent () =
  (* drawing from one sub-stream must not perturb a sibling or the parent *)
  let g = P.create ~seed:7 in
  let a = P.split g "a" in
  let parent_probe = P.bits64 (P.copy g) in
  for _ = 1 to 100 do
    ignore (P.bits64 a)
  done;
  check Alcotest.int64 "parent unmoved by split+draws" parent_probe (P.bits64 (P.copy g));
  (* sibling derived after draining [a] equals sibling derived before *)
  let b_late = P.split g "b" in
  let g' = P.create ~seed:7 in
  let b_early = P.split g' "b" in
  for _ = 1 to 50 do
    check Alcotest.int64 "sibling independent of drain order" (P.bits64 b_early)
      (P.bits64 b_late)
  done

let test_split_tracks_parent_state () =
  (* advancing the parent changes what split derives — sub-streams are keyed
     on the parent's current state, not its seed *)
  let g = P.create ~seed:7 in
  let before = P.split g "s" in
  ignore (P.bits64 g);
  let after = P.split g "s" in
  check Alcotest.bool "state-dependent derivation" false (P.bits64 before = P.bits64 after)

let test_int_below_range () =
  let g = P.create ~seed:3 in
  for _ = 1 to 1000 do
    let x = P.int_below g 17 in
    check Alcotest.bool "in range" true (x >= 0 && x < 17)
  done

let test_int_below_uniformish () =
  let g = P.create ~seed:11 in
  let counts = Array.make 8 0 in
  let n = 8000 in
  for _ = 1 to n do
    let x = P.int_below g 8 in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iteri
    (fun i c ->
      check Alcotest.bool (Printf.sprintf "bucket %d near uniform" i) true
        (abs (c - (n / 8)) < n / 8 / 2))
    counts

let test_ternary_support () =
  let g = P.create ~seed:5 in
  let seen = Hashtbl.create 3 in
  for _ = 1 to 300 do
    let t = P.ternary g in
    check Alcotest.bool "ternary in {-1,0,1}" true (t >= -1 && t <= 1);
    Hashtbl.replace seen t ()
  done;
  check Alcotest.int "all three values occur" 3 (Hashtbl.length seen)

let test_centered_binomial_moments () =
  let g = P.create ~seed:13 in
  let eta = 21 in
  let n = 20000 in
  let samples = Array.init n (fun _ -> float_of_int (P.centered_binomial g ~eta)) in
  let m = S.mean samples and v = S.variance samples in
  check Alcotest.bool "mean near 0" true (Float.abs m < 0.1);
  (* variance of centered binomial with parameter eta is eta/2 = 10.5 *)
  check Alcotest.bool "variance near eta/2" true (Float.abs (v -. 10.5) < 1.0)

let test_gaussian_moments () =
  let g = P.create ~seed:17 in
  let n = 20000 in
  let samples = Array.init n (fun _ -> P.gaussian g ~sigma:3.2) in
  check Alcotest.bool "mean near 0" true (Float.abs (S.mean samples) < 0.1);
  check Alcotest.bool "sigma near 3.2" true (Float.abs (sqrt (S.variance samples) -. 3.2) < 0.15)

let test_shuffle_permutation () =
  let g = P.create ~seed:19 in
  let a = Array.init 50 Fun.id in
  P.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "shuffle is a permutation" (Array.init 50 Fun.id) sorted

let test_binomial_negative_eta () =
  Alcotest.check_raises "eta = -1"
    (Invalid_argument "Prng.centered_binomial: eta must be non-negative") (fun () ->
      ignore (P.centered_binomial (P.create ~seed:1) ~eta:(-1)))

(* Each seed's first raw output has its top 62 bits at or above
   2^62 - 256, the draws [float_of_int] rounds up to 2^62 (seeds found by
   inverting the splitmix64 and xoshiro256** output maps). *)
let test_float01_below_one () =
  List.iter
    (fun seed ->
      let top = Int64.shift_right_logical (P.bits64 (P.create ~seed)) 2 in
      check Alcotest.bool "a rounding draw" true (Int64.compare top 0x3FFF_FFFF_FFFF_FF00L >= 0);
      check (Alcotest.float 0.) "largest float below one" (Float.pred 1.)
        (P.float01 (P.create ~seed)))
    [ 884820625909093051; -1778988460208707 ]

(* ------------------------------------------------------------------ *)
(* FFT                                                                 *)
(* ------------------------------------------------------------------ *)

let test_fft_roundtrip () =
  let g = P.create ~seed:23 in
  let n = 256 in
  let buf = F.make_buffer n in
  let orig_re = Array.init n (fun _ -> P.float01 g -. 0.5) in
  let orig_im = Array.init n (fun _ -> P.float01 g -. 0.5) in
  Array.blit orig_re 0 buf.F.re 0 n;
  Array.blit orig_im 0 buf.F.im 0 n;
  F.forward buf;
  F.inverse buf;
  for i = 0 to n - 1 do
    check Alcotest.bool "re roundtrip" true (Float.abs (buf.F.re.(i) -. orig_re.(i)) < 1e-10);
    check Alcotest.bool "im roundtrip" true (Float.abs (buf.F.im.(i) -. orig_im.(i)) < 1e-10)
  done

let test_fft_impulse () =
  (* FFT of a unit impulse is the all-ones vector. *)
  let n = 64 in
  let buf = F.make_buffer n in
  buf.F.re.(0) <- 1.;
  F.forward buf;
  for i = 0 to n - 1 do
    check Alcotest.bool "flat spectrum re" true (Float.abs (buf.F.re.(i) -. 1.) < 1e-12);
    check Alcotest.bool "flat spectrum im" true (Float.abs buf.F.im.(i) < 1e-12)
  done

let test_fft_single_tone () =
  (* A tone e^{+2pi i k0 t / n} lands on bin k0 under the forward kernel
     e^{-2pi i jk/n}. *)
  let n = 32 and k0 = 5 in
  let buf = F.make_buffer n in
  for t = 0 to n - 1 do
    let theta = 2. *. Float.pi *. float_of_int (k0 * t) /. float_of_int n in
    buf.F.re.(t) <- cos theta;
    buf.F.im.(t) <- sin theta
  done;
  F.forward buf;
  for k = 0 to n - 1 do
    let mag = sqrt ((buf.F.re.(k) *. buf.F.re.(k)) +. (buf.F.im.(k) *. buf.F.im.(k))) in
    if k = k0 then check Alcotest.bool "tone bin" true (Float.abs (mag -. float_of_int n) < 1e-9)
    else check Alcotest.bool "other bins empty" true (mag < 1e-9)
  done

let test_fft_linearity () =
  let g = P.create ~seed:29 in
  let n = 128 in
  let a = F.make_buffer n and b = F.make_buffer n and s = F.make_buffer n in
  for i = 0 to n - 1 do
    a.F.re.(i) <- P.float01 g;
    b.F.re.(i) <- P.float01 g;
    s.F.re.(i) <- a.F.re.(i) +. b.F.re.(i)
  done;
  F.forward a;
  F.forward b;
  F.forward s;
  for i = 0 to n - 1 do
    check Alcotest.bool "linear" true
      (Float.abs (s.F.re.(i) -. a.F.re.(i) -. b.F.re.(i)) < 1e-9)
  done

let test_fft_bad_length () =
  let buf = { F.re = Array.make 12 0.; F.im = Array.make 12 0. } in
  Alcotest.check_raises "non power of two rejected"
    (Invalid_argument "Fft: length must be a power of two") (fun () -> F.forward buf)

(* ------------------------------------------------------------------ *)
(* Primes                                                              *)
(* ------------------------------------------------------------------ *)

let test_is_prime_small () =
  let primes = [ 2; 3; 5; 7; 11; 13; 97; 7919 ] in
  let composites = [ 0; 1; 4; 9; 91; 561; 1105; 7917 ] in
  List.iter (fun p -> check Alcotest.bool (string_of_int p) true (Pr.is_prime p)) primes;
  List.iter (fun c -> check Alcotest.bool (string_of_int c) false (Pr.is_prime c)) composites

let test_is_prime_carmichael () =
  (* Carmichael numbers fool Fermat tests but not Miller-Rabin. *)
  List.iter
    (fun c -> check Alcotest.bool (string_of_int c) false (Pr.is_prime c))
    [ 561; 1105; 1729; 2465; 2821; 6601; 8911; 41041; 825265 ]

let test_ntt_primes_properties () =
  let n = 4096 in
  let ps = Pr.ntt_primes ~bits:28 ~n ~count:8 in
  check Alcotest.int "count" 8 (List.length ps);
  List.iter
    (fun p ->
      check Alcotest.bool "prime" true (Pr.is_prime p);
      check Alcotest.int "ntt friendly" 1 (p mod (2 * n));
      check Alcotest.bool "28 bits" true (p > 1 lsl 27 && p < 1 lsl 28))
    ps;
  let sorted = List.sort (fun a b -> compare b a) ps in
  check Alcotest.(list int) "decreasing, distinct" sorted ps;
  check Alcotest.int "distinct" 8 (List.length (List.sort_uniq compare ps))

let test_ntt_primes_avoiding () =
  let n = 1024 in
  let base = Pr.ntt_primes ~bits:28 ~n ~count:3 in
  let avoided = Pr.ntt_primes_avoiding ~bits:28 ~n ~count:3 ~avoid:base in
  List.iter
    (fun p -> check Alcotest.bool "not in avoid list" false (List.mem p base))
    avoided

let test_primitive_root () =
  let n = 1024 in
  List.iter
    (fun p ->
      let g = Pr.primitive_root_2n ~p ~n in
      check Alcotest.int "g^n = -1" (p - 1) (M.pow ~q:p g n);
      check Alcotest.int "g^2n = 1" 1 (M.pow ~q:p g (2 * n)))
    (Pr.ntt_primes ~bits:28 ~n ~count:4)

(* ------------------------------------------------------------------ *)
(* NTT                                                                 *)
(* ------------------------------------------------------------------ *)

let ntt_table n =
  let p = List.hd (Pr.ntt_primes ~bits:28 ~n ~count:1) in
  N.make_table ~p ~n

let test_ntt_roundtrip () =
  List.iter
    (fun n ->
      let t = ntt_table n in
      let g = P.create ~seed:31 in
      let a = Array.init n (fun _ -> P.uniform_mod g (N.prime t)) in
      let b = B.of_array a in
      N.forward t b;
      N.inverse t b;
      check Alcotest.(array int) (Printf.sprintf "roundtrip n=%d" n) a (B.to_array b))
    [ 8; 64; 512; 1024 ]

let test_ntt_fast_vs_reference () =
  (* the Shoup transforms must agree bit-for-bit with the
     division-based reference on identical inputs *)
  List.iter
    (fun n ->
      let t = ntt_table n in
      let r = NR.make_table ~p:(N.prime t) ~n in
      let g = P.create ~seed:41 in
      let a = Array.init n (fun _ -> P.uniform_mod g (N.prime t)) in
      let fwd_fast = B.of_array a and fwd_ref = B.of_array a in
      N.forward t fwd_fast;
      NR.forward r fwd_ref;
      check Alcotest.(array int)
        (Printf.sprintf "forward n=%d" n)
        (B.to_array fwd_ref) (B.to_array fwd_fast);
      let inv_fast = B.copy fwd_fast and inv_ref = B.copy fwd_fast in
      N.inverse t inv_fast;
      NR.inverse r inv_ref;
      check Alcotest.(array int)
        (Printf.sprintf "inverse n=%d" n)
        (B.to_array inv_ref) (B.to_array inv_fast);
      check Alcotest.(array int) (Printf.sprintf "roundtrip n=%d" n) a (B.to_array inv_fast))
    [ 8; 64; 1024 ]

(* The forward transform keeps residues in [0, 2p) between stages when
   2p <= 2^31 and the special prime's takes the strict butterflies; the
   inverse folds n^-1 into its last stage. Both must agree with the
   reference bit for bit at the edges of those bounds: inputs all p - 1
   (every sum near its bound), all zero, and random, for the largest NTT
   primes below 2^28, 2^29 and 2^30 (lazy) and below 2^31 (strict), at
   every degree 8 .. 4096. Each prime is 1 mod 8192, so it serves every
   degree. *)
let bound_primes =
  lazy (List.map (fun bits -> List.hd (Pr.ntt_primes ~bits ~n:4096 ~count:1)) [ 28; 29; 30; 31 ])

(* [None] when the fast and reference transforms agree on [a], forward
   and inverse; otherwise which one differs. *)
let ntt_bound_mismatch ~p ~n a =
  let t = N.make_table ~p ~n and r = NR.table ~p ~n in
  let fast = B.copy a and reference = B.copy a in
  N.forward t fast;
  NR.forward r reference;
  if not (B.equal fast reference) then Some "forward"
  else begin
    let fast = B.copy a and reference = B.copy a in
    N.inverse t fast;
    NR.inverse r reference;
    if B.equal fast reference then None else Some "inverse"
  end

let bound_input ~p ~n ~seed = function
  | 0 -> B.init n (fun _ -> p - 1)
  | 1 -> B.create n
  | _ ->
      let g = P.create ~seed in
      B.init n (fun _ -> P.uniform_mod g p)

let test_ntt_bounds_every_case () =
  List.iter
    (fun p ->
      for log_n = 3 to 12 do
        let n = 1 lsl log_n in
        List.iter
          (fun (kind, name) ->
            match ntt_bound_mismatch ~p ~n (bound_input ~p ~n ~seed:log_n kind) with
            | None -> ()
            | Some which -> Alcotest.failf "%s p=%d n=%d %s input differs" which p n name)
          [ (0, "p-1"); (1, "zero"); (2, "random") ]
      done)
    (Lazy.force bound_primes)

let prop_ntt_bounds =
  QCheck.Test.make ~name:"forward/inverse = reference at the lazy bounds" ~count:200
    QCheck.(quad (int_range 3 12) (int_bound 3) (int_bound 2) small_nat)
    (fun (log_n, prime, kind, seed) ->
      let p = List.nth (Lazy.force bound_primes) prime and n = 1 lsl log_n in
      ntt_bound_mismatch ~p ~n (bound_input ~p ~n ~seed kind) = None)

(* The reference transform's products, checked against the schoolbook
   product; the fast transform is checked against the reference above. *)
let ref_table n = NR.make_table ~p:(N.prime (ntt_table n)) ~n

(* Schoolbook negacyclic product for cross-validation. *)
let schoolbook_negacyclic ~q a b =
  let n = Array.length a in
  let r = Array.make n 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let k = i + j in
      let v = M.mul ~q a.(i) b.(j) in
      if k < n then r.(k) <- M.add ~q r.(k) v
      else r.(k - n) <- M.sub ~q r.(k - n) v
    done
  done;
  r

let test_ntt_vs_schoolbook () =
  let n = 64 in
  let t = ref_table n in
  let q = t.NR.p in
  let g = P.create ~seed:37 in
  for _ = 1 to 5 do
    let a = Array.init n (fun _ -> P.uniform_mod g q) in
    let b = Array.init n (fun _ -> P.uniform_mod g q) in
    check Alcotest.(array int) "matches schoolbook" (schoolbook_negacyclic ~q a b)
      (B.to_array (NR.negacyclic_mul t (B.of_array a) (B.of_array b)))
  done

let test_ntt_negacyclic_wrap () =
  (* X^(n-1) * X = X^n = -1 in the ring. *)
  let n = 32 in
  let t = ref_table n in
  let q = t.NR.p in
  let a = B.create n and b = B.create n in
  B.set a (n - 1) 1;
  B.set b 1 1;
  let r = NR.negacyclic_mul t a b in
  check Alcotest.int "constant term is -1" (q - 1) (B.get r 0);
  for i = 1 to n - 1 do
    check Alcotest.int "other terms zero" 0 (B.get r i)
  done

let prop_ntt_convolution_linear =
  QCheck.Test.make ~name:"ntt mul distributes over addition" ~count:20
    QCheck.(
      pair
        (list_of_size (Gen.return 16) (int_bound 1000))
        (list_of_size (Gen.return 16) (int_bound 1000)))
    (fun (la, lb) ->
      let n = 16 in
      let t = ref_table n in
      let q = t.NR.p in
      let a = B.of_array (Array.of_list la) and b = B.of_array (Array.of_list lb) in
      let c = B.init n (fun i -> i * 7 mod q) in
      let ab = NR.negacyclic_mul t a b and ac = NR.negacyclic_mul t a c in
      let b_plus_c = B.init n (fun i -> M.add ~q (B.get b i) (B.get c i)) in
      let lhs = NR.negacyclic_mul t a b_plus_c in
      let rhs = B.init n (fun i -> M.add ~q (B.get ab i) (B.get ac i)) in
      B.equal lhs rhs)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_basic () =
  check (Alcotest.float 1e-12) "mean" 2.5 (S.mean [| 1.; 2.; 3.; 4. |]);
  check (Alcotest.float 1e-12) "variance" 1.25 (S.variance [| 1.; 2.; 3.; 4. |]);
  check (Alcotest.float 1e-12) "rmse zero" 0. (S.rmse [| 1.; 2. |] [| 1.; 2. |]);
  check (Alcotest.float 1e-12) "rmse" (sqrt 0.5) (S.rmse [| 1.; 2. |] [| 2.; 2. |]);
  check (Alcotest.float 1e-12) "max_abs_diff" 3. (S.max_abs_diff [| 1.; 5. |] [| 4.; 4. |]);
  check (Alcotest.float 1e-12) "geomean" 2. (S.geomean [| 1.; 4. |]);
  check (Alcotest.float 1e-12) "relative error" 0.5 (S.relative_error ~actual:2. ~estimate:3.)

let test_stats_percentile () =
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  check (Alcotest.float 1e-12) "median" 50. (S.percentile xs 50.);
  check (Alcotest.float 1e-12) "p100" 100. (S.percentile xs 100.);
  check (Alcotest.float 1e-12) "p1" 1. (S.percentile xs 1.)

let test_stats_errors () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty input") (fun () ->
      ignore (S.mean [||]));
  Alcotest.check_raises "rmse mismatch" (Invalid_argument "Stats.rmse: length mismatch")
    (fun () -> ignore (S.rmse [| 1. |] [| 1.; 2. |]))

let test_stats_median () =
  check (Alcotest.float 1e-12) "odd length" 3. (S.median [| 5.; 1.; 3. |]);
  check (Alcotest.float 1e-12) "even length" 2.5 (S.median [| 4.; 1.; 2.; 3. |]);
  check (Alcotest.float 1e-12) "single" 7. (S.median [| 7. |]);
  (* median is robust to one outlier where the mean is not *)
  check (Alcotest.float 1e-12) "outlier" 2. (S.median [| 1.; 2.; 1000. |]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.median: empty input") (fun () ->
      ignore (S.median [||]))

let test_monotonic_now () =
  let prev = ref (S.monotonic_now_s ()) in
  for _ = 1 to 1000 do
    let t = S.monotonic_now_s () in
    check Alcotest.bool "non-decreasing" true (t >= !prev);
    prev := t
  done

(* A sampler that takes [times.(i)] seconds a call at its [i]-th use and
   logs the batches asked of it: no clock, so the checks are exact. *)
let fake times =
  let uses = ref [] in
  ( (fun k ->
      uses := k :: !uses;
      times.(List.length !uses - 1) *. float_of_int k),
    fun () -> List.rev !uses )

let test_interleave_round_robin () =
  let log = Buffer.create 16 in
  let v c = S.calls (fun () -> Buffer.add_char log c) in
  ignore (S.interleave ~rounds:3 [| v 'a'; v 'b'; v 'c' |]);
  check Alcotest.string "a warm-up round, then three" "abcabcabcabc" (Buffer.contents log)

let test_interleave_warmup_untimed () =
  let a, uses = fake [| 100.; 100.; 1.; 2.; 3. |] in
  let t = S.interleave ~warmup:2 ~rounds:3 [| a |] in
  check Alcotest.(list int) "two warm-up calls, three samples" [ 1; 1; 1; 1; 1 ] (uses ());
  check Alcotest.(array (float 0.)) "samples" [| 1.; 2.; 3. |] t.S.samples.(0);
  (* on the clock: a staged call's set-up stays outside the timer *)
  let t = S.interleave ~rounds:3 [| S.staged (fun () -> Unix.sleepf 0.02; ignore) |] in
  check Alcotest.bool "set-up not timed" true (t.S.median.(0) < 0.01)

let test_interleave_batching () =
  (* 1 ms a call: batches of 1, 2 and 4 fall short of 5 ms, 8 reaches it *)
  let a, uses = fake (Array.make 7 1e-3) in
  let t = S.interleave ~warmup:0 ~min_sample_s:5e-3 ~rounds:3 [| a |] in
  check Alcotest.(list int) "doubling, then batches of 8" [ 1; 2; 4; 8; 8; 8; 8 ] (uses ());
  check (Alcotest.float 1e-12) "per-call time" 1e-3 t.S.median.(0)

let test_interleave_ratio () =
  (* per-round ratios 0.5, 2 and 2 have median 2; the medians' ratio is 1 *)
  let a, _ = fake [| 1.; 2.; 10. |] and b, _ = fake [| 2.; 1.; 5. |] in
  let t = S.interleave ~warmup:0 ~rounds:3 [| a; b |] in
  check (Alcotest.float 0.) "equal medians" t.S.median.(0) t.S.median.(1);
  check (Alcotest.float 0.) "median of per-round ratios" 2. t.S.speedup.(1);
  check Alcotest.(pair (float 0.) (float 0.)) "quartiles" (1., 5.) (t.S.q1.(1), t.S.q3.(1))

let test_interleave_invalid () =
  Alcotest.check_raises "rounds" (Invalid_argument "Stats.interleave: rounds must be >= 1")
    (fun () -> ignore (S.interleave ~rounds:0 [| S.calls ignore |]));
  Alcotest.check_raises "warmup" (Invalid_argument "Stats.interleave: negative warmup") (fun () ->
      ignore (S.interleave ~warmup:(-1) ~rounds:1 [| S.calls ignore |]))

(* ------------------------------------------------------------------ *)
(* Fileio.write_atomic                                                 *)
(* ------------------------------------------------------------------ *)

module Fio = Hecate_support.Fileio

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_temp_dir f =
  let dir = Filename.temp_file "hecate_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let test_write_atomic_basic () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "out.txt" in
  Fio.write_atomic ~path "hello";
  check Alcotest.string "contents" "hello" (read_file path);
  Fio.write_atomic ~path "replaced";
  check Alcotest.string "overwrite" "replaced" (read_file path);
  (* no stray temp files survive a successful write *)
  check Alcotest.(list string) "no leftovers" [ "out.txt" ]
    (Array.to_list (Sys.readdir dir))

(* The atomicity property: a reader racing a stream of writers never
   observes a torn file — every read returns one of the complete
   payloads, never a prefix or a mix. *)
let test_write_atomic_never_partial () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "contended.bin" in
  let payload c = String.make 32768 c in
  let a = payload 'a' and b = payload 'b' in
  let rounds = 50 in
  let writer =
    Domain.spawn (fun () ->
        for i = 1 to rounds do
          Fio.write_atomic ~path (if i land 1 = 0 then a else b)
        done)
  in
  let torn = ref 0 and reads = ref 0 in
  while !reads < 500 do
    (match read_file path with
    | s -> if not (String.equal s a || String.equal s b) then incr torn
    | exception Sys_error _ -> () (* not yet created *));
    incr reads
  done;
  Domain.join writer;
  check Alcotest.int "no torn reads" 0 !torn;
  check Alcotest.string "final contents" a (read_file path)

(* ------------------------------------------------------------------ *)
(* Pool shutdown                                                       *)
(* ------------------------------------------------------------------ *)

module Pool = Hecate_support.Pool

let test_pool_double_shutdown () =
  let p = Pool.create ~size:2 () in
  let r = Pool.map_array p ~f:(fun x -> x * x) [| 1; 2; 3 |] in
  check Alcotest.(array int) "map" [| 1; 4; 9 |] r;
  Pool.shutdown p;
  Pool.shutdown p;
  (* idempotent *)
  Alcotest.check_raises "map_array after shutdown"
    (Invalid_argument "Pool.map_array: pool is shut down") (fun () ->
      ignore (Pool.map_array p ~f:Fun.id [| 1 |]))

let test_pool_concurrent_shutdown () =
  let p = Pool.create ~size:2 () in
  ignore (Pool.map_array p ~f:Fun.id [| 1; 2; 3; 4 |]);
  let callers =
    List.init 4 (fun _ -> Domain.spawn (fun () -> Pool.shutdown p))
  in
  Pool.shutdown p;
  List.iter Domain.join callers;
  Alcotest.check_raises "closed afterwards"
    (Invalid_argument "Pool.map_array: pool is shut down") (fun () ->
      ignore (Pool.map_array p ~f:Fun.id [| 1 |]))

(* Work already submitted must complete even when shutdown lands while
   the queue is still full — the daemon relies on this to drain cleanly
   on SIGTERM. *)
let test_pool_shutdown_drains_pending () =
  let p = Pool.create ~size:2 () in
  let done_count = Atomic.make 0 in
  let submitter =
    Domain.spawn (fun () ->
        Pool.map_array p
          ~f:(fun i ->
            Unix.sleepf 0.002;
            Atomic.incr done_count;
            i)
          (Array.init 16 Fun.id))
  in
  (* let some tasks queue up, then shut down underneath the submitter *)
  Unix.sleepf 0.005;
  Pool.shutdown p;
  let results = Domain.join submitter in
  check Alcotest.int "all tasks ran" 16 (Atomic.get done_count);
  check Alcotest.(array int) "results intact" (Array.init 16 Fun.id) results

(* A pool counts its caller: size 1 spawns no domain and runs every task
   on the calling domain. Domain ids come from one counter, so a domain
   spawned after the pool's work gets the id right after one spawned
   before it. *)
let test_pool_size_one_runs_on_caller () =
  let probe () =
    let d = Domain.spawn Fun.id in
    let id = (Domain.get_id d :> int) in
    Domain.join d;
    id
  in
  let before = probe () in
  let self = Domain.self () in
  let ran_on =
    Pool.with_pool ~size:1 (fun p ->
        check Alcotest.int "size" 1 (Pool.size p);
        Pool.map_array p ~f:(fun _ -> Domain.self ()) (Array.init 8 Fun.id))
  in
  check Alcotest.bool "every task on the caller" true (Array.for_all (( = ) self) ran_on);
  check Alcotest.int "no domain spawned" (before + 1) (probe ())

(* Results come back in input order whoever ran them, and a task's
   exception surfaces only once every other task has finished. *)
let test_pool_order_and_late_raise () =
  Pool.with_pool ~size:2 (fun p ->
      let n = 32 in
      check Alcotest.(array int) "order" (Array.init n (fun i -> i * i))
        (Pool.map_array p ~f:(fun i -> if i mod 3 = 0 then Unix.sleepf 0.001; i * i)
           (Array.init n Fun.id));
      let finished = Atomic.make 0 in
      (match
         Pool.map_array p
           ~f:(fun i ->
             if i = 0 then failwith "task 0"
             else begin
               Unix.sleepf 0.002;
               Atomic.incr finished
             end)
           (Array.init n Fun.id)
       with
      | _ -> Alcotest.fail "the task's exception must be re-raised"
      | exception Failure msg -> check Alcotest.string "re-raised" "task 0" msg);
      check Alcotest.int "every other task finished first" (n - 1) (Atomic.get finished))

(* ------------------------------------------------------------------ *)
(* Json rendering                                                      *)
(* ------------------------------------------------------------------ *)

module J = Hecate_support.Json

let test_json_render_roundtrip () =
  let v =
    J.Obj
      [
        ("s", J.Str "a\"b\\c\nd\te\x01f");
        ("n", J.Num 3.5);
        ("i", J.int 42);
        ("big", J.Num 1e100);
        ("t", J.Bool true);
        ("z", J.Null);
        ("a", J.Arr [ J.int 1; J.Str "x"; J.Arr []; J.Obj [] ]);
      ]
  in
  let line = J.render v in
  check Alcotest.bool "single line" false (String.contains line '\n');
  check Alcotest.bool "roundtrips" true (J.parse line = v)

let test_json_render_nonfinite () =
  check Alcotest.string "nan is null" "null" (J.render (J.Num Float.nan));
  check Alcotest.string "inf is null" "null" (J.render (J.Num Float.infinity));
  check Alcotest.string "int form" "7" (J.render (J.int 7));
  check Alcotest.string "float form" "0.5" (J.render (J.Num 0.5))

(* Nesting past the bound is the ordinary parse error, found before the
   parser reads on: ten million '[' fail at once, in bounded memory. *)
let test_json_depth () =
  let nest d = String.make d '[' ^ String.make d ']' in
  let rec depth = function J.Arr [ v ] -> 1 + depth v | J.Arr [] -> 1 | _ -> 0 in
  check Alcotest.int "at the bound" J.max_depth (depth (J.parse (nest J.max_depth)));
  check Alcotest.int "objects too" 3 (match J.parse {|{"a":{"b":{}}}|} with
    | J.Obj [ ("a", J.Obj [ ("b", J.Obj []) ]) ] -> 3 | _ -> 0);
  let fails s =
    match J.parse s with
    | _ -> "parsed"
    | exception J.Parse_error m -> m
  in
  let deeper = Printf.sprintf "nesting deeper than %d at offset %d" J.max_depth J.max_depth in
  check Alcotest.string "one past" deeper (fails (nest (J.max_depth + 1)));
  (* 256 objects, each holding an array: the 513th level opens at byte 256 * 6 *)
  check Alcotest.string "mixed"
    (Printf.sprintf "nesting deeper than %d at offset %d" J.max_depth (256 * 6))
    (fails (String.concat "" (List.init 300 (fun _ -> {|{"k":[|}))));
  let words0 = Gc.minor_words () in
  check Alcotest.string "ten million" deeper (fails (String.make 10_000_000 '['));
  check Alcotest.bool "bounded allocation" true (Gc.minor_words () -. words0 < 100_000.);
  (* siblings do not add up *)
  let wide = "[" ^ String.concat "," (List.init 2000 (fun _ -> nest 10)) ^ "]" in
  check Alcotest.int "siblings" 2000 (List.length (J.to_list (J.parse wide)))

let () =
  Alcotest.run "hecate_support"
    [
      ( "modarith",
        [
          Alcotest.test_case "basic ops" `Quick test_mod_basic;
          Alcotest.test_case "inverses" `Quick test_mod_inverse;
          qtest prop_mul_assoc;
          qtest prop_centered_roundtrip;
          Alcotest.test_case "shoup vs naive" `Quick test_shoup_vs_naive;
          Alcotest.test_case "pow negative base" `Quick test_pow_negative_base;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seeds_differ;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "split determinism" `Quick test_split_deterministic;
          Alcotest.test_case "split name sensitivity" `Quick test_split_names_differ;
          Alcotest.test_case "split independence" `Quick test_split_independent;
          Alcotest.test_case "split keyed on state" `Quick test_split_tracks_parent_state;
          Alcotest.test_case "int_below range" `Quick test_int_below_range;
          Alcotest.test_case "int_below uniformity" `Quick test_int_below_uniformish;
          Alcotest.test_case "ternary support" `Quick test_ternary_support;
          Alcotest.test_case "centered binomial moments" `Quick test_centered_binomial_moments;
          Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "binomial negative eta" `Quick test_binomial_negative_eta;
          Alcotest.test_case "float01 below one" `Quick test_float01_below_one;
        ] );
      ( "fft",
        [
          Alcotest.test_case "roundtrip" `Quick test_fft_roundtrip;
          Alcotest.test_case "impulse" `Quick test_fft_impulse;
          Alcotest.test_case "single tone" `Quick test_fft_single_tone;
          Alcotest.test_case "linearity" `Quick test_fft_linearity;
          Alcotest.test_case "bad length" `Quick test_fft_bad_length;
        ] );
      ( "primes",
        [
          Alcotest.test_case "small primes" `Quick test_is_prime_small;
          Alcotest.test_case "carmichael numbers" `Quick test_is_prime_carmichael;
          Alcotest.test_case "ntt prime properties" `Quick test_ntt_primes_properties;
          Alcotest.test_case "avoid list" `Quick test_ntt_primes_avoiding;
          Alcotest.test_case "primitive roots" `Quick test_primitive_root;
        ] );
      ( "ntt",
        [
          Alcotest.test_case "roundtrip" `Quick test_ntt_roundtrip;
          Alcotest.test_case "fast vs naive" `Quick test_ntt_fast_vs_reference;
          Alcotest.test_case "lazy bounds, every case" `Quick test_ntt_bounds_every_case;
          qtest prop_ntt_bounds;
          Alcotest.test_case "vs schoolbook" `Quick test_ntt_vs_schoolbook;
          Alcotest.test_case "negacyclic wraparound" `Quick test_ntt_negacyclic_wrap;
          qtest prop_ntt_convolution_linear;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "errors" `Quick test_stats_errors;
          Alcotest.test_case "median" `Quick test_stats_median;
          Alcotest.test_case "monotonic clock" `Quick test_monotonic_now;
          Alcotest.test_case "interleave round-robin" `Quick test_interleave_round_robin;
          Alcotest.test_case "interleave warm-up untimed" `Quick test_interleave_warmup_untimed;
          Alcotest.test_case "interleave batching" `Quick test_interleave_batching;
          Alcotest.test_case "interleave ratio" `Quick test_interleave_ratio;
          Alcotest.test_case "interleave invalid" `Quick test_interleave_invalid;
        ] );
      ( "fileio",
        [
          Alcotest.test_case "write_atomic basic" `Quick test_write_atomic_basic;
          Alcotest.test_case "write_atomic never partial" `Quick
            test_write_atomic_never_partial;
        ] );
      ( "pool",
        [
          Alcotest.test_case "double shutdown" `Quick test_pool_double_shutdown;
          Alcotest.test_case "concurrent shutdown" `Quick test_pool_concurrent_shutdown;
          Alcotest.test_case "shutdown drains pending" `Quick
            test_pool_shutdown_drains_pending;
          Alcotest.test_case "size one runs on the caller" `Quick
            test_pool_size_one_runs_on_caller;
          Alcotest.test_case "order and late raise" `Quick test_pool_order_and_late_raise;
        ] );
      ( "json",
        [
          Alcotest.test_case "render roundtrip" `Quick test_json_render_roundtrip;
          Alcotest.test_case "non-finite numbers" `Quick test_json_render_nonfinite;
          Alcotest.test_case "nesting depth bound" `Quick test_json_depth;
        ] );
    ]
