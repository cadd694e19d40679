type table = {
  p : int;
  n : int;
  psi_rev : int array; (* psi^bitrev(i), i = 0..n-1 *)
  psi_rev_shoup : int array; (* floor(psi_rev * 2^31 / p) *)
  psi_inv_rev : int array; (* psi^{-bitrev(i)} *)
  psi_inv_rev_shoup : int array;
  n_inv : int;
  n_inv_shoup : int;
}

let prime t = t.p
let degree t = t.n

let bitrev i bits =
  let r = ref 0 and x = ref i in
  for _ = 1 to bits do
    r := (!r lsl 1) lor (!x land 1);
    x := !x lsr 1
  done;
  !r

let make_table ~p ~n =
  if n land (n - 1) <> 0 || n <= 0 then invalid_arg "Ntt.make_table: n must be a power of two";
  let bits =
    let rec log2 acc v = if v = 1 then acc else log2 (acc + 1) (v lsr 1) in
    log2 0 n
  in
  let psi = Primes.primitive_root_2n ~p ~n in
  let psi_inv = Modarith.inv ~q:p psi in
  let pow_table root =
    let a = Array.make n 1 in
    for i = 1 to n - 1 do
      a.(i) <- Modarith.mul ~q:p a.(i - 1) root
    done;
    let rev = Array.make n 0 in
    for i = 0 to n - 1 do
      rev.(i) <- a.(bitrev i bits)
    done;
    rev
  in
  let psi_rev = pow_table psi and psi_inv_rev = pow_table psi_inv in
  let n_inv = Modarith.inv ~q:p n in
  {
    p;
    n;
    psi_rev;
    psi_rev_shoup = Array.map (Modarith.shoup ~q:p) psi_rev;
    psi_inv_rev;
    psi_inv_rev_shoup = Array.map (Modarith.shoup ~q:p) psi_inv_rev;
    n_inv;
    n_inv_shoup = Modarith.shoup ~q:p n_inv;
  }

(* Longa–Naehrig iterative negacyclic NTT (CT butterflies, decimation in
   time), with the psi powers folded into the twiddles so no pre/post scaling
   by psi^i is needed. The butterflies use Shoup twiddle multiplication,
   whose estimated quotient leaves the product in [0, 2p) (see
   docs/PERFORMANCE.md) — one conditional subtraction canonicalizes, so
   they contain no division instruction.

   Residue vectors are [Buf.t] (unboxed Bigarray storage, see buf.mli):
   the GC never scans the coefficient payload, and [Buf.unsafe_get]/
   [Buf.unsafe_set] compile to the same single loads/stores as unsafe
   [int array] accesses. *)

let check_length name t a =
  if Buf.length a <> t.n then invalid_arg ("Ntt." ^ name ^ ": wrong length")

(* The transforms use unchecked accesses: every index is bounded by the loop
   structure once [check_length] has validated the input, and the
   butterflies are branch-light enough that bounds checks would dominate. *)
let forward t a =
  let p = t.p and n = t.n in
  check_length "forward" t a;
  let psi = t.psi_rev and psi' = t.psi_rev_shoup in
  let tlen = ref n and m = ref 1 in
  while !m < n do
    tlen := !tlen / 2;
    for i = 0 to !m - 1 do
      let j1 = 2 * i * !tlen in
      let j2 = j1 + !tlen - 1 in
      let s = Array.unsafe_get psi (!m + i) and s' = Array.unsafe_get psi' (!m + i) in
      for j = j1 to j2 do
        let u = Buf.unsafe_get a j in
        let x = Buf.unsafe_get a (j + !tlen) in
        (* branchless conditional add/subtract, as in Modarith.csub *)
        let v = (x * s) - (((x * s') lsr 31) * p) in
        let v = v - p in
        let v = v + (v asr 62 land p) in
        let su = u + v - p in
        Buf.unsafe_set a j (su + (su asr 62 land p));
        let d = u - v in
        Buf.unsafe_set a (j + !tlen) (d + (d asr 62 land p))
      done
    done;
    m := !m * 2
  done

let inverse t a =
  let p = t.p and n = t.n in
  check_length "inverse" t a;
  let psi = t.psi_inv_rev and psi' = t.psi_inv_rev_shoup in
  let tlen = ref 1 and m = ref n in
  while !m > 1 do
    let j1 = ref 0 in
    let h = !m / 2 in
    for i = 0 to h - 1 do
      let j2 = !j1 + !tlen - 1 in
      let s = Array.unsafe_get psi (h + i) and s' = Array.unsafe_get psi' (h + i) in
      for j = !j1 to j2 do
        let u = Buf.unsafe_get a j in
        let v = Buf.unsafe_get a (j + !tlen) in
        let su = u + v - p in
        Buf.unsafe_set a j (su + (su asr 62 land p));
        let d = u - v in
        let d = d + (d asr 62 land p) in
        let w = (d * s) - (((d * s') lsr 31) * p) in
        let w = w - p in
        Buf.unsafe_set a (j + !tlen) (w + (w asr 62 land p))
      done;
      j1 := !j1 + (2 * !tlen)
    done;
    tlen := !tlen * 2;
    m := h
  done;
  let ni = t.n_inv and ni' = t.n_inv_shoup in
  for i = 0 to n - 1 do
    let x = Buf.unsafe_get a i in
    let w = (x * ni) - (((x * ni') lsr 31) * p) in
    let w = w - p in
    Buf.unsafe_set a i (w + (w asr 62 land p))
  done

(* a hardware [mod] in this module: no call per element (see Poly) *)
let pointwise_mul t dst a b =
  let p = t.p in
  for i = 0 to t.n - 1 do
    Buf.unsafe_set dst i (Buf.unsafe_get a i * Buf.unsafe_get b i mod p)
  done

(* ------------------------------------------------------------------ *)
(* Evaluation-domain Galois permutations                               *)
(* ------------------------------------------------------------------ *)

(* [forward] evaluates the input polynomial at the odd powers of psi in a
   fixed (bit-reversal-derived) order: slot [j] holds [f(psi^{e(j)})] where
   the exponent map [e] depends only on the transform structure, not on the
   prime or the particular psi. The automorphism [X -> X^g] therefore acts
   on Eval-domain vectors as the pure permutation
   [out.(j) = in.(index_of_exponent (g * e(j) mod 2n))], identical for every
   RNS component of a given degree.

   [e] is recovered empirically rather than derived from the butterfly
   layout: transforming the monomial X yields the evaluation points
   [psi^{e(j)}] themselves, and a discrete-log table over the powers of psi
   turns them back into exponents. This keeps the permutation correct by
   construction if the transform ordering ever changes. *)

let exp_cache : (int, int array) Hashtbl.t = Hashtbl.create 4
let perm_cache : (int * int, int array) Hashtbl.t = Hashtbl.create 8
let galois_lock = Mutex.create ()

let slot_exponents t =
  match Hashtbl.find_opt exp_cache t.n with
  | Some e -> e
  | None ->
      let n = t.n and p = t.p in
      let two_n = 2 * n in
      (* psi = psi^bitrev(n/2 .. ) : bitrev maps n/2 back to 1 *)
      let psi = if n = 1 then 1 else t.psi_rev.(n / 2) in
      let dlog = Hashtbl.create (2 * two_n) in
      let pow = ref 1 in
      for k = 0 to two_n - 1 do
        Hashtbl.replace dlog !pow k;
        pow := Modarith.mul ~q:p !pow psi
      done;
      let x = Buf.create n in
      if n > 1 then Buf.set x 1 1 else Buf.set x 0 1;
      forward t x;
      let e =
        Array.init n (fun j ->
            match Hashtbl.find_opt dlog (Buf.get x j) with
            | Some k -> k
            | None -> invalid_arg "Ntt.slot_exponents: transform point is not a power of psi")
      in
      Hashtbl.replace exp_cache t.n e;
      e

let galois_perm t ~galois =
  if galois land 1 = 0 then invalid_arg "Ntt.galois_perm: galois element must be odd";
  let two_n = 2 * t.n in
  let g = ((galois mod two_n) + two_n) mod two_n in
  Mutex.lock galois_lock;
  let perm =
    match Hashtbl.find_opt perm_cache (t.n, g) with
    | Some p -> p
    | None ->
        let e = slot_exponents t in
        let idx_of_exp = Array.make two_n (-1) in
        Array.iteri (fun j ej -> idx_of_exp.(ej) <- j) e;
        let perm =
          Array.init t.n (fun j ->
              let k = idx_of_exp.(e.(j) * g mod two_n) in
              if k < 0 then invalid_arg "Ntt.galois_perm: exponent set not closed under galois";
              k)
        in
        Hashtbl.replace perm_cache (t.n, g) perm;
        perm
  in
  Mutex.unlock galois_lock;
  perm
