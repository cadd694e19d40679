type table = {
  p : int;
  n : int;
  psi_rev : int array; (* psi^bitrev(i), i = 0..n-1 *)
  psi_rev_shoup : int array; (* floor(psi_rev * 2^31 / p) *)
  psi_inv_rev : int array; (* psi^{-bitrev(i)} *)
  psi_inv_rev_shoup : int array;
  n_inv : int;
  n_inv_shoup : int;
  last_inv : int; (* psi^{-bitrev(1)} * n^{-1}, the last inverse stage's twiddle *)
  last_inv_shoup : int;
  lazy_butterflies : bool; (* 2p <= 2^31 and n >= 4: see [forward_lazy] *)
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

let rec log2 acc v = if v = 1 then acc else log2 (acc + 1) (v lsr 1)

let build_table ~p ~n =
  let bits = log2 0 n in
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
  let last_inv = if n > 1 then Modarith.mul ~q:p psi_inv_rev.(1) n_inv else n_inv in
  {
    p;
    n;
    psi_rev;
    psi_rev_shoup = Array.map (Modarith.shoup ~q:p) psi_rev;
    psi_inv_rev;
    psi_inv_rev_shoup = Array.map (Modarith.shoup ~q:p) psi_inv_rev;
    n_inv;
    n_inv_shoup = Modarith.shoup ~q:p n_inv;
    last_inv;
    last_inv_shoup = Modarith.shoup ~q:p last_inv;
    lazy_butterflies = 2 * p <= 1 lsl 31 && n >= 4;
  }

(* Tables are immutable and depend only on (p, n), so every chain over a
   prime shares one: a context built per request finds its tables here
   instead of recomputing twiddles. Held while the table is read or
   filled, as [galois_lock] below. *)
let table_cache : (int * int, table) Hashtbl.t = Hashtbl.create 16
let table_lock = Mutex.create ()

let make_table ~p ~n =
  if n land (n - 1) <> 0 || n <= 0 then invalid_arg "Ntt.make_table: n must be a power of two";
  Mutex.protect table_lock (fun () ->
      match Hashtbl.find_opt table_cache (p, n) with
      | Some t -> t
      | None ->
          let t = build_table ~p ~n in
          Hashtbl.replace table_cache (p, n) t;
          t)

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

(* Strict butterflies: canonical residues in and out of every stage. *)
let forward_strict t a =
  let p = t.p and n = t.n in
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

(* Lazy radix-4 butterflies (Harvey's lazy reduction, as SEAL does).
   Between stages residues stay in [0, 2p): the Shoup product of a value
   below 2p <= 2^31 lies in [0, 2p) without a correction, and the sum and
   difference of two such values return to [0, 2p) with one conditional
   subtraction of 2p each, two per butterfly against the strict
   butterfly's three. Each pass runs two stages on four values held in
   registers, halving the loads and stores; when log2 n is odd one
   radix-2 pass goes first. The last pass canonicalizes its outputs, so
   the result equals [forward_strict]'s bit for bit. Needs 2p <= 2^31
   (the Shoup operand bound) and n >= 4. *)
let forward_lazy t a =
  let p = t.p and n = t.n in
  let p2 = 2 * p in
  let psi = t.psi_rev and psi' = t.psi_rev_shoup in
  let groups = ref 1 and tl = ref (n / 2) in
  (* radix-2 pass: m = 1, distance n/2 *)
  if log2 0 n land 1 = 1 then begin
    let s = Array.unsafe_get psi 1 and s' = Array.unsafe_get psi' 1 in
    let h = n / 2 in
    for j = 0 to h - 1 do
      let x = Buf.unsafe_get a j and y = Buf.unsafe_get a (j + h) in
      let v = (y * s) - (((y * s') lsr 31) * p) in
      let r = x + v - p2 in
      Buf.unsafe_set a j (r + (r asr 62 land p2));
      let d = x - v in
      Buf.unsafe_set a (j + h) (d + (d asr 62 land p2))
    done;
    groups := 2;
    tl := n / 4
  end;
  (* radix-4 passes: stage (m, distance t) then stage (2m, distance t/2) *)
  while !tl > 2 do
    let m = !groups and t = !tl in
    let h = t / 2 in
    for i = 0 to m - 1 do
      let j1 = 2 * i * t in
      let s = Array.unsafe_get psi (m + i) and s' = Array.unsafe_get psi' (m + i) in
      let k = (2 * m) + (2 * i) in
      let s1 = Array.unsafe_get psi k and s1' = Array.unsafe_get psi' k in
      let s2 = Array.unsafe_get psi (k + 1) and s2' = Array.unsafe_get psi' (k + 1) in
      for j = j1 to j1 + h - 1 do
        let x0 = Buf.unsafe_get a j and x1 = Buf.unsafe_get a (j + h) in
        let x2 = Buf.unsafe_get a (j + t) and x3 = Buf.unsafe_get a (j + t + h) in
        let v = (x2 * s) - (((x2 * s') lsr 31) * p) in
        let r = x0 + v - p2 in
        let y0 = r + (r asr 62 land p2) in
        let d = x0 - v in
        let y2 = d + (d asr 62 land p2) in
        let v = (x3 * s) - (((x3 * s') lsr 31) * p) in
        let r = x1 + v - p2 in
        let y1 = r + (r asr 62 land p2) in
        let d = x1 - v in
        let y3 = d + (d asr 62 land p2) in
        let v = (y1 * s1) - (((y1 * s1') lsr 31) * p) in
        let r = y0 + v - p2 in
        Buf.unsafe_set a j (r + (r asr 62 land p2));
        let d = y0 - v in
        Buf.unsafe_set a (j + h) (d + (d asr 62 land p2));
        let v = (y3 * s2) - (((y3 * s2') lsr 31) * p) in
        let r = y2 + v - p2 in
        Buf.unsafe_set a (j + t) (r + (r asr 62 land p2));
        let d = y2 - v in
        Buf.unsafe_set a (j + t + h) (d + (d asr 62 land p2))
      done
    done;
    tl := t / 4;
    groups := 4 * m
  done;
  (* last radix-4 pass (distances 2 and 1), canonical outputs *)
  let m = !groups in
  for i = 0 to m - 1 do
    let j = 4 * i in
    let s = Array.unsafe_get psi (m + i) and s' = Array.unsafe_get psi' (m + i) in
    let k = (2 * m) + (2 * i) in
    let s1 = Array.unsafe_get psi k and s1' = Array.unsafe_get psi' k in
    let s2 = Array.unsafe_get psi (k + 1) and s2' = Array.unsafe_get psi' (k + 1) in
    let x0 = Buf.unsafe_get a j and x1 = Buf.unsafe_get a (j + 1) in
    let x2 = Buf.unsafe_get a (j + 2) and x3 = Buf.unsafe_get a (j + 3) in
    let v = (x2 * s) - (((x2 * s') lsr 31) * p) in
    let r = x0 + v - p2 in
    let y0 = r + (r asr 62 land p2) in
    let d = x0 - v in
    let y2 = d + (d asr 62 land p2) in
    let v = (x3 * s) - (((x3 * s') lsr 31) * p) in
    let r = x1 + v - p2 in
    let y1 = r + (r asr 62 land p2) in
    let d = x1 - v in
    let y3 = d + (d asr 62 land p2) in
    (* [0, 2p) sums and differences, then one conditional subtraction of p *)
    let v = (y1 * s1) - (((y1 * s1') lsr 31) * p) in
    let r = y0 + v - p2 in
    let r = r + (r asr 62 land p2) - p in
    Buf.unsafe_set a j (r + (r asr 62 land p));
    let d = y0 - v in
    let d = d + (d asr 62 land p2) - p in
    Buf.unsafe_set a (j + 1) (d + (d asr 62 land p));
    let v = (y3 * s2) - (((y3 * s2') lsr 31) * p) in
    let r = y2 + v - p2 in
    let r = r + (r asr 62 land p2) - p in
    Buf.unsafe_set a (j + 2) (r + (r asr 62 land p));
    let d = y2 - v in
    let d = d + (d asr 62 land p2) - p in
    Buf.unsafe_set a (j + 3) (d + (d asr 62 land p))
  done

let forward t a =
  check_length "forward" t a;
  if t.lazy_butterflies then forward_lazy t a else forward_strict t a

(* The inverse's last Gentleman–Sande stage (one group, distance n/2)
   multiplies its sums by [n^-1] and its differences by
   [psi^{-bitrev(1)} * n^-1], so no separate pass scales by [n^-1]. Inputs
   lie in [0, b) for [b] = p (strict) or 2p (lazy); a sum or difference
   is brought back below [b <= 2^31] before its Shoup product, and the
   outputs are canonical. n = 1 needs no stage: n^-1 = 1. *)
let inverse_last_stage t a ~b =
  let p = t.p and h = t.n / 2 in
  let ni = t.n_inv and ni' = t.n_inv_shoup in
  let s = t.last_inv and s' = t.last_inv_shoup in
  for j = 0 to h - 1 do
    let u = Buf.unsafe_get a j in
    let v = Buf.unsafe_get a (j + h) in
    let su = u + v - b in
    let su = su + (su asr 62 land b) in
    let w = (su * ni) - (((su * ni') lsr 31) * p) - p in
    Buf.unsafe_set a j (w + (w asr 62 land p));
    let d = u - v in
    let d = d + (d asr 62 land b) in
    let w = (d * s) - (((d * s') lsr 31) * p) - p in
    Buf.unsafe_set a (j + h) (w + (w asr 62 land p))
  done

(* Gentleman–Sande butterflies, strict: canonical residues in and out of
   every stage. *)
let inverse_strict t a =
  let p = t.p and n = t.n in
  let psi = t.psi_inv_rev and psi' = t.psi_inv_rev_shoup in
  let tlen = ref 1 and m = ref n in
  while !m > 2 do
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
  inverse_last_stage t a ~b:p

(* Lazy radix-4 Gentleman–Sande butterflies, under the same bound as
   [forward_lazy]: the sum of two values in [0, 2p) and their difference
   return to [0, 2p) with one conditional correction each, and the
   difference's Shoup product lies in [0, 2p) without one. Each pass runs
   two stages (distances t and 2t) on four values; when the number of
   stages before the last is odd, one radix-2 pass goes first. *)
let inverse_lazy t a =
  let p = t.p and n = t.n in
  let p2 = 2 * p in
  let psi = t.psi_inv_rev and psi' = t.psi_inv_rev_shoup in
  let tl = ref 1 and groups = ref (n / 2) in
  (* radix-2 pass: n/2 groups, distance 1 *)
  if log2 0 n land 1 = 0 then begin
    let h = n / 2 in
    for i = 0 to h - 1 do
      let j = 2 * i in
      let s = Array.unsafe_get psi (h + i) and s' = Array.unsafe_get psi' (h + i) in
      let u = Buf.unsafe_get a j and v = Buf.unsafe_get a (j + 1) in
      let r = u + v - p2 in
      Buf.unsafe_set a j (r + (r asr 62 land p2));
      let d = u - v in
      let d = d + (d asr 62 land p2) in
      Buf.unsafe_set a (j + 1) ((d * s) - (((d * s') lsr 31) * p))
    done;
    tl := 2;
    groups := n / 4
  end;
  (* radix-4 passes: stage (h groups, distance t) then (h/2, distance 2t) *)
  while !groups > 1 do
    let h = !groups and t = !tl in
    for i = 0 to (h / 2) - 1 do
      let base = 4 * i * t in
      let k = h + (2 * i) in
      let s1 = Array.unsafe_get psi k and s1' = Array.unsafe_get psi' k in
      let s2 = Array.unsafe_get psi (k + 1) and s2' = Array.unsafe_get psi' (k + 1) in
      let s = Array.unsafe_get psi ((h / 2) + i) and s' = Array.unsafe_get psi' ((h / 2) + i) in
      for j = base to base + t - 1 do
        let x0 = Buf.unsafe_get a j and x1 = Buf.unsafe_get a (j + t) in
        let x2 = Buf.unsafe_get a (j + (2 * t)) and x3 = Buf.unsafe_get a (j + (3 * t)) in
        let r = x0 + x1 - p2 in
        let y0 = r + (r asr 62 land p2) in
        let d = x0 - x1 in
        let d = d + (d asr 62 land p2) in
        let y1 = (d * s1) - (((d * s1') lsr 31) * p) in
        let r = x2 + x3 - p2 in
        let y2 = r + (r asr 62 land p2) in
        let d = x2 - x3 in
        let d = d + (d asr 62 land p2) in
        let y3 = (d * s2) - (((d * s2') lsr 31) * p) in
        let r = y0 + y2 - p2 in
        Buf.unsafe_set a j (r + (r asr 62 land p2));
        let d = y0 - y2 in
        let d = d + (d asr 62 land p2) in
        Buf.unsafe_set a (j + (2 * t)) ((d * s) - (((d * s') lsr 31) * p));
        let r = y1 + y3 - p2 in
        Buf.unsafe_set a (j + t) (r + (r asr 62 land p2));
        let d = y1 - y3 in
        let d = d + (d asr 62 land p2) in
        Buf.unsafe_set a (j + (3 * t)) ((d * s) - (((d * s') lsr 31) * p))
      done
    done;
    tl := 4 * t;
    groups := h / 4
  done;
  inverse_last_stage t a ~b:p2

let inverse t a =
  check_length "inverse" t a;
  if t.lazy_butterflies then inverse_lazy t a else inverse_strict t a

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
