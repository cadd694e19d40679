let max_modulus_bits = 31

let add ~q a b =
  let s = a + b in
  if s >= q then s - q else s

let sub ~q a b =
  let d = a - b in
  if d < 0 then d + q else d

let neg ~q a = if a = 0 then 0 else q - a

let mul ~q a b = a * b mod q

(* Conditional subtraction is branchless: for r in [0, 2m), [r - m] is in
   (-m, m), so adding back [m land (sign mask)] selects r or r - m without
   a data-dependent branch (which would mispredict half the time on random
   residues). *)
let[@inline] csub r m =
  let d = r - m in
  d + (d asr 62 land m)

(* ------------------------------------------------------------------ *)
(* Shoup multiplication (one operand fixed)                            *)
(* ------------------------------------------------------------------ *)

(* With beta = 2^31 and w' = floor(w * beta / q) precomputed for a fixed
   multiplicand w < q, the product of any canonical a < beta with w is

     r = a*w - (floor(a*w' / beta)) * q   in [0, 2q)

   (standard Shoup bound: the estimated quotient is off by at most one).
   Both a*w and a*w' are < 2^62, and w * beta < 2^62 at precompute time. *)
let shoup ~q w =
  if w < 0 || w >= q then invalid_arg "Modarith.shoup: operand not reduced";
  w lsl 31 / q

let[@inline] mulmod_shoup ~q a w w_shoup =
  let r = (a * w) - (((a * w_shoup) lsr 31) * q) in
  csub r q

let pow ~q b e =
  assert (e >= 0);
  let rec loop acc b e =
    if e = 0 then acc
    else
      let acc = if e land 1 = 1 then mul ~q acc b else acc in
      loop acc (mul ~q b b) (e lsr 1)
  in
  (* b mod q is negative for negative b in OCaml; normalize first. *)
  let b = b mod q in
  let b = if b < 0 then b + q else b in
  loop 1 b e

let inv ~q a =
  let a = a mod q in
  if a = 0 then invalid_arg "Modarith.inv: zero has no inverse";
  (* Fermat: q is prime. *)
  pow ~q a (q - 2)

let reduce ~q a =
  let r = a mod q in
  if r < 0 then r + q else r

let to_centered ~q a = if a > q / 2 then a - q else a

let of_centered ~q a = reduce ~q a
