(* The reference [Poly] kernels the fast ones are checked against: products
   through [Modarith] calls, the centered lift through
   [Modarith.to_centered], division by a dropped modulus in Coeff domain
   only, Garner reconstruction with [Modarith] calls, and domain changes
   through [Ntt_ref]. Every loop is serial and every access checked. The
   operations [Poly] has only one way of doing ([zero], [add], [neg],
   [automorphism], [restrict_levels], ...) are used from [Poly] itself. *)

module Poly = Hecate_rns.Poly
module Chain = Hecate_rns.Chain
module M = Hecate_support.Modarith
module Bigint = Hecate_support.Bigint
module Buf = Hecate_support.Buf

let table_at (p : Poly.t) i =
  Ntt_ref.table ~p:(Poly.modulus_at p i) ~n:(Chain.degree p.Poly.chain)

(* A fresh polynomial in [domain] holding [p]'s residues, each component
   passed through [f]. *)
let with_domain domain f (p : Poly.t) =
  let out =
    Poly.zero p.Poly.chain ~level_count:p.Poly.level_count ~with_special:p.Poly.with_special domain
  in
  Array.iteri
    (fun i dst ->
      Buf.blit ~src:p.Poly.data.(i) ~dst;
      f (table_at p i) dst)
    out.Poly.data;
  out

let to_eval (p : Poly.t) =
  match p.Poly.domain with Poly.Eval -> p | Poly.Coeff -> with_domain Poly.Eval Ntt_ref.forward p

let to_coeff (p : Poly.t) =
  match p.Poly.domain with Poly.Coeff -> p | Poly.Eval -> with_domain Poly.Coeff Ntt_ref.inverse p

let mul (a : Poly.t) (b : Poly.t) =
  if
    a.Poly.domain <> Poly.Eval || b.Poly.domain <> Poly.Eval || a.Poly.chain != b.Poly.chain
    || a.Poly.level_count <> b.Poly.level_count || a.Poly.with_special <> b.Poly.with_special
  then invalid_arg "Poly_ref.mul: incompatible operands";
  let out = Poly.copy a in
  Array.iteri
    (fun i dst ->
      let q = Poly.modulus_at a i and db = b.Poly.data.(i) in
      for t = 0 to Buf.length dst - 1 do
        Buf.set dst t (M.mul ~q (Buf.get dst t) (Buf.get db t))
      done)
    out.Poly.data;
  out

(* [mul_component_scalars p ks]: component [i] times [ks.(i)]. *)
let mul_component_scalars (p : Poly.t) ks =
  let out = Poly.copy p in
  Array.iteri
    (fun i dst ->
      let q = Poly.modulus_at p i in
      for t = 0 to Buf.length dst - 1 do
        Buf.set dst t (M.mul ~q (Buf.get dst t) ks.(i))
      done)
    out.Poly.data;
  out

let lift_loop ~q_from ~q src dst =
  for t = 0 to Buf.length src - 1 do
    Buf.set dst t (M.reduce ~q (M.to_centered ~q:q_from (Buf.get src t)))
  done

let check_coeff name (p : Poly.t) =
  if p.Poly.domain <> Poly.Coeff then invalid_arg ("Poly_ref." ^ name ^ ": Coeff domain required")

let lift_digit (p : Poly.t) ~digit ~with_special =
  check_coeff "lift_digit" p;
  let out = Poly.zero p.Poly.chain ~level_count:p.Poly.level_count ~with_special Poly.Coeff in
  let q_from = Chain.prime p.Poly.chain digit in
  Array.iteri
    (fun i dst -> lift_loop ~q_from ~q:(Poly.modulus_at out i) p.Poly.data.(digit) dst)
    out.Poly.data;
  out

(* Divide by the modulus of component [count] with centered rounding and
   drop it (and everything above it):
   out_i = (p_i - [p_count]_{q_i}) * inv i  mod q_i. *)
let divide_last (p : Poly.t) ~count ~inv =
  check_coeff "divide_last" p;
  let q_last = Poly.modulus_at p count in
  let last = p.Poly.data.(count) in
  let out = Poly.zero p.Poly.chain ~level_count:count ~with_special:false Poly.Coeff in
  Array.iteri
    (fun i dst ->
      let q = Chain.prime p.Poly.chain i and inv = inv i in
      let src = p.Poly.data.(i) in
      lift_loop ~q_from:q_last ~q last dst;
      for t = 0 to Buf.length dst - 1 do
        Buf.set dst t (M.mul ~q (M.sub ~q (Buf.get src t) (Buf.get dst t)) inv)
      done)
    out.Poly.data;
  out

let rescale_last (p : Poly.t) =
  if p.Poly.with_special || p.Poly.level_count < 2 then invalid_arg "Poly_ref.rescale_last";
  let dropped = p.Poly.level_count - 1 in
  divide_last p ~count:dropped ~inv:(Chain.rescale_inv p.Poly.chain ~dropped)

let mod_down_special (p : Poly.t) =
  if not p.Poly.with_special then invalid_arg "Poly_ref.mod_down_special";
  divide_last p ~count:p.Poly.level_count ~inv:(Chain.special_inv p.Poly.chain)

let crt_reconstruct_centered (p : Poly.t) =
  check_coeff "crt_reconstruct_centered" p;
  if p.Poly.with_special then invalid_arg "Poly_ref.crt_reconstruct_centered: special component";
  let chain = p.Poly.chain and k = p.Poly.level_count in
  let q_prod = Chain.modulus_product chain ~upto:k in
  let digits = Array.make k 0 in
  Array.init (Chain.degree chain) (fun t ->
      (* Garner mixed-radix digits *)
      for i = 0 to k - 1 do
        let q = Chain.prime chain i in
        let u = ref (Buf.get p.Poly.data.(i) t) in
        for j = 0 to i - 1 do
          u := M.mul ~q (M.sub ~q !u (M.reduce ~q digits.(j))) (Chain.garner_inv chain i j)
        done;
        digits.(i) <- !u
      done;
      (* Horner accumulation from most significant digit *)
      let big = ref (Bigint.of_int digits.(k - 1)) in
      for i = k - 2 downto 0 do
        big := Bigint.add_int (Bigint.mul_int !big (Chain.prime chain i)) digits.(i)
      done;
      (* centered: value > Q/2 iff 2*value > Q *)
      if Bigint.compare (Bigint.mul_int !big 2) q_prod > 0 then
        -.Bigint.to_float (Bigint.sub q_prod !big)
      else Bigint.to_float !big)
