module M = Hecate_support.Modarith
module Ntt = Hecate_support.Ntt
module Bigint = Hecate_support.Bigint
module Pool = Hecate_support.Pool
module Buf = Hecate_support.Buf

type domain = Coeff | Eval

(* Residues live in one flat unboxed [Buf.t] per polynomial ([component i]
   occupies [i*n .. (i+1)*n-1]); [data] holds O(1) per-component views into
   that allocation. The payload is outside the OCaml heap, so a polynomial
   costs the GC two small blocks regardless of ring degree — at N = 2^15 a
   boxed [int array array] representation made every major collection walk
   megabytes of residues per live ciphertext. *)
type t = {
  chain : Chain.t;
  level_count : int;
  with_special : bool;
  domain : domain;
  data : Buf.t array;
}

let component_count p = p.level_count + if p.with_special then 1 else 0

let modulus_at p i =
  if p.with_special && i = p.level_count then Chain.special_prime p.chain else Chain.prime p.chain i

let table_at p i =
  if p.with_special && i = p.level_count then Chain.special_table p.chain else Chain.table p.chain i

(* Independent per-RNS-component loops fan out over the shared kernel pool
   when it is enabled and the ring is large enough that a component's work
   dwarfs the dispatch cost; below the threshold they stay serial. Either
   way the output is bit-identical. *)
let parallel_min_degree = 4096

let kernel_par comps degree f =
  if comps > 1 && degree >= parallel_min_degree && Pool.Kernel.jobs () > 1 then Pool.Kernel.parallel_for comps f
  else
    for i = 0 to comps - 1 do
      f i
    done

let views comps n flat = Array.init comps (fun i -> Buf.sub flat (i * n) n)

let zero chain ~level_count ~with_special domain =
  if level_count < 1 || level_count > Chain.length chain then
    invalid_arg "Poly.zero: bad level count";
  let comps = level_count + if with_special then 1 else 0 in
  let n = Chain.degree chain in
  { chain; level_count; with_special; domain; data = views comps n (Buf.create (comps * n)) }

(* Like [copy] but with uninitialized (zero) payload: a destination shell. *)
let alloc_like p =
  let comps = component_count p in
  let n = Chain.degree p.chain in
  { p with data = views comps n (Buf.create (comps * n)) }

(* [p]'s first [level_count] chain components, and its special one when
   it has it, labelled [domain]: a destination over [p]'s storage. Only the
   small array of component views is new. *)
let view p ~level_count ~domain =
  if level_count < 1 || level_count > p.level_count then invalid_arg "Poly.view: bad level count";
  if level_count = p.level_count && domain = p.domain then p
  else
    let data =
      if not p.with_special then Array.sub p.data 0 level_count
      else
        Array.init (level_count + 1) (fun i ->
            if i = level_count then p.data.(p.level_count) else p.data.(i))
    in
    { p with level_count; domain; data }

let check_compatible name a b =
  if
    a.chain != b.chain || a.level_count <> b.level_count || a.with_special <> b.with_special
    || a.domain <> b.domain
  then invalid_arg ("Poly." ^ name ^ ": incompatible operands")

let check_shape name ~dst p =
  if
    dst.chain != p.chain || dst.level_count <> p.level_count
    || dst.with_special <> p.with_special
  then invalid_arg ("Poly." ^ name ^ ": incompatible destination")

let copy_into ~dst p =
  check_compatible "copy_into" dst p;
  Array.iteri (fun i src -> Buf.blit ~src ~dst:dst.data.(i)) p.data

let copy p =
  let out = alloc_like p in
  copy_into ~dst:out p;
  out

let of_centered_coeffs_into ~dst coeffs =
  let n = Chain.degree dst.chain in
  if Array.length coeffs <> n then invalid_arg "Poly.of_centered_coeffs: wrong length";
  if dst.domain <> Coeff then invalid_arg "Poly.of_centered_coeffs_into: destination must be Coeff";
  for i = 0 to component_count dst - 1 do
    let q = modulus_at dst i in
    let d = dst.data.(i) in
    for t = 0 to n - 1 do
      Buf.set d t (M.reduce ~q coeffs.(t))
    done
  done

let of_centered_coeffs chain ~level_count ~with_special coeffs =
  let p = zero chain ~level_count ~with_special Coeff in
  of_centered_coeffs_into ~dst:p coeffs;
  p

(* ------------------------------------------------------------------ *)
(* Element-wise operations (pure and destination-buffer forms)         *)
(* ------------------------------------------------------------------ *)

let add_loop q da db dst =
  for t = 0 to Buf.length da - 1 do
    let s = Buf.unsafe_get da t + Buf.unsafe_get db t in
    Buf.unsafe_set dst t (if s >= q then s - q else s)
  done

let sub_loop q da db dst =
  for t = 0 to Buf.length da - 1 do
    let d = Buf.unsafe_get da t - Buf.unsafe_get db t in
    Buf.unsafe_set dst t (if d < 0 then d + q else d)
  done

let binop_into name loop ~dst a b =
  check_compatible name a b;
  check_compatible name dst a;
  kernel_par (component_count a) (Chain.degree a.chain) (fun i ->
      loop (modulus_at a i) a.data.(i) b.data.(i) dst.data.(i))

let add_into ~dst a b = binop_into "add_into" add_loop ~dst a b
let sub_into ~dst a b = binop_into "sub_into" sub_loop ~dst a b

(* The allocating forms: a fresh destination shaped like [a], then the
   destination form. *)
let fresh_like f a =
  let out = alloc_like a in
  f ~dst:out;
  out

let add a b = fresh_like (fun ~dst -> binop_into "add" add_loop ~dst a b) a
let sub a b = fresh_like (fun ~dst -> binop_into "sub" sub_loop ~dst a b) a

let neg_into ~dst a =
  check_compatible "neg_into" dst a;
  kernel_par (component_count a) (Chain.degree a.chain) (fun i ->
      let q = modulus_at a i in
      let src = a.data.(i) and dst = dst.data.(i) in
      for t = 0 to Buf.length src - 1 do
        let x = Buf.unsafe_get src t in
        Buf.unsafe_set dst t (if x = 0 then 0 else q - x)
      done)

let neg a = fresh_like (fun ~dst -> neg_into ~dst a) a

(* Element loops use unchecked accesses: every residue view of a polynomial
   has length [Chain.degree] by construction, and [check_compatible] has
   already matched the operands' chains. They reduce with a hardware [mod]
   written here rather than a call into [Modarith]: dune's default profile
   compiles with [-opaque], so a cross-module call per element is never
   inlined and costs about twice the division (docs/PERFORMANCE.md,
   "Compiling without flambda"). Every product of two residues is below
   [q^2 < 2^62], so it fits a native int. *)
let mul_loop q da db dst =
  for t = 0 to Buf.length da - 1 do
    Buf.unsafe_set dst t (Buf.unsafe_get da t * Buf.unsafe_get db t mod q)
  done

let check_eval name a b =
  if a.domain <> Eval || b.domain <> Eval then
    invalid_arg ("Poly." ^ name ^ ": operands must be in Eval domain")

let mul_named name ~dst a b =
  check_eval name a b;
  binop_into name mul_loop ~dst a b

let mul_into ~dst a b = mul_named "mul_into" ~dst a b
let mul a b = fresh_like (fun ~dst -> mul_named "mul" ~dst a b) a

(* [b] may carry a deeper chain basis than [acc]/[a] (full-level key
   material): component [i < level_count] of [b] is used directly and [b]'s
   special component aligns with [a]'s. This is what lets key switching use
   the stored keys without materializing [restrict_levels] copies. *)
let multiplier_component a b i =
  if a.with_special && i = a.level_count then b.data.(b.level_count) else b.data.(i)

let check_multiplier name a b =
  if b.domain <> Eval || b.chain != a.chain || b.with_special <> a.with_special
     || b.level_count < a.level_count
  then invalid_arg ("Poly." ^ name ^ ": incompatible multiplier")

let mul_add_into ~acc a b =
  check_compatible "mul_add_into" acc a;
  if a.domain <> Eval || acc.domain <> Eval then
    invalid_arg "Poly.mul_add_into: operands must be in Eval domain";
  check_multiplier "mul_add_into" a b;
  kernel_par (component_count a) (Chain.degree a.chain) (fun i ->
      let q = modulus_at a i in
      let bi = multiplier_component a b i in
      let da = a.data.(i) and dacc = acc.data.(i) in
      for t = 0 to Buf.length da - 1 do
        (* acc < q and the product < q^2, so the sum stays below 2^62 *)
        Buf.unsafe_set dacc t
          ((Buf.unsafe_get dacc t + (Buf.unsafe_get da t * Buf.unsafe_get bi t)) mod q)
      done)

(* Key-switching inner product, reduced lazily. A residue product is at
   most [(q-1)^2], so a canonical accumulator takes [budget q] of them
   before the sum can pass [max_int]: every 64 terms for 28-bit moduli,
   every term for a 31-bit one. The loop reduces only on the terms that
   exhaust the budget and on the last one. Term 0 writes the products
   instead of adding them, so the accumulators need no clearing. The
   digit is read through the Galois permutation, so rotations reuse one
   digit without copying it. *)
let lazy_budget q = (max_int - q) / ((q - 1) * (q - 1))

let key_switch_add ~acc0 ~acc1 dig ~k0 ~k1 ~galois ~term ~terms =
  check_eval "key_switch_add" dig acc0;
  check_compatible "key_switch_add" acc0 dig;
  check_compatible "key_switch_add" acc1 dig;
  check_multiplier "key_switch_add" dig k0;
  check_multiplier "key_switch_add" dig k1;
  if term < 0 || term >= terms then invalid_arg "Poly.key_switch_add: bad term index";
  let n = Chain.degree dig.chain in
  let perm = Ntt.galois_perm (Chain.table dig.chain 0) ~galois in
  kernel_par (component_count dig) n (fun i ->
      let q = modulus_at dig i in
      let d = dig.data.(i) and a0 = acc0.data.(i) and a1 = acc1.data.(i) in
      let b0 = multiplier_component dig k0 i and b1 = multiplier_component dig k1 i in
      let reduce = (term + 1) mod lazy_budget q = 0 || term = terms - 1 in
      (* term 0 starts the sums: it writes, where the others add *)
      if term = 0 && reduce then
        for t = 0 to n - 1 do
          let x = Buf.unsafe_get d (Array.unsafe_get perm t) in
          Buf.unsafe_set a0 t (x * Buf.unsafe_get b0 t mod q);
          Buf.unsafe_set a1 t (x * Buf.unsafe_get b1 t mod q)
        done
      else if term = 0 then
        for t = 0 to n - 1 do
          let x = Buf.unsafe_get d (Array.unsafe_get perm t) in
          Buf.unsafe_set a0 t (x * Buf.unsafe_get b0 t);
          Buf.unsafe_set a1 t (x * Buf.unsafe_get b1 t)
        done
      else if reduce then
        for t = 0 to n - 1 do
          let x = Buf.unsafe_get d (Array.unsafe_get perm t) in
          Buf.unsafe_set a0 t ((Buf.unsafe_get a0 t + (x * Buf.unsafe_get b0 t)) mod q);
          Buf.unsafe_set a1 t ((Buf.unsafe_get a1 t + (x * Buf.unsafe_get b1 t)) mod q)
        done
      else
        for t = 0 to n - 1 do
          let x = Buf.unsafe_get d (Array.unsafe_get perm t) in
          Buf.unsafe_set a0 t (Buf.unsafe_get a0 t + (x * Buf.unsafe_get b0 t));
          Buf.unsafe_set a1 t (Buf.unsafe_get a1 t + (x * Buf.unsafe_get b1 t))
        done)

let scalar_mul_loop p i k out =
  let q = modulus_at p i in
  let dst = out.data.(i) and src = p.data.(i) in
  for t = 0 to Buf.length src - 1 do
    Buf.unsafe_set dst t (Buf.unsafe_get src t * k mod q)
  done

let mul_component_scalars_into ~dst a ks =
  check_compatible "mul_component_scalars_into" dst a;
  if Array.length ks <> component_count a then
    invalid_arg "Poly.mul_component_scalars: wrong scalar count";
  Array.iteri
    (fun i k ->
      if k < 0 || k >= modulus_at a i then
        invalid_arg "Poly.mul_component_scalars: scalar not reduced")
    ks;
  kernel_par (component_count a) (Chain.degree a.chain) (fun i -> scalar_mul_loop a i ks.(i) dst)

let mul_component_scalars a ks = fresh_like (fun ~dst -> mul_component_scalars_into ~dst a ks) a

let mul_scalar a c =
  if c < 0 then invalid_arg "Poly.mul_scalar: negative scalar";
  mul_component_scalars a (Array.init (component_count a) (fun i -> c mod modulus_at a i))

(* ------------------------------------------------------------------ *)
(* Domain conversions                                                  *)
(* ------------------------------------------------------------------ *)

let to_eval_inplace p =
  match p.domain with
  | Eval -> p
  | Coeff ->
      kernel_par (component_count p) (Chain.degree p.chain) (fun i ->
          Ntt.forward (table_at p i) p.data.(i));
      { p with domain = Eval }

let to_coeff_inplace p =
  match p.domain with
  | Coeff -> p
  | Eval ->
      kernel_par (component_count p) (Chain.degree p.chain) (fun i ->
          Ntt.inverse (table_at p i) p.data.(i));
      { p with domain = Coeff }

let to_coeff_into ~dst p =
  check_shape "to_coeff_into" ~dst p;
  if dst.domain <> Coeff then invalid_arg "Poly.to_coeff_into: destination must be Coeff";
  Array.iteri (fun i src -> Buf.blit ~src ~dst:dst.data.(i)) p.data;
  if p.domain = Eval then ignore (to_coeff_inplace { dst with domain = Eval })

let to_eval p = match p.domain with Eval -> p | Coeff -> to_eval_inplace (copy p)

let to_coeff p =
  match p.domain with
  | Coeff -> p
  | Eval -> fresh_like (fun ~dst -> to_coeff_into ~dst p) { p with domain = Coeff }

(* ------------------------------------------------------------------ *)
(* Structure-changing operations                                       *)
(* ------------------------------------------------------------------ *)

let automorphism p ~galois =
  if p.domain <> Coeff then invalid_arg "Poly.automorphism: operand must be in Coeff domain";
  if galois land 1 = 0 then invalid_arg "Poly.automorphism: galois element must be odd";
  let n = Chain.degree p.chain in
  let mask = (2 * n) - 1 in
  let out = zero p.chain ~level_count:p.level_count ~with_special:p.with_special Coeff in
  kernel_par (component_count p) n (fun i ->
      let q = modulus_at p i in
      let src = p.data.(i) and dst = out.data.(i) in
      for j = 0 to n - 1 do
        (* n is a power of two, so X^j -> X^(j*galois mod 2n) is a mask *)
        let k = (j * galois) land mask in
        if k < n then Buf.set dst k (M.add ~q (Buf.get dst k) (Buf.get src j))
        else Buf.set dst (k - n) (M.sub ~q (Buf.get dst (k - n)) (Buf.get src j))
      done);
  out

(* Eval-domain automorphism: on forward-transformed vectors [X -> X^g] is a
   pure slot permutation (values move between evaluation points, no sign
   fixups — those live in the Coeff-domain picture). Bit-identical to
   [to_eval (automorphism (to_coeff p) ~galois)] because the NTT is an exact
   ring isomorphism; hoisted rotation key switching depends on that to reuse
   one digit decomposition across every rotation of a ciphertext. *)
let automorphism_eval_into ~dst p ~galois =
  if p.domain <> Eval then invalid_arg "Poly.automorphism_eval: operand must be in Eval domain";
  if galois land 1 = 0 then invalid_arg "Poly.automorphism_eval: galois element must be odd";
  check_compatible "automorphism_eval_into" dst p;
  let n = Chain.degree p.chain in
  (* resolve (and cache) the permutation before fanning out over components *)
  let perm = Ntt.galois_perm (Chain.table p.chain 0) ~galois in
  kernel_par (component_count p) n (fun i ->
      let src = p.data.(i) and d = dst.data.(i) in
      for j = 0 to n - 1 do
        Buf.unsafe_set d j (Buf.unsafe_get src (Array.unsafe_get perm j))
      done)

let automorphism_eval p ~galois = fresh_like (fun ~dst -> automorphism_eval_into ~dst p ~galois) p

(* [dst <- src] read as centered residues modulo [q_from] and reduced
   modulo [q]. The centered value lies in [(-q_from/2, q_from/2]]; when
   [q_from < 2q] that is inside [(-q, q)], and one branchless conditional
   add canonicalizes it, with no division. *)
let lift_loop ~q_from ~q src dst =
  let half = q_from / 2 in
  if q_from < 2 * q then
    for t = 0 to Buf.length src - 1 do
      let x = Buf.unsafe_get src t in
      let c = x - (q_from land ((half - x) asr 62)) in
      Buf.unsafe_set dst t (c + (c asr 62 land q))
    done
  else
    for t = 0 to Buf.length src - 1 do
      let x = Buf.unsafe_get src t in
      let r = (x - (q_from land ((half - x) asr 62))) mod q in
      Buf.unsafe_set dst t (r + (r asr 62 land q))
    done

(* [x * w mod q] for a canonical [x] and a fixed multiplier [w] with
   [w' = M.shoup ~q w]: Shoup's estimated quotient leaves the product in
   [0, 2q), and one branchless subtraction canonicalizes it, with no
   division (docs/PERFORMANCE.md, "Shoup multiplication"). It repeats
   [M.mulmod_shoup] here because a call across modules is never inlined
   under dune's [-opaque]. *)
let[@inline] mul_shoup ~q x w w' =
  let r = (x * w) - (((x * w') lsr 31) * q) - q in
  r + (r asr 62 land q)

(* Scratch residue vectors for the divisions, one ring degree each, made
   on first need and kept. *)
type temp = { degree : int; mutable vectors : Buf.t array }

let temp chain = { degree = Chain.degree chain; vectors = [||] }

(* [temp]'s first [need] vectors, for operands over [chain] *)
let temp_vectors name temp chain ~need =
  let n = temp.degree in
  if n <> Chain.degree chain then invalid_arg ("Poly." ^ name ^ ": temporaries of another degree");
  let have = Array.length temp.vectors in
  if have < need then
    temp.vectors <-
      Array.append temp.vectors (views (need - have) n (Buf.create ((need - have) * n)));
  temp.vectors

(* A division's destination: [count] chain components over [p]'s chain,
   no special one, in [domain]. *)
let check_quotient name ~dst p ~count ~domain =
  if dst.chain != p.chain || dst.level_count <> count || dst.with_special || dst.domain <> domain
  then invalid_arg ("Poly." ^ name ^ ": incompatible destination")

(* Divide by the modulus of component [count] with centered rounding and
   drop it (and everything above it):

     out_i = (p_i - [p_count]_{q_i}) * inv i  mod q_i,   i < count

   where [x]_{q_i} is the centered lift of the dropped residue. The lift is
   the only step that needs coefficients. In Eval domain only the dropped
   component is inverse-transformed, in [temp.(0)]; its lift is
   forward-transformed modulo each q_i and subtracted slot by slot. The NTT
   is linear and every step is exact modular arithmetic on canonical
   residues, so the result equals [to_eval (divide (to_coeff p))] bit for
   bit, at [count] forward and one inverse transform instead of
   [2 count + 1]. The fixed multiplier [inv i] is applied by Shoup
   multiplication. [dst] is written before [p] is read, so they must not
   share storage. *)
let divide_last_into name ~temp ~dst p ~count ~inv =
  check_quotient name ~dst p ~count ~domain:p.domain;
  let temp = temp_vectors name temp p.chain ~need:1 in
  let n = Chain.degree p.chain in
  let tbl = table_at p count in
  let q_last = Ntt.prime tbl in
  let last =
    match p.domain with
    | Coeff -> p.data.(count)
    | Eval ->
        let b = temp.(0) in
        Buf.blit ~src:p.data.(count) ~dst:b;
        Ntt.inverse tbl b;
        b
  in
  kernel_par count n (fun i ->
      let q = Chain.prime p.chain i and inv = inv i in
      let inv' = M.shoup ~q inv in
      let src = p.data.(i) and dst = dst.data.(i) in
      lift_loop ~q_from:q_last ~q last dst;
      if p.domain = Eval then Ntt.forward (Chain.table p.chain i) dst;
      for t = 0 to n - 1 do
        let d = Buf.unsafe_get src t - Buf.unsafe_get dst t in
        Buf.unsafe_set dst t (mul_shoup ~q (d + (d asr 62 land q)) inv inv')
      done)

(* The allocating form of a division: a destination of [count] chain
   components in [p]'s domain, and temporaries of its own. *)
let divided p ~count f =
  let dst = zero p.chain ~level_count:count ~with_special:false p.domain in
  f ~temp:(temp p.chain) ~dst;
  dst

let rescale_last_into ~temp ~dst p =
  if p.with_special then invalid_arg "Poly.rescale_last: special component present";
  if p.level_count < 2 then invalid_arg "Poly.rescale_last: nothing to drop";
  let dropped = p.level_count - 1 in
  divide_last_into "rescale_last" ~temp ~dst p ~count:dropped
    ~inv:(Chain.rescale_inv p.chain ~dropped)

let rescale_last p =
  if p.level_count < 2 then invalid_arg "Poly.rescale_last: nothing to drop";
  divided p ~count:(p.level_count - 1) (fun ~temp ~dst -> rescale_last_into ~temp ~dst p)

let drop_last_into ~dst p =
  if p.with_special then invalid_arg "Poly.drop_last: special component present";
  if p.level_count < 2 then invalid_arg "Poly.drop_last: nothing to drop";
  check_quotient "drop_last_into" ~dst p ~count:(p.level_count - 1) ~domain:p.domain;
  Array.iteri (fun i dst -> Buf.blit ~src:p.data.(i) ~dst) dst.data

let drop_last p =
  if p.level_count < 2 then invalid_arg "Poly.drop_last: nothing to drop";
  let dst = zero p.chain ~level_count:(p.level_count - 1) ~with_special:false p.domain in
  drop_last_into ~dst p;
  dst

let mod_down_special_into ~temp ~dst p =
  if not p.with_special then invalid_arg "Poly.mod_down_special: no special component";
  divide_last_into "mod_down_special" ~temp ~dst p ~count:p.level_count
    ~inv:(Chain.special_inv p.chain)

let mod_down_special p =
  if not p.with_special then invalid_arg "Poly.mod_down_special: no special component";
  divided p ~count:p.level_count (fun ~temp ~dst -> mod_down_special_into ~temp ~dst p)

(* [rescale_last (add d (mod_down_special acc))] in Eval domain, with the
   two divisions sharing their forward transforms. Write [x] for the
   special component of [acc] in Coeff, [v_i = d_i + acc_i * P^-1] and
   [c] for the last chain component of the sum in Coeff. By linearity

     c     = INTT(v_last) - [x]_{q_last} * P^-1
     out_i = (v_i - NTT([x]_{q_i} * P^-1 + [c]_{q_i})) * q_last^-1

   so each kept modulus pays one forward transform where the composition
   pays two, and the last one only an inverse transform. The fixed
   multipliers [P^-1] and [q_last^-1] are applied by Shoup multiplication.
   All of it is exact arithmetic on canonical residues: bit-identical to
   the composition. [x], [c] and the lift of [x] take [temp.(0..2)], and
   kept modulus [i] the vector [temp.(3 + i)]. *)
let mod_down_rescale_into ~temp ~dst acc ~plus:d =
  if acc.domain <> Eval || d.domain <> Eval then
    invalid_arg "Poly.mod_down_rescale: operands must be in Eval domain";
  if (not acc.with_special) || d.with_special || d.chain != acc.chain
     || d.level_count <> acc.level_count
  then invalid_arg "Poly.mod_down_rescale: incompatible operands";
  if d.level_count < 2 then invalid_arg "Poly.mod_down_rescale: nothing to drop";
  let chain = acc.chain and n = Chain.degree acc.chain in
  let last = d.level_count - 1 in
  check_quotient "mod_down_rescale_into" ~dst acc ~count:last ~domain:Eval;
  let temp = temp_vectors "mod_down_rescale" temp chain ~need:(last + 3) in
  let sp = Chain.special_prime chain and q_last = Chain.prime chain last in
  let x = temp.(0) and c = temp.(1) and xl = temp.(2) in
  Buf.blit ~src:acc.data.(last + 1) ~dst:x;
  Ntt.inverse (Chain.special_table chain) x;
  (* [dst <- (da + dacc * P^-1) mod q]: both terms canonical *)
  let sum_loop ~q ~pinv ~pinv' da dacc dst =
    for t = 0 to n - 1 do
      let r = Buf.unsafe_get da t + mul_shoup ~q (Buf.unsafe_get dacc t) pinv pinv' - q in
      Buf.unsafe_set dst t (r + (r asr 62 land q))
    done
  in
  let pinv = Chain.special_inv chain last in
  let pinv' = M.shoup ~q:q_last pinv in
  sum_loop ~q:q_last ~pinv ~pinv' d.data.(last) acc.data.(last) c;
  Ntt.inverse (Chain.table chain last) c;
  lift_loop ~q_from:sp ~q:q_last x xl;
  for t = 0 to n - 1 do
    let r = Buf.unsafe_get c t - mul_shoup ~q:q_last (Buf.unsafe_get xl t) pinv pinv' in
    Buf.unsafe_set c t (r + (r asr 62 land q_last))
  done;
  kernel_par last n (fun i ->
      let q = Chain.prime chain i in
      let pinv = Chain.special_inv chain i and rinv = Chain.rescale_inv chain ~dropped:last i in
      let pinv' = M.shoup ~q pinv and rinv' = M.shoup ~q rinv in
      let dst = dst.data.(i) and cl = temp.(3 + i) in
      lift_loop ~q_from:sp ~q x dst;
      lift_loop ~q_from:q_last ~q c cl;
      for t = 0 to n - 1 do
        let r = mul_shoup ~q (Buf.unsafe_get dst t) pinv pinv' + Buf.unsafe_get cl t - q in
        Buf.unsafe_set dst t (r + (r asr 62 land q))
      done;
      Ntt.forward (Chain.table chain i) dst;
      sum_loop ~q ~pinv ~pinv' d.data.(i) acc.data.(i) cl;
      for t = 0 to n - 1 do
        let r = Buf.unsafe_get cl t - Buf.unsafe_get dst t in
        Buf.unsafe_set dst t (mul_shoup ~q (r + (r asr 62 land q)) rinv rinv')
      done)

let mod_down_rescale acc ~plus:d =
  if d.level_count < 2 then invalid_arg "Poly.mod_down_rescale: nothing to drop";
  let last = d.level_count - 1 in
  let dst = zero acc.chain ~level_count:last ~with_special:false Eval in
  mod_down_rescale_into ~temp:(temp acc.chain) ~dst acc ~plus:d;
  dst

(* The lift of digit [i] to [q_i] is the centered value of a residue
   modulo [q_i] reduced modulo [q_i] again: the residue itself. So
   component [digit] of the transformed lift is [eval]'s own component,
   copied, and only the other components pay a lift and a transform. *)
let lift_digit_into ~dst p ~eval ~digit =
  if p.domain <> Coeff then invalid_arg "Poly.lift_digit_into: operand must be in Coeff domain";
  if digit < 0 || digit >= p.level_count then invalid_arg "Poly.lift_digit_into: bad digit index";
  if dst.chain != p.chain || dst.domain <> Eval || dst.level_count <> p.level_count then
    invalid_arg "Poly.lift_digit_into: incompatible destination";
  if eval.chain != p.chain || eval.domain <> Eval || eval.level_count <> p.level_count
     || eval.with_special <> p.with_special
  then invalid_arg "Poly.lift_digit_into: eval is not the operand's basis in Eval domain";
  let q_from = Chain.prime p.chain digit in
  let src = p.data.(digit) in
  kernel_par (component_count dst) (Chain.degree p.chain) (fun i ->
      let d = dst.data.(i) in
      if i = digit then Buf.blit ~src:eval.data.(digit) ~dst:d
      else begin
        lift_loop ~q_from ~q:(modulus_at dst i) src d;
        Ntt.forward (table_at dst i) d
      end)

let restrict_levels p ~level_count =
  if level_count < 1 || level_count > p.level_count then
    invalid_arg "Poly.restrict_levels: bad level count";
  if level_count = p.level_count then p
  else begin
    let out = { p with level_count; data = [||] } in
    let out = alloc_like out in
    for i = 0 to level_count - 1 do
      Buf.blit ~src:p.data.(i) ~dst:out.data.(i)
    done;
    if p.with_special then Buf.blit ~src:p.data.(p.level_count) ~dst:out.data.(level_count);
    out
  end

let crt_reconstruct_centered p =
  if p.domain <> Coeff then invalid_arg "Poly.crt_reconstruct_centered: Coeff domain required";
  if p.with_special then invalid_arg "Poly.crt_reconstruct_centered: special component present";
  let k = p.level_count in
  let n = Chain.degree p.chain in
  let q_prod = Chain.modulus_product p.chain ~upto:k in
  let out = Array.make n 0. in
  let digits = Array.make k 0 in
  for t = 0 to n - 1 do
    (* Garner mixed-radix digits *)
    for i = 0 to k - 1 do
      let q = Chain.prime p.chain i in
      let u = ref (Buf.get p.data.(i) t) in
      for j = 0 to i - 1 do
        let d = !u - (digits.(j) mod q) in
        u := (d + (d asr 62 land q)) * Chain.garner_inv p.chain i j mod q
      done;
      digits.(i) <- !u
    done;
    (* Horner accumulation from most significant digit *)
    let big = ref (Bigint.of_int digits.(k - 1)) in
    for i = k - 2 downto 0 do
      big := Bigint.add_int (Bigint.mul_int !big (Chain.prime p.chain i)) digits.(i)
    done;
    (* centered: value > Q/2 iff 2*value > Q *)
    let doubled = Bigint.mul_int !big 2 in
    if Bigint.compare doubled q_prod > 0 then out.(t) <- -.Bigint.to_float (Bigint.sub q_prod !big)
    else out.(t) <- Bigint.to_float !big
  done;
  out

let equal a b =
  a.chain == b.chain && a.level_count = b.level_count && a.with_special = b.with_special
  && a.domain = b.domain
  && Array.for_all2 Buf.equal a.data b.data
