type op_class =
  | Cipher_add
  | Plain_add
  | Cipher_mul
  | Plain_mul
  | Rotate
  | Rotate_hoisted
  | Rescale
  | Mul_rescale
  | Modswitch
  | Encode

type t = { cost : op_class -> num_primes:int -> n:int -> float }

let classes =
  [
    Cipher_add;
    Plain_add;
    Cipher_mul;
    Plain_mul;
    Rotate;
    Rotate_hoisted;
    Rescale;
    Mul_rescale;
    Modswitch;
    Encode;
  ]

let num_classes = List.length classes

let index = function
  | Cipher_add -> 0
  | Plain_add -> 1
  | Cipher_mul -> 2
  | Plain_mul -> 3
  | Rotate -> 4
  | Rotate_hoisted -> 5
  | Rescale -> 6
  | Mul_rescale -> 7
  | Modswitch -> 8
  | Encode -> 9

let class_name = function
  | Cipher_add -> "cipher_add"
  | Plain_add -> "plain_add"
  | Cipher_mul -> "cipher_mul"
  | Plain_mul -> "plain_mul"
  | Rotate -> "rotate"
  | Rotate_hoisted -> "rotate_hoisted"
  | Rescale -> "rescale"
  | Mul_rescale -> "mul_rescale"
  | Modswitch -> "modswitch"
  | Encode -> "encode"

(* Work in abstract units; one unit is roughly one modular multiply. *)
let rec units cls ~num_primes ~n =
  let l = float_of_int num_primes in
  let nf = float_of_int n in
  let ntt = nf *. (log nf /. log 2.) in
  (* Hybrid key switching: per digit, lift to l+1 moduli and NTT each, then
     two multiply-accumulates; finally inverse-NTT and mod-down both
     components. Quadratic in the prime count. *)
  let keyswitch = (l *. (l +. 1.) *. (ntt +. (3. *. nf))) +. (2. *. (l +. 1.) *. ntt) +. (4. *. l *. nf) in
  match cls with
  | Cipher_add -> 2. *. l *. nf
  | Plain_add -> l *. nf
  | Cipher_mul -> (5. *. l *. nf) +. keyswitch
  | Plain_mul -> 2. *. l *. nf
  | Rotate -> (4. *. l *. ntt) +. (2. *. l *. nf) +. keyswitch
  | Rotate_hoisted ->
      (* marginal rotation in a hoisted fan (Halevi–Shoup): the digit
         decomposition's l*(l+1) lifts and forward NTTs are shared, leaving
         per rotation: digit permutations + multiply-accumulates
         (3 linear passes per digit per modulus), the accumulator inverse
         NTTs + mod-down, the switched pair's forward NTTs, and the
         permutation/add of c0. *)
      (3. *. l *. (l +. 1.) *. nf) +. (2. *. (l +. 1.) *. ntt) +. (2. *. l *. ntt)
      +. (6. *. l *. nf)
  | Rescale -> (2. *. l *. ntt) +. (2. *. (l -. 1.) *. (ntt +. nf))
  | Mul_rescale ->
      (* fused multiply + rescale: the switched pair stays in Coeff, saving
         its 2l forward NTTs relative to Cipher_mul + Rescale *)
      units Cipher_mul ~num_primes ~n +. units Rescale ~num_primes ~n -. (2. *. l *. ntt)
  | Modswitch -> 0.25 *. l *. nf (* copying the surviving components *)
  | Encode -> ntt +. (l *. (ntt +. nf))

let analytic ?(units_per_second = 2.5e8) () =
  { cost = (fun cls ~num_primes ~n -> units cls ~num_primes ~n /. units_per_second) }

let of_table table ~fallback =
  let cost cls ~num_primes ~n =
    match Hashtbl.find_opt table (cls, num_primes, n) with
    | Some t -> t
    | None ->
        (* Scale the analytic shape to agree with the closest measured prime
           count at the same degree, if any. The choice must not depend on
           [Hashtbl.iter] order: equidistant measurements tie-break to the
           smaller prime count. *)
        let best = ref None in
        let better l l0 =
          let d = abs (l - num_primes) and d0 = abs (l0 - num_primes) in
          d < d0 || (d = d0 && l < l0)
        in
        Hashtbl.iter
          (fun (c, l, n') t ->
            if c = cls && n' = n then
              match !best with
              | Some (l0, _) when not (better l l0) -> ()
              | _ -> best := Some (l, t))
          table;
        let base = fallback.cost cls ~num_primes ~n in
        (match !best with
        | None -> base
        | Some (l_near, t_near) ->
            let shape_near = fallback.cost cls ~num_primes:l_near ~n in
            if shape_near <= 0. then base else base *. (t_near /. shape_near))
  in
  { cost }
