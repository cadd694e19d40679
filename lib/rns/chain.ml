module M = Hecate_support.Modarith
module Primes = Hecate_support.Primes
module Ntt = Hecate_support.Ntt
module Bigint = Hecate_support.Bigint

type t = {
  n : int;
  primes : int array; (* q_0 .. q_{L-1} *)
  special : int; (* P *)
  tables : Ntt.table array;
  special_table : Ntt.table;
  (* w.(i).(j) = w_i mod q_j for j < L, and w.(i).(L) = w_i mod P, where
     w_i = (Q_L / q_i) * ((Q_L / q_i)^{-1} mod q_i). *)
  w : int array array;
  rescale_inv : int array array; (* rescale_inv.(l).(i) = q_l^{-1} mod q_i, i < l *)
  p_inv : int array; (* P^{-1} mod q_i *)
  garner : int array array; (* garner.(i).(j) = q_j^{-1} mod q_i, j < i *)
}

let degree c = c.n
let length c = Array.length c.primes
let prime c i = c.primes.(i)
let primes c = Array.copy c.primes
let special_prime c = c.special
let table c i = c.tables.(i)
let special_table c = c.special_table
let gadget_weight c ~digit ~modulus_index = c.w.(digit).(modulus_index)
let rescale_inv c ~dropped i = c.rescale_inv.(dropped).(i)
let special_inv c i = c.p_inv.(i)
let garner_inv c i j = c.garner.(i).(j)

let log2_q c ~upto =
  let acc = ref 0. in
  for i = 0 to upto - 1 do
    acc := !acc +. (log (float_of_int c.primes.(i)) /. log 2.)
  done;
  !acc

let modulus_product c ~upto =
  let acc = ref Bigint.one in
  for i = 0 to upto - 1 do
    acc := Bigint.mul_int !acc c.primes.(i)
  done;
  !acc

let create ~n ~q0_bits ~sf_bits ~levels ~special_bits =
  if levels < 0 then invalid_arg "Chain.create: negative level count";
  let q0 =
    match Primes.ntt_primes ~bits:q0_bits ~n ~count:1 with
    | [ p ] -> p
    | _ -> assert false
  in
  let rescale_primes =
    if levels = 0 then []
    else Primes.ntt_primes_avoiding ~bits:sf_bits ~n ~count:levels ~avoid:[ q0 ]
  in
  let primes = Array.of_list (q0 :: rescale_primes) in
  let special =
    match
      Primes.ntt_primes_avoiding ~bits:special_bits ~n ~count:1 ~avoid:(Array.to_list primes)
    with
    | [ p ] -> p
    | _ -> assert false
  in
  let l = Array.length primes in
  let tables = Array.map (fun p -> Ntt.make_table ~p ~n) primes in
  let special_table = Ntt.make_table ~p:special ~n in
  (* Gadget weights: products of the other primes, folded with the inverse of
     that product modulo q_i, all reduced per modulus. *)
  let w =
    Array.init l (fun i ->
        let q_i = primes.(i) in
        (* (Q_L / q_i) mod m for each modulus m, and mod q_i for the inverse *)
        let qhat_mod m =
          let acc = ref 1 in
          for k = 0 to l - 1 do
            if k <> i then acc := M.mul ~q:m !acc (primes.(k) mod m)
          done;
          !acc
        in
        let inv_at_qi = M.inv ~q:q_i (qhat_mod q_i) in
        Array.init (l + 1) (fun j ->
            let m = if j = l then special else primes.(j) in
            M.mul ~q:m (qhat_mod m) (inv_at_qi mod m)))
  in
  let rescale_inv =
    Array.init l (fun dropped ->
        Array.init dropped (fun i -> M.inv ~q:primes.(i) (primes.(dropped) mod primes.(i))))
  in
  let p_inv = Array.map (fun q -> M.inv ~q (special mod q)) primes in
  let garner =
    Array.init l (fun i -> Array.init i (fun j -> M.inv ~q:primes.(i) (primes.(j) mod primes.(i))))
  in
  {
    n;
    primes;
    special;
    tables;
    special_table;
    w;
    rescale_inv;
    p_inv;
    garner;
  }
