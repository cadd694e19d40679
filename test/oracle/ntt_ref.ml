(* The division-based negacyclic NTT that [Ntt]'s Shoup butterflies are
   checked against, kept verbatim. It builds its own twiddles from
   [Primes.primitive_root_2n] and [Modarith], the same powers [Ntt.table]
   holds, so [Ntt.table] stays abstract: transforms from the two tables of
   one (prime, degree) pair must agree bit for bit. *)

module Modarith = Hecate_support.Modarith
module Primes = Hecate_support.Primes
module Buf = Hecate_support.Buf

type table = {
  p : int;
  n : int;
  psi_rev : int array; (* psi^bitrev(i), i = 0..n-1 *)
  psi_inv_rev : int array; (* psi^{-bitrev(i)} *)
  n_inv : int;
}

let bitrev i bits =
  let r = ref 0 and x = ref i in
  for _ = 1 to bits do
    r := (!r lsl 1) lor (!x land 1);
    x := !x lsr 1
  done;
  !r

let make_table ~p ~n =
  if n land (n - 1) <> 0 || n <= 0 then invalid_arg "Ntt_ref.make_table: n must be a power of two";
  let bits =
    let rec log2 acc v = if v = 1 then acc else log2 (acc + 1) (v lsr 1) in
    log2 0 n
  in
  let psi = Primes.primitive_root_2n ~p ~n in
  let pow_table root =
    let a = Array.make n 1 in
    for i = 1 to n - 1 do
      a.(i) <- Modarith.mul ~q:p a.(i - 1) root
    done;
    Array.init n (fun i -> a.(bitrev i bits))
  in
  {
    p;
    n;
    psi_rev = pow_table psi;
    psi_inv_rev = pow_table (Modarith.inv ~q:p psi);
    n_inv = Modarith.inv ~q:p n;
  }

(* Tables by (prime, degree), built on first use. *)
let tables : (int * int, table) Hashtbl.t = Hashtbl.create 16
let tables_lock = Mutex.create ()

let table ~p ~n =
  Mutex.protect tables_lock (fun () ->
      match Hashtbl.find_opt tables (p, n) with
      | Some t -> t
      | None ->
          let t = make_table ~p ~n in
          Hashtbl.replace tables (p, n) t;
          t)

let check_length name t a =
  if Buf.length a <> t.n then invalid_arg ("Ntt_ref." ^ name ^ ": wrong length")

let forward t a =
  let p = t.p and n = t.n in
  check_length "forward" t a;
  let tlen = ref n and m = ref 1 in
  while !m < n do
    tlen := !tlen / 2;
    for i = 0 to !m - 1 do
      let j1 = 2 * i * !tlen in
      let j2 = j1 + !tlen - 1 in
      let s = t.psi_rev.(!m + i) in
      for j = j1 to j2 do
        let u = Buf.get a j in
        let v = Modarith.mul ~q:p (Buf.get a (j + !tlen)) s in
        Buf.set a j (Modarith.add ~q:p u v);
        Buf.set a (j + !tlen) (Modarith.sub ~q:p u v)
      done
    done;
    m := !m * 2
  done

let inverse t a =
  let p = t.p and n = t.n in
  check_length "inverse" t a;
  let tlen = ref 1 and m = ref n in
  while !m > 1 do
    let j1 = ref 0 in
    let h = !m / 2 in
    for i = 0 to h - 1 do
      let j2 = !j1 + !tlen - 1 in
      let s = t.psi_inv_rev.(h + i) in
      for j = !j1 to j2 do
        let u = Buf.get a j in
        let v = Buf.get a (j + !tlen) in
        Buf.set a j (Modarith.add ~q:p u v);
        Buf.set a (j + !tlen) (Modarith.mul ~q:p (Modarith.sub ~q:p u v) s)
      done;
      j1 := !j1 + (2 * !tlen)
    done;
    tlen := !tlen * 2;
    m := h
  done;
  for i = 0 to n - 1 do
    Buf.set a i (Modarith.mul ~q:p (Buf.get a i) t.n_inv)
  done

let pointwise_mul t dst a b =
  let p = t.p in
  for i = 0 to t.n - 1 do
    Buf.set dst i (Modarith.mul ~q:p (Buf.get a i) (Buf.get b i))
  done

(* Full negacyclic product of two coefficient vectors (allocates;
   transforms copies). *)
let negacyclic_mul t a b =
  let fa = Buf.copy a and fb = Buf.copy b in
  forward t fa;
  forward t fb;
  let dst = Buf.create t.n in
  pointwise_mul t dst fa fb;
  inverse t dst;
  dst
