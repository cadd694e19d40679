module Types = Hecate_ir.Types

type t = {
  q0_bits : int;
  sf_bits : int;
  chain_levels : int;
  log_q : float;
  secure_n : int;
  slot_count : int;
}

(* Mirror of Hecate_ckks.Params.security_table; lib/core must not depend on
   the crypto backend, so the standard's bounds are restated here. *)
let security_bounds =
  [ (1024, 27.); (2048, 54.); (4096, 109.); (8192, 218.); (16384, 438.); (32768, 881.) ]

let secure_degree ~log_qp =
  let rec search = function
    | [] -> 65536 (* beyond the table; report the next power of two *)
    | (n, bound) :: rest -> if bound >= log_qp then n else search rest
  in
  search security_bounds

(* The chain levels a value of [scale] at [level] needs: scale + margin
   <= q0 + (chain_levels - level) * sf, and at least its own level; or
   [needed], if more. *)
let needed_at ~q0 ~sf ~margin_bits needed ~scale ~level =
  let for_scale = int_of_float (Float.ceil (((scale +. margin_bits -. q0) /. sf) +. 1e-9)) + level in
  Int.max needed (Int.max level for_scale)

let levels_for ~q0 ~sf ~margin_bits needed (ty : Types.t) =
  match ty with
  | Types.Free -> needed
  | Types.Plain { Types.scale; level } | Types.Cipher { Types.scale; level } ->
      needed_at ~q0 ~sf ~margin_bits needed ~scale ~level

let needed ?(q0_bits = 30) ?(margin_bits = 6.) ~sf_bits needed ~scale ~level =
  needed_at ~q0:(float_of_int q0_bits) ~sf:(float_of_int sf_bits) ~margin_bits needed ~scale ~level

let of_chain_levels ?(q0_bits = 30) ~sf_bits ~slot_count chain_levels =
  let log_q = float_of_int q0_bits +. (float_of_int chain_levels *. float_of_int sf_bits) in
  (* special prime is one bit above the largest chain prime *)
  let log_qp = log_q +. float_of_int (min 31 (max q0_bits sf_bits + 1)) in
  {
    q0_bits;
    sf_bits;
    chain_levels;
    log_q;
    secure_n = secure_degree ~log_qp;
    slot_count;
  }

let select ?(q0_bits = 30) ?(margin_bits = 6.) ~sf_bits ~types ~slot_count () =
  let q0 = float_of_int q0_bits and sf = float_of_int sf_bits in
  of_chain_levels ~q0_bits ~sf_bits ~slot_count
    (Array.fold_left (levels_for ~q0 ~sf ~margin_bits) 0 types)

let of_prog ?(q0_bits = 30) ?(margin_bits = 6.) ~sf_bits (p : Hecate_ir.Prog.t) =
  let q0 = float_of_int q0_bits and sf = float_of_int sf_bits in
  let needed = ref 0 in
  Array.iter
    (fun (o : Hecate_ir.Prog.op) -> needed := levels_for ~q0 ~sf ~margin_bits !needed o.ty)
    p.Hecate_ir.Prog.body;
  of_chain_levels ~q0_bits ~sf_bits ~slot_count:p.Hecate_ir.Prog.slot_count !needed

let num_primes_at t ~level =
  if level < 0 || level > t.chain_levels then invalid_arg "Paramselect.num_primes_at: bad level";
  t.chain_levels + 1 - level
