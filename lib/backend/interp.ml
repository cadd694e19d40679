module Prog = Hecate_ir.Prog
module Eval = Hecate_ckks.Eval
module Params = Hecate_ckks.Params

type class_stat = Schedule.class_stat = { count : int; seconds : float }

type report = Schedule.report = {
  outputs : float array list;
  elapsed_seconds : float;
  per_class : (Hecate.Costmodel.op_class * class_stat) list;
  peak_live : int;
}

let required_rotations (p : Prog.t) =
  let amounts = Hashtbl.create 8 in
  Prog.iter
    (fun (o : Prog.op) ->
      match o.Prog.kind with
      | Prog.Rotate { amount } -> Hashtbl.replace amounts amount ()
      | _ -> ())
    p;
  Hashtbl.fold (fun a () acc -> a :: acc) amounts [] |> List.sort compare

let context ?(seed = 0x5EED) ?exec_n ~(params : Hecate.Paramselect.t) ~rotations () =
  let min_n =
    let rec up n = if n / 2 >= params.Hecate.Paramselect.slot_count then n else up (2 * n) in
    up 16
  in
  let n = match exec_n with Some n -> n | None -> min_n in
  if n / 2 < params.Hecate.Paramselect.slot_count then
    invalid_arg "Interp.context: ring degree too small for the program's slot count";
  let ckks_params =
    Params.create ~n ~q0_bits:params.Hecate.Paramselect.q0_bits
      ~sf_bits:params.Hecate.Paramselect.sf_bits ~levels:params.Hecate.Paramselect.chain_levels ()
  in
  Eval.create ~seed ckks_params ~rotations

let execute eval ~waterline_bits p ~inputs =
  Schedule.run eval ~waterline_bits (Schedule.lower p) ~inputs
