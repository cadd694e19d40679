module Prog = Hecate_ir.Prog
module Types = Hecate_ir.Types
module Fusion = Hecate_ir.Fusion

let primes_for params level = Paramselect.num_primes_at params ~level

let operand_level name arg_tys i =
  match Types.scaled_of arg_tys.(i) with
  | Some s -> s.Types.level
  | None -> invalid_arg ("Estimator: " ^ name ^ " operand is not scaled")

let per_op_seconds ~model ~params ~n (o : Prog.op) (arg_tys : Types.t array) =
  let cost cls ~level = model.Costmodel.cost cls ~num_primes:(primes_for params level) ~n in
  match o.Prog.kind with
  | Prog.Input _ | Prog.Const _ -> 0.
  | Prog.Encode _ ->
      let level = match Types.scaled_of o.Prog.ty with Some s -> s.Types.level | None -> 0 in
      cost Costmodel.Encode ~level
  | Prog.Add | Prog.Sub ->
      let level = operand_level "add" arg_tys 0 in
      let both_cipher = Types.is_cipher arg_tys.(0) && Types.is_cipher arg_tys.(1) in
      cost (if both_cipher then Costmodel.Cipher_add else Costmodel.Plain_add) ~level
  | Prog.Negate ->
      let level = operand_level "negate" arg_tys 0 in
      cost Costmodel.Plain_add ~level
  | Prog.Mul ->
      let level = operand_level "mul" arg_tys 0 in
      let both_cipher = Types.is_cipher arg_tys.(0) && Types.is_cipher arg_tys.(1) in
      if both_cipher then cost Costmodel.Cipher_mul ~level
      else cost Costmodel.Plain_mul ~level +. cost Costmodel.Encode ~level
  | Prog.Rotate _ ->
      let level = operand_level "rotate" arg_tys 0 in
      cost Costmodel.Rotate ~level
  | Prog.Rescale ->
      let level = operand_level "rescale" arg_tys 0 in
      cost Costmodel.Rescale ~level
  | Prog.Modswitch ->
      let level = operand_level "modswitch" arg_tys 0 in
      cost Costmodel.Modswitch ~level
  | Prog.Upscale _ ->
      (* lowering: encode a constant 1 and plain-multiply *)
      let level = operand_level "upscale" arg_tys 0 in
      cost Costmodel.Plain_mul ~level +. cost Costmodel.Encode ~level
  | Prog.Downscale _ ->
      (* lowering: upscale then rescale *)
      let level = operand_level "downscale" arg_tys 0 in
      cost Costmodel.Plain_mul ~level +. cost Costmodel.Encode ~level
      +. cost Costmodel.Rescale ~level

(* The executor runs two structural optimizations that a per-op sum would
   misprice; {!Hecate_ir.Fusion} decides both, for this estimate and for the
   lowering that runs. A rotation fan's head pays [Rotate] and its later
   members the marginal [Rotate_hoisted]; a fused multiply is charged once,
   as [Mul_rescale] at its Rescale. The estimate mirrors the executor so the
   Fig. 8 estimator-vs-actual property keeps holding. *)
let estimate ~model ~params ~n (p : Prog.t) =
  let roles = Fusion.analyze p in
  let total = ref 0. in
  Prog.iter
    (fun (o : Prog.op) ->
      let arg_tys = Array.map (fun a -> (Prog.op p a).Prog.ty) o.Prog.args in
      let cost cls ~level =
        model.Costmodel.cost cls ~num_primes:(primes_for params level) ~n
      in
      let seconds =
        match roles.(o.Prog.id) with
        | Fusion.Fused_mul -> 0. (* charged at the Rescale *)
        | Fusion.Fused_rescale ->
            cost Costmodel.Mul_rescale ~level:(operand_level "rescale" arg_tys 0)
        | Fusion.Fan_member ->
            cost Costmodel.Rotate_hoisted ~level:(operand_level "rotate" arg_tys 0)
        | Fusion.Fan_head _ | Fusion.Single -> per_op_seconds ~model ~params ~n o arg_tys
      in
      total := !total +. seconds)
    p;
  !total
