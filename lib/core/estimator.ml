module Prog = Hecate_ir.Prog
module Types = Hecate_ir.Types
module Fusion = Hecate_ir.Fusion

let level_of name (ty : Types.t) =
  match ty with
  | Types.Plain s | Types.Cipher s -> s.Types.level
  | Types.Free -> invalid_arg ("Estimator: " ^ name ^ " operand is not scaled")

(* The model's cost of each (class, prime count) one estimate asks for,
   computed on first use: [costs.(index cls * stride + num_primes - 1)],
   NaN until filled. *)
type costs = {
  model : Costmodel.t;
  params : Paramselect.t;
  n : int;
  stride : int;
  costs : float array;
}

let costs ~model ~params ~n =
  let stride = params.Paramselect.chain_levels + 1 in
  { model; params; n; stride; costs = Array.make (Costmodel.num_classes * stride) Float.nan }

let fill t cls num_primes k =
  let c = t.model.Costmodel.cost cls ~num_primes ~n:t.n in
  t.costs.(k) <- c;
  c

let[@inline] cost t cls level =
  let num_primes = Paramselect.num_primes_at t.params ~level in
  let k = (Costmodel.index cls * t.stride) + num_primes - 1 in
  let c = Array.unsafe_get t.costs k in
  if Float.is_nan c then fill t cls num_primes k else c

(* An op running on its own, with operand types [ty0] and [ty1] ([Free]
   past its arity). *)
let[@inline] single_seconds t (o : Prog.op) ty0 ty1 =
  match o.Prog.kind with
  | Prog.Input _ | Prog.Const _ -> 0.
  | Prog.Encode _ ->
      let level =
        match o.Prog.ty with Types.Plain s | Types.Cipher s -> s.Types.level | Types.Free -> 0
      in
      cost t Costmodel.Encode level
  | Prog.Add | Prog.Sub ->
      let level = level_of "add" ty0 in
      let both_cipher = Types.is_cipher ty0 && Types.is_cipher ty1 in
      cost t (if both_cipher then Costmodel.Cipher_add else Costmodel.Plain_add) level
  | Prog.Negate -> cost t Costmodel.Plain_add (level_of "negate" ty0)
  | Prog.Mul ->
      let level = level_of "mul" ty0 in
      if Types.is_cipher ty0 && Types.is_cipher ty1 then cost t Costmodel.Cipher_mul level
      else cost t Costmodel.Plain_mul level +. cost t Costmodel.Encode level
  | Prog.Rotate _ -> cost t Costmodel.Rotate (level_of "rotate" ty0)
  | Prog.Rescale -> cost t Costmodel.Rescale (level_of "rescale" ty0)
  | Prog.Modswitch -> cost t Costmodel.Modswitch (level_of "modswitch" ty0)
  | Prog.Upscale _ ->
      (* lowering: encode a constant 1 and plain-multiply *)
      let level = level_of "upscale" ty0 in
      cost t Costmodel.Plain_mul level +. cost t Costmodel.Encode level
  | Prog.Downscale _ ->
      (* lowering: upscale then rescale *)
      let level = level_of "downscale" ty0 in
      cost t Costmodel.Plain_mul level +. cost t Costmodel.Encode level
      +. cost t Costmodel.Rescale level

let operand_ty (arg_tys : Types.t array) i =
  if i < Array.length arg_tys then arg_tys.(i) else Types.Free

let per_op_seconds ~model ~params ~n (o : Prog.op) (arg_tys : Types.t array) =
  single_seconds (costs ~model ~params ~n) o (operand_ty arg_tys 0) (operand_ty arg_tys 1)

(* The executor runs two structural optimizations that a per-op sum would
   misprice; {!Hecate_ir.Fusion} decides both, for this estimate and for the
   lowering that runs. A rotation fan's head pays [Rotate] and its later
   members the marginal [Rotate_hoisted]; a fused multiply is charged once,
   as [Mul_rescale] at its Rescale. The estimate mirrors the executor so the
   Fig. 8 estimator-vs-actual property keeps holding. One loop in program
   order, operand types read from the body: nothing is allocated per op. *)
let estimate ~model ~params ~n (p : Prog.t) =
  let roles = Fusion.analyze p in
  let t = costs ~model ~params ~n in
  let body = p.Prog.body in
  let total = ref 0. in
  for i = 0 to Array.length body - 1 do
    let o = Array.unsafe_get body i in
    let args = o.Prog.args in
    let arity = Array.length args in
    let ty0 = if arity > 0 then body.(args.(0)).Prog.ty else Types.Free in
    let ty1 = if arity > 1 then body.(args.(1)).Prog.ty else Types.Free in
    let seconds =
      match roles.(o.Prog.id) with
      | Fusion.Fused_mul -> 0. (* charged at the Rescale *)
      | Fusion.Fused_rescale -> cost t Costmodel.Mul_rescale (level_of "rescale" ty0)
      | Fusion.Fan_member -> cost t Costmodel.Rotate_hoisted (level_of "rotate" ty0)
      | Fusion.Fan_head _ | Fusion.Single -> single_seconds t o ty0 ty1
    in
    total := !total +. seconds
  done;
  !total
