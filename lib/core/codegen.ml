module Prog = Hecate_ir.Prog
module Types = Hecate_ir.Types
module Typing = Hecate_ir.Typing
module Diagnostic = Hecate_ir.Diagnostic
module R = Hecate_ir.Prog.Rewriter

type hook = op_id:int -> operand:int -> int

let no_hook ~op_id:_ ~operand:_ = 0
let eps = 1e-6

let scale_of r v = Types.scale_exn (R.ty r v)
let level_of r v = Types.level_exn (R.ty r v)
let is_cipher r v = Types.is_cipher (R.ty r v)
let is_free r v =
  match R.ty r v with Types.Free -> true | Types.Plain _ | Types.Cipher _ -> false

let retag r v (s : Types.scaled) =
  if is_cipher r v then Types.Cipher s else Types.Plain s

let emit_rescale r (cfg : Typing.config) v =
  let s = scale_of r v and k = level_of r v in
  R.emit r Prog.Rescale [| v |] (Types.Cipher { scale = s -. cfg.sf; level = k + 1 })

let emit_modswitch r v =
  let s = scale_of r v and k = level_of r v in
  R.emit r Prog.Modswitch [| v |] (retag r v { scale = s; level = k + 1 })

let emit_downscale r (cfg : Typing.config) v =
  let k = level_of r v in
  R.emit r
    (Prog.Downscale { waterline = cfg.waterline })
    [| v |]
    (Types.Cipher { scale = cfg.waterline; level = k + 1 })

let emit_upscale r v target =
  let k = level_of r v in
  R.emit r (Prog.Upscale { target_scale = target }) [| v |] (retag r v { scale = target; level = k })

let encode_free r (cfg : Typing.config) v ~scale ~level =
  let scale = Float.max scale cfg.waterline in
  R.emit r (Prog.Encode { scale; level }) [| v |] (Types.Plain { scale; level })

let rescale_applicable (cfg : Typing.config) s = s -. cfg.sf >= cfg.waterline -. eps

(* (b) rescale analysis: reduce a ciphertext's scale by the fixed factor as
   long as the waterline allows. *)
let rec rescale_while r cfg v =
  if is_cipher r v && rescale_applicable cfg (scale_of r v) then
    rescale_while r cfg (emit_rescale r cfg v)
  else v

(* One forced scale-management step, as the SMSE planner prescribes. *)
let force_step r (cfg : Typing.config) v =
  if not (is_cipher r v) then emit_modswitch r v
  else
    let s = scale_of r v in
    if rescale_applicable cfg s then emit_rescale r cfg v
    else if s > cfg.waterline +. eps then emit_downscale r cfg v
    else emit_modswitch r v

let rec force_steps r cfg v d = if d = 0 then v else force_steps r cfg (force_step r cfg v) (d - 1)

let apply_hook r cfg (hook : hook) ~op_id ~operand v =
  if is_free r v then v else force_steps r cfg v (hook ~op_id ~operand)

(* (c) level match, proactive flavor: raise a value to [target] one prime at
   a time, preferring rescale, then downscale, falling back to modswitch. *)
let rec raise_level_pars r cfg v ~target =
  if level_of r v >= target then v else raise_level_pars r cfg (force_step r cfg v) ~target

(* EVA flavor: modswitch only. *)
let rec raise_level_eva r v ~target =
  if level_of r v >= target then v else raise_level_eva r (emit_modswitch r v) ~target

(* (d) scale match for additive operations: [v] upscaled to [sibling]'s
   scale when it is clearly below it. Of two operands, at most one moves. *)
let match_scale r v ~sibling =
  let sv = scale_of r v and ss = scale_of r sibling in
  if Types.scale_close sv ss || sv >= ss then v else emit_upscale r v ss

let is_mul (o : Prog.op) =
  match o.Prog.kind with
  | Prog.Mul -> true
  | Prog.Add | Prog.Sub -> false
  | _ -> invalid_arg "Codegen: not a binary operation"

let emit_binop r (o : Prog.op) a b ty = R.emit ?prov:o.Prog.prov r o.Prog.kind [| a; b |] ty

let result_scaled r ~is_mul a b : Types.scaled =
  let sa = scale_of r a and ka = level_of r a in
  let sb = scale_of r b in
  if is_mul then { scale = sa +. sb; level = ka } else { scale = sa; level = ka }

let result_ty r ~is_mul a b =
  let s = result_scaled r ~is_mul a b in
  if is_cipher r a || is_cipher r b then Types.Cipher s else Types.Plain s

(* Per-operand steps of the binary-operation rules, on free operands the
   identity. *)
let norm r cfg v = if is_free r v then v else rescale_while r cfg v
let level_or_zero r v = if is_free r v then 0 else level_of r v
let lift_eva r v ~target = if is_free r v then v else raise_level_eva r v ~target
let lift_pars r cfg v ~target = if is_free r v then v else raise_level_pars r cfg v ~target

(* A free operand encoded at its sibling's level; additive ops need the
   sibling's scale, multiplicative the waterline. *)
let encode_at r (cfg : Typing.config) ~is_mul ~sibling v =
  if is_free r v then
    encode_free r cfg v
      ~scale:(if is_mul then cfg.waterline else scale_of r sibling)
      ~level:(level_of r sibling)
  else v

(* PARS's pre-downscale of a multiplication operand. *)
let downscale_operand r (cfg : Typing.config) v =
  if not (is_cipher r v) then emit_modswitch r v
  else if scale_of r v > cfg.waterline +. eps then emit_downscale r cfg v
  else emit_modswitch r v

(* Shared driver: walks the source program, delegating binary operations. *)
let run (cfg : Typing.config) ~hook ~binop (p : Prog.t) =
  let r = R.create p in
  Prog.iter
    (fun (o : Prog.op) ->
      let new_id =
        match o.Prog.kind with
        | Prog.Input { name } ->
            R.emit ?prov:o.Prog.prov r (Prog.Input { name }) [||]
              (Types.Cipher { scale = cfg.waterline; level = 0 })
        | Prog.Const { value } -> R.emit ?prov:o.Prog.prov r (Prog.Const { value }) [||] Types.Free
        | Prog.Negate | Prog.Rotate _ ->
            let a = R.mapped r o.Prog.args.(0) in
            let a = apply_hook r cfg hook ~op_id:o.Prog.id ~operand:0 a in
            let a =
              if is_free r a then encode_free r cfg a ~scale:cfg.waterline ~level:0 else a
            in
            R.emit ?prov:o.Prog.prov r o.Prog.kind [| a |]
              (retag r a { scale = scale_of r a; level = level_of r a })
        | Prog.Add | Prog.Sub | Prog.Mul ->
            let a = R.mapped r o.Prog.args.(0) in
            let b = R.mapped r o.Prog.args.(1) in
            let a = apply_hook r cfg hook ~op_id:o.Prog.id ~operand:0 a in
            let b = apply_hook r cfg hook ~op_id:o.Prog.id ~operand:1 b in
            binop r o a b
        | Prog.Encode _ | Prog.Rescale | Prog.Modswitch | Prog.Upscale _ | Prog.Downscale _ ->
            Diagnostic.error
              (Diagnostic.at o
                 (Diagnostic.v ~code:Diagnostic.Already_managed
                    ~hint:
                      "strip the existing rescale/modswitch/encode operations (or compile \
                       the program as-is without a scheme) before re-managing it"
                    "Codegen: input program already contains scale-management operations"))
      in
      R.set_mapped r ~old_value:o.Prog.id new_id)
    p;
  R.finish r

(* ------------------------------------------------------------------ *)
(* EVA: waterline rescaling                                             *)
(* ------------------------------------------------------------------ *)

let waterline cfg ?(hook = no_hook) p =
  let binop r o a b =
    let is_mul = is_mul o in
    match (is_free r a, is_free r b) with
    | true, true ->
        let a = encode_free r cfg a ~scale:cfg.waterline ~level:0 in
        let b = encode_free r cfg b ~scale:cfg.waterline ~level:0 in
        emit_binop r o a b (result_ty r ~is_mul a b)
    | _ ->
        (* normalize ciphers: waterline rescaling *)
        let a = norm r cfg a and b = norm r cfg b in
        (* level match the scaled operands by modswitch *)
        let target = Int.max (level_or_zero r a) (level_or_zero r b) in
        let a = lift_eva r a ~target and b = lift_eva r b ~target in
        let a = encode_at r cfg ~is_mul ~sibling:b a and b = encode_at r cfg ~is_mul ~sibling:a b in
        let a = if is_mul then a else match_scale r a ~sibling:b
        and b = if is_mul then b else match_scale r b ~sibling:a in
        let res = emit_binop r o a b (result_ty r ~is_mul a b) in
        (* reactive rescaling of multiplication results *)
        if is_mul then rescale_while r cfg res else res
  in
  run cfg ~hook ~binop p

(* ------------------------------------------------------------------ *)
(* PARS: proactive rescaling (Algorithm 2)                              *)
(* ------------------------------------------------------------------ *)

let pars cfg ?(hook = no_hook) ?(downscale_analysis = true) p =
  let binop r o a b =
    let is_mul = is_mul o in
    match (is_free r a, is_free r b) with
    | true, true ->
        let a = encode_free r cfg a ~scale:cfg.waterline ~level:0 in
        let b = encode_free r cfg b ~scale:cfg.waterline ~level:0 in
        emit_binop r o a b (result_ty r ~is_mul a b)
    | _ ->
        (* (b) rescale analysis *)
        let a = norm r cfg a and b = norm r cfg b in
        (* (c) level match: proactive, may downscale *)
        let target = Int.max (level_or_zero r a) (level_or_zero r b) in
        let a = lift_pars r cfg a ~target and b = lift_pars r cfg b ~target in
        (* (e) downscale analysis for multiplications: if the product scale
           would exceed the peak a pre-downscale costs, downscale operands
           first *)
        let a, b =
          if
            is_mul && downscale_analysis
            && (not (is_free r a))
            && (not (is_free r b))
            && scale_of r a +. scale_of r b > cfg.sf +. (2. *. cfg.waterline) +. eps
          then (downscale_operand r cfg a, downscale_operand r cfg b)
          else (a, b)
        in
        (* (a) encode free operands at the sibling's level *)
        let a = encode_at r cfg ~is_mul ~sibling:b a and b = encode_at r cfg ~is_mul ~sibling:a b in
        (* (d) scale match for additive ops *)
        let a = if is_mul then a else match_scale r a ~sibling:b
        and b = if is_mul then b else match_scale r b ~sibling:a in
        emit_binop r o a b (result_ty r ~is_mul a b)
  in
  run cfg ~hook ~binop p
