module Prog = Hecate_ir.Prog
module Types = Hecate_ir.Types
module Typing = Hecate_ir.Typing
module Diagnostic = Hecate_ir.Diagnostic

type hook = op_id:int -> operand:int -> int

let no_hook ~op_id:_ ~operand:_ = 0
let eps = 1e-6

(* The generators emit into a {!Flat} program: [flat] receives the ops,
   [mapped] maps each source value to the value standing for it, and
   [classes] is the integer attribute a source constant carries (its
   class of equal constants, where [flat] numbers values). *)
type target = { mutable flat : Flat.t; mapped : int array; classes : int array }

let target flat ~classes (p : Prog.t) = { flat; mapped = Array.make (Prog.num_ops p) (-1); classes }

module T = struct
  let[@inline] tag r v = r.flat.Flat.tag.(v)

  let scale r v =
    if tag r v = Flat.free then invalid_arg "Types.scale_exn: free type has no scale"
    else r.flat.Flat.scale.(v)

  let level r v =
    if tag r v = Flat.free then invalid_arg "Types.level_exn: free type has no level"
    else r.flat.Flat.level.(v)

  let[@inline] mapped r v = r.mapped.(v)
  let[@inline] set_mapped r old_value v = r.mapped.(old_value) <- v

  (* the source op [o] over the managed operands *)
  let source r (o : Prog.op) a b tag scale level =
    let iattr =
      match o.Prog.kind with
      | Prog.Rotate { amount } -> amount
      | Prog.Input _ -> o.Prog.id
      | Prog.Const _ -> if Array.length r.classes = 0 then o.Prog.id else r.classes.(o.Prog.id)
      | _ -> 0
    in
    Flat.emit r.flat ~src:o.Prog.id (Flat.code_of o.Prog.kind) a b iattr 0. tag scale level

  let encode r v scale level =
    Flat.emit r.flat ~src:(-1) Flat.encode v (-1) level scale Flat.plain scale level

  let rescale r v scale level =
    Flat.emit r.flat ~src:(-1) Flat.rescale v (-1) 0 0. Flat.cipher scale level

  let modswitch r v tag scale level =
    Flat.emit r.flat ~src:(-1) Flat.modswitch v (-1) 0 0. tag scale level

  let upscale r v tag target level =
    Flat.emit r.flat ~src:(-1) Flat.upscale v (-1) 0 target tag target level

  let downscale r v waterline level =
    Flat.emit r.flat ~src:(-1) Flat.downscale v (-1) 0 waterline Flat.cipher waterline level
end

let scale_of = T.scale
let level_of = T.level
let is_cipher r v = T.tag r v = Flat.cipher
let is_free r v = T.tag r v = Flat.free

(* a ciphertext keeps its tag through an op that leaves it scaled *)
let scaled_tag r v = if is_cipher r v then Flat.cipher else Flat.plain

let emit_rescale r (cfg : Typing.config) v =
  T.rescale r v (scale_of r v -. cfg.sf) (level_of r v + 1)

let emit_modswitch r v = T.modswitch r v (scaled_tag r v) (scale_of r v) (level_of r v + 1)

let emit_downscale r (cfg : Typing.config) v = T.downscale r v cfg.waterline (level_of r v + 1)
let emit_upscale r v target = T.upscale r v (scaled_tag r v) target (level_of r v)

let encode_free r (cfg : Typing.config) v ~scale ~level =
  T.encode r v (Float.max scale cfg.waterline) level

let rescale_applicable (cfg : Typing.config) s = s -. cfg.sf >= cfg.waterline -. eps

(* (b) rescale analysis: reduce a ciphertext's scale by the fixed factor
   as long as the waterline allows. *)
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

(* (c) level match, proactive flavor: raise a value to [target] one prime
   at a time, preferring rescale, then downscale, falling back to
   modswitch. *)
let rec raise_level_pars r cfg v ~target =
  if level_of r v >= target then v else raise_level_pars r cfg (force_step r cfg v) ~target

(* EVA flavor: modswitch only. *)
let rec raise_level_eva r v ~target =
  if level_of r v >= target then v else raise_level_eva r (emit_modswitch r v) ~target

(* (d) scale match for additive operations: [v] upscaled to [sibling]'s
   scale when it is clearly below it. Of two operands, at most one
   moves. *)
let match_scale r v ~sibling =
  let sv = scale_of r v and ss = scale_of r sibling in
  if Types.scale_close sv ss || sv >= ss then v else emit_upscale r v ss

let is_mul (o : Prog.op) =
  match o.Prog.kind with
  | Prog.Mul -> true
  | Prog.Add | Prog.Sub -> false
  | _ -> invalid_arg "Codegen: not a binary operation"

(* the source's binary operation over the managed operands *)
let emit_binop r (o : Prog.op) ~is_mul a b =
  let sa = scale_of r a and ka = level_of r a in
  let scale = if is_mul then sa +. scale_of r b else sa in
  T.source r o a b (if is_cipher r a || is_cipher r b then Flat.cipher else Flat.plain) scale ka

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

(* Shared driver: walks the source program, delegating binary
   operations. *)
let run (cfg : Typing.config) ~hook ~binop r (p : Prog.t) =
  Prog.iter
    (fun (o : Prog.op) ->
      let new_id =
        match o.Prog.kind with
        | Prog.Input _ -> T.source r o (-1) (-1) Flat.cipher cfg.waterline 0
        | Prog.Const _ -> T.source r o (-1) (-1) Flat.free 0. 0
        | Prog.Negate | Prog.Rotate _ ->
            let a = T.mapped r o.Prog.args.(0) in
            let a = apply_hook r cfg hook ~op_id:o.Prog.id ~operand:0 a in
            let a =
              if is_free r a then encode_free r cfg a ~scale:cfg.waterline ~level:0 else a
            in
            T.source r o a (-1) (scaled_tag r a) (scale_of r a) (level_of r a)
        | Prog.Add | Prog.Sub | Prog.Mul ->
            let a = T.mapped r o.Prog.args.(0) in
            let b = T.mapped r o.Prog.args.(1) in
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
      T.set_mapped r o.Prog.id new_id)
    p

(* ---------------------------------------------------------------- *)
(* EVA: waterline rescaling                                           *)
(* ---------------------------------------------------------------- *)

let emit_waterline cfg ~hook r p =
  let binop r o a b =
    let is_mul = is_mul o in
    match (is_free r a, is_free r b) with
    | true, true ->
        let a = encode_free r cfg a ~scale:cfg.waterline ~level:0 in
        let b = encode_free r cfg b ~scale:cfg.waterline ~level:0 in
        emit_binop r o ~is_mul a b
    | _ ->
        (* normalize ciphers: waterline rescaling *)
        let a = norm r cfg a and b = norm r cfg b in
        (* level match the scaled operands by modswitch *)
        let target = Int.max (level_or_zero r a) (level_or_zero r b) in
        let a = lift_eva r a ~target and b = lift_eva r b ~target in
        let a = encode_at r cfg ~is_mul ~sibling:b a
        and b = encode_at r cfg ~is_mul ~sibling:a b in
        let a = if is_mul then a else match_scale r a ~sibling:b
        and b = if is_mul then b else match_scale r b ~sibling:a in
        let res = emit_binop r o ~is_mul a b in
        (* reactive rescaling of multiplication results *)
        if is_mul then rescale_while r cfg res else res
  in
  run cfg ~hook ~binop r p

(* ---------------------------------------------------------------- *)
(* PARS: proactive rescaling (Algorithm 2)                            *)
(* ---------------------------------------------------------------- *)

let emit_pars cfg ~hook ~downscale_analysis r p =
  let binop r o a b =
    let is_mul = is_mul o in
    match (is_free r a, is_free r b) with
    | true, true ->
        let a = encode_free r cfg a ~scale:cfg.waterline ~level:0 in
        let b = encode_free r cfg b ~scale:cfg.waterline ~level:0 in
        emit_binop r o ~is_mul a b
    | _ ->
        (* (b) rescale analysis *)
        let a = norm r cfg a and b = norm r cfg b in
        (* (c) level match: proactive, may downscale *)
        let target = Int.max (level_or_zero r a) (level_or_zero r b) in
        let a = lift_pars r cfg a ~target and b = lift_pars r cfg b ~target in
        (* (e) downscale analysis for multiplications: if the product
           scale would exceed the peak a pre-downscale costs, downscale
           operands first *)
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
        let a = encode_at r cfg ~is_mul ~sibling:b a
        and b = encode_at r cfg ~is_mul ~sibling:a b in
        (* (d) scale match for additive ops *)
        let a = if is_mul then a else match_scale r a ~sibling:b
        and b = if is_mul then b else match_scale r b ~sibling:a in
        emit_binop r o ~is_mul a b
  in
  run cfg ~hook ~binop r p

(* The managed program, built from the ops the rules emit. *)
let build emit (p : Prog.t) =
  let r = target (Flat.create ~hashcons:false (2 * Prog.num_ops p)) ~classes:[||] p in
  emit r p;
  Flat.to_prog r.flat p ~outputs:(List.map (T.mapped r) p.Prog.outputs)

let waterline cfg ?(hook = no_hook) p = build (emit_waterline cfg ~hook) p

let pars cfg ?(hook = no_hook) ?(downscale_analysis = true) p =
  build (emit_pars cfg ~hook ~downscale_analysis) p
