(* The candidate path's lookups and its estimate as they were before they
   ran on flat arrays, kept verbatim as differential oracles:
   - [hook_of_plan]: the degree lookup through a [Hashtbl] keyed by
     (op, operand) that [Hecate.Explore.hook_of_plan] replaced;
   - [Fusion.analyze]: fusion roles from a [Hashtbl] of rotation amounts
     per source, the oracle for [Hecate_ir.Fusion.analyze];
   - [Estimator]: the per-op sum with an operand-type array and a model
     call per op, the oracle for [Hecate.Estimator], which must return
     estimates equal to the last bit. Three places are edited (each marked)
     to charge what the selected instructions run, as the estimator now
     prices them. *)

type plan = int array

let hook_of_plan (edges : Hecate.Smu.edge array) (plan : plan) =
  let table = Hashtbl.create 64 in
  Array.iteri
    (fun i (e : Hecate.Smu.edge) ->
      if plan.(i) > 0 then
        List.iter (fun site -> Hashtbl.replace table site plan.(i)) e.Hecate.Smu.sites)
    edges;
  fun ~op_id ~operand -> Option.value ~default:0 (Hashtbl.find_opt table (op_id, operand))

module Fusion = struct
  open Hecate_ir

  type role = Single | Fused_mul | Fused_rescale | Fan_head of int list | Fan_member

  let analyze (p : Prog.t) =
    let roles = Array.make (Prog.num_ops p) Single in
    let uses = Prog.use_counts p in
    (* distinct rotation amounts per source, most recent first *)
    let amounts : (int, int list) Hashtbl.t = Hashtbl.create 8 in
    Prog.iter
      (fun (o : Prog.op) ->
        match o.Prog.kind with
        | Prog.Rotate { amount } ->
            let src = o.Prog.args.(0) in
            let prev = Option.value ~default:[] (Hashtbl.find_opt amounts src) in
            if not (List.mem amount prev) then Hashtbl.replace amounts src (amount :: prev)
        | Prog.Rescale -> (
            let m = o.Prog.args.(0) in
            let mo = Prog.op p m in
            let cipher i = Types.is_cipher (Prog.op p mo.Prog.args.(i)).Prog.ty in
            match mo.Prog.kind with
            | Prog.Mul when uses.(m) = 1 && cipher 0 && cipher 1 ->
                roles.(m) <- Fused_mul;
                roles.(o.Prog.id) <- Fused_rescale
            | _ -> ())
        | _ -> ())
      p;
    (* the first Rotate of a source with >= 2 distinct amounts heads its fan;
       the entry is then emptied so the later ones become members *)
    Prog.iter
      (fun (o : Prog.op) ->
        match o.Prog.kind with
        | Prog.Rotate _ -> (
            let src = o.Prog.args.(0) in
            match Hashtbl.find_opt amounts src with
            | Some (_ :: _ :: _ as distinct) ->
                roles.(o.Prog.id) <- Fan_head (List.rev distinct);
                Hashtbl.replace amounts src []
            | Some [] -> roles.(o.Prog.id) <- Fan_member
            | Some [ _ ] | None -> ())
        | _ -> ())
      p;
    roles
end

module Estimator = struct
  module Prog = Hecate_ir.Prog
  module Types = Hecate_ir.Types
  module Paramselect = Hecate.Paramselect
  module Costmodel = Hecate.Costmodel

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
    (* edited: a reversed subtraction (plaintext minus ciphertext) runs
       sub_plain and then negate, two Plain_add *)
    | Prog.Sub when (not (Types.is_cipher arg_tys.(0))) && Types.is_cipher arg_tys.(1) ->
        let level = operand_level "add" arg_tys 0 in
        cost Costmodel.Plain_add ~level +. cost Costmodel.Plain_add ~level
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
          (* edited: no Encode here; the Encode op feeding the product is
             charged on its own, and only its Encode_imm runs *)
        else cost Costmodel.Plain_mul ~level
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
          (* edited: the fan runs at its head, one Rotate and a
             Rotate_hoisted per further distinct amount; its later members,
             a repeated amount included, run nothing *)
          | Fusion.Fan_member -> 0.
          | Fusion.Fan_head amounts ->
              per_op_seconds ~model ~params ~n o arg_tys
              +. float_of_int (List.length amounts - 1)
                 *. cost Costmodel.Rotate_hoisted ~level:(operand_level "rotate" arg_tys 0)
          | Fusion.Single -> per_op_seconds ~model ~params ~n o arg_tys
        in
        total := !total +. seconds)
      p;
    !total
end
