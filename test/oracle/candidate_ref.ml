(* The candidate path's lookups, checks and estimate as they were before
   they ran on flat arrays and without per-op closures, kept verbatim as
   differential oracles:
   - [Prog_ref]: [validate] with a closure per op and [List.sort_uniq] on the
     inputs, and [use_counts] with a closure per op, the oracles for
     [Hecate_ir.Prog.validate] and [use_counts];
   - [Typing_ref]: the type check that built an operand array per op and a type
     array, the oracle for [Hecate_ir.Typing.check];
   - [hook_of_plan]: the degree lookup through a [Hashtbl] keyed by
     (op, operand) that [Hecate.Explore.hook_of_plan] replaced;
   - [Fusion.analyze]: fusion roles from a [Hashtbl] of rotation amounts
     per source, the oracle for [Hecate_ir.Fusion.analyze];
   - [Estimator]: the per-op sum with an operand-type array and a model
     call per op, the oracle for [Hecate.Estimator], which must return
     estimates equal to the last bit. Three places are edited (each marked)
     to charge what the selected instructions run, as the estimator now
     prices them. *)

module Prog_ref = struct
  open Hecate_ir.Prog

  let arity = function
    | Input _ | Const _ -> 0
    | Encode _ | Negate | Rotate _ | Rescale | Modswitch | Upscale _ | Downscale _ -> 1
    | Add | Sub | Mul -> 2

  let validate p =
    let n = Array.length p.body in
    let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
    let rec check i =
      if i >= n then Ok ()
      else
        let o = p.body.(i) in
        if o.id <> i then err "op at index %d has id %d" i o.id
        else if Array.length o.args <> arity o.kind then
          err "op %d (%s): expected %d operands, got %d" i (kind_name o.kind) (arity o.kind)
            (Array.length o.args)
        else if Array.exists (fun a -> a < 0 || a >= i) o.args then
          err "op %d (%s): operand does not precede use" i (kind_name o.kind)
        else check (i + 1)
    in
    match check 0 with
    | Error _ as e -> e
    | Ok () ->
        if List.exists (fun v -> v < 0 || v >= n) p.outputs then Error "output id out of range"
        else if p.outputs = [] then Error "program has no outputs"
        else if
          List.exists
            (fun v -> v < 0 || v >= n || (match p.body.(v).kind with Input _ -> false | _ -> true))
            p.inputs
        then Error "input list does not point at input ops"
        else if List.length (List.sort_uniq compare p.inputs) <> List.length p.inputs then
          Error "input list contains duplicates"
        else begin
          let declared = Array.make n false in
          List.iter (fun v -> declared.(v) <- true) p.inputs;
          let missing = ref None in
          Array.iteri
            (fun i o ->
              match o.kind with
              | Input _ when not declared.(i) && !missing = None -> missing := Some i
              | _ -> ())
            p.body;
          match !missing with
          | Some i -> err "input op %d is not in the input list" i
          | None -> Ok ()
        end

  let use_counts p =
    let counts = Array.make (Array.length p.body) 0 in
    iter (fun o -> Array.iter (fun a -> counts.(a) <- counts.(a) + 1) o.args) p;
    List.iter (fun v -> counts.(v) <- counts.(v) + 1) p.outputs;
    counts
end

module Typing_ref = struct
  open Hecate_ir
  open Hecate_ir.Typing

  let eps = 1e-6
  let remaining_log_q cfg level = cfg.max_log_q -. (float_of_int level *. cfg.sf)

  exception Ill of Diagnostic.t

  let illf ?hint ~code fmt =
    Printf.ksprintf (fun message -> raise (Ill (Diagnostic.v ?hint ~code message))) fmt

  let scaled_operand name (t : Types.t) =
    match t with
    | Types.Plain s | Types.Cipher s -> s
    | Types.Free ->
        illf ~code:Diagnostic.Operand_kind
          ~hint:"wrap the free operand in an encode at the consumer's scale and level" "%s%s" name
          ": operands must be scaled (encode free operands first)"

  (* cipher if either operand is *)
  let retag a b s = if Types.is_cipher a || Types.is_cipher b then Types.Cipher s else Types.Plain s

  let check_level_bound cfg name level =
    match cfg.max_level with
    | Some m when level > m ->
        illf ~code:Diagnostic.Level_exceeded
          ~hint:"the program consumes more rescaling primes than the parameter set provides; raise max_level or shorten the multiplication chain"
          "%s: level %d exceeds maximum %d" name level m
    | Some _ | None -> ()

  let check_c1 cfg name (s : Types.scaled) =
    if s.scale > remaining_log_q cfg s.level +. eps then
      illf ~code:Diagnostic.Scale_overflow
        ~hint:"insert a rescale on an operand so the scale drops before this point"
        "%s: scale 2^%.2f overflows the 2^%.2f modulus remaining at level %d (C1)" name s.scale
        (remaining_log_q cfg s.level) s.level

  let scaled_result cfg name (s : Types.scaled) =
    check_level_bound cfg name s.level;
    check_c1 cfg name s;
    s

  let infer_exn cfg kind (args : Types.t array) =
    match (kind, args) with
    | Prog.Input _, [||] -> Types.Cipher { scale = cfg.waterline; level = 0 }
    | Prog.Const _, [||] -> Types.Free
    | Prog.Encode { scale; level }, [| Types.Free |] ->
        if scale +. eps < cfg.waterline then
          illf ~code:Diagnostic.Below_waterline
            ~hint:"encode at the waterline scale or above" "encode: scale 2^%.2f below the waterline 2^%.2f (C2)"
            scale cfg.waterline
        else Types.Plain (scaled_result cfg "encode" { scale; level })
    | Prog.Encode _, [| _ |] ->
        illf ~code:Diagnostic.Operand_kind ~hint:"encode applies to const/free values only"
          "encode: operand must be free"
    | Prog.Add, [| a; b |] | Prog.Sub, [| a; b |] ->
        let name = Prog.kind_name kind in
        let x = scaled_operand name a in
        let y = scaled_operand name b in
        if x.level <> y.level then
          illf ~code:Diagnostic.Level_mismatch
            ~hint:"insert modswitch on the shallower operand to equalize levels"
            "%s: operand levels %d and %d differ (C3)" name x.level y.level
        else if not (Types.scale_close x.scale y.scale) then
          illf ~code:Diagnostic.Scale_mismatch
            ~hint:"rescale or upscale one operand so both scales match"
            "%s: operand scales 2^%.2f and 2^%.2f differ (C3)" name x.scale y.scale
        else retag a b (scaled_result cfg name x)
    | Prog.Mul, [| a; b |] ->
        let x = scaled_operand "mul" a in
        let y = scaled_operand "mul" b in
        if x.level <> y.level then
          illf ~code:Diagnostic.Level_mismatch
            ~hint:"insert modswitch on the shallower operand to equalize levels"
            "mul: operand levels %d and %d differ (C3)" x.level y.level
        else retag a b (scaled_result cfg "mul" { scale = x.scale +. y.scale; level = x.level })
    | Prog.Negate, [| a |] | (Prog.Rotate _, [| a |]) -> (
        match a with
        | Types.Free ->
            illf ~code:Diagnostic.Operand_kind
              ~hint:"wrap the free operand in an encode at the consumer's scale and level" "%s%s"
              (Prog.kind_name kind) ": operand must be scaled"
        | Types.Plain s | Types.Cipher s -> retag a a (scaled_result cfg (Prog.kind_name kind) s))
    | Prog.Rescale, [| a |] -> (
        match a with
        | Types.Cipher s ->
            let scale = s.scale -. cfg.sf in
            if scale +. eps < cfg.waterline then
              illf ~code:Diagnostic.Below_waterline
                ~hint:"use downscale (which lands exactly on the waterline) instead of rescale here"
                "rescale: result scale 2^%.2f below the waterline 2^%.2f (C2)" scale cfg.waterline
            else Types.Cipher (scaled_result cfg "rescale" { scale; level = s.level + 1 })
        | Types.Free | Types.Plain _ ->
            illf ~code:Diagnostic.Operand_kind ~hint:"rescale applies to ciphertexts only"
              "rescale: operand must be a ciphertext")
    | Prog.Modswitch, [| a |] -> (
        match a with
        | Types.Free ->
            illf ~code:Diagnostic.Operand_kind
              ~hint:"wrap the free operand in an encode at the consumer's scale and level"
              "modswitch: operand must be scaled"
        | Types.Plain s | Types.Cipher s ->
            retag a a (scaled_result cfg "modswitch" { s with level = s.level + 1 }))
    | Prog.Upscale { target_scale }, [| a |] -> (
        match a with
        | Types.Free ->
            illf ~code:Diagnostic.Operand_kind
              ~hint:"wrap the free operand in an encode at the consumer's scale and level"
              "upscale: operand must be scaled"
        | Types.Plain s | Types.Cipher s ->
            if target_scale +. eps < s.scale then
              illf ~code:Diagnostic.Bad_upscale ~hint:"upscale can only raise a scale; use rescale to lower it"
                "upscale: target 2^%.2f below current scale 2^%.2f" target_scale s.scale
            else retag a a (scaled_result cfg "upscale" { s with scale = target_scale }))
    | Prog.Downscale { waterline }, [| a |] -> (
        match a with
        | Types.Cipher s ->
            if not (Types.scale_close waterline cfg.waterline) then
              illf ~code:Diagnostic.Bad_downscale
                ~hint:"re-emit the downscale with the configured waterline attribute"
                "downscale: attribute disagrees with the configured waterline"
            else if s.scale <= cfg.waterline +. eps then
              illf ~code:Diagnostic.Redundant_op ~hint:"replace this downscale with a modswitch"
                "downscale: scale 2^%.2f is already at the waterline (use modswitch)" s.scale
            else if s.scale -. cfg.sf +. eps >= cfg.waterline then
              illf ~code:Diagnostic.Redundant_op ~hint:"replace this downscale with a rescale"
                "downscale: rescale is applicable at scale 2^%.2f (use rescale)" s.scale
            else begin
              (* peak scale during the upscale-to-(sf + waterline) implementation
                 counts toward C1 at the operand's level *)
              check_c1 cfg "downscale (peak)" { s with scale = cfg.sf +. cfg.waterline };
              Types.Cipher (scaled_result cfg "downscale" { scale = cfg.waterline; level = s.level + 1 })
            end
        | Types.Free | Types.Plain _ ->
            illf ~code:Diagnostic.Operand_kind ~hint:"downscale applies to ciphertexts only"
              "downscale: operand must be a ciphertext")
    | _ -> illf ~code:Diagnostic.Arity "%s%s" (Prog.kind_name kind) ": wrong operand count"

  let infer cfg kind args = match infer_exn cfg kind args with ty -> Ok ty | exception Ill d -> Error d

  let ( let* ) = Result.bind

  let check cfg (p : Prog.t) =
    let n = Prog.num_ops p in
    let tys = Array.make n Types.Free in
    (* operand types, in arrays reused across ops of arity 1 and 2 *)
    let one = [| Types.Free |] and two = [| Types.Free; Types.Free |] in
    let operand_types (o : Prog.op) =
      match o.Prog.args with
      | [| a |] ->
          one.(0) <- tys.(a);
          one
      | [| a; b |] ->
          two.(0) <- tys.(a);
          two.(1) <- tys.(b);
          two
      | args -> Array.map (fun a -> tys.(a)) args
    in
    let rec walk i =
      if i >= n then Ok ()
      else
        let o = Prog.op p i in
        let arg_tys = operand_types o in
        match infer_exn cfg o.Prog.kind arg_tys with
        | ty ->
            tys.(i) <- ty;
            o.Prog.ty <- ty;
            walk (i + 1)
        | exception Ill d ->
            Error (Diagnostic.at o { d with Diagnostic.operand_types = Array.to_list arg_tys })
    in
    let* () = walk 0 in
    let* () =
      List.fold_left
        (fun acc v ->
          let* () = acc in
          if Types.is_cipher tys.(v) then Ok ()
          else
            Error
              (Diagnostic.at (Prog.op p v)
                 (Diagnostic.v ~code:Diagnostic.Output_not_cipher
                    ~hint:"every returned value must be a ciphertext; check the output list"
                    (Printf.sprintf "output %d is not a ciphertext" v))))
        (Ok ()) p.Prog.outputs
    in
    Ok tys
end

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
