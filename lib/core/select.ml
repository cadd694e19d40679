module Prog = Hecate_ir.Prog
module Types = Hecate_ir.Types
module Fusion = Hecate_ir.Fusion

type instruction =
  | Encrypt_input of { name : string; dst : int }
  | Encode_imm of { value : Prog.const_value; scale_bits : float; level : int; plain_id : int }
  | Add of { lhs : int; rhs : int; dst : int }
  | Sub of { lhs : int; rhs : int; dst : int }
  | Add_plain of { lhs : int; plain : int; dst : int }
  | Sub_plain of { lhs : int; plain : int; dst : int; reversed : bool }
  | Mul of { lhs : int; rhs : int; dst : int }
  | Mul_plain of { lhs : int; plain : int; dst : int }
  | Mul_rescale of { lhs : int; rhs : int; dst : int }
  | Negate of { src : int; dst : int }
  | Rotate of { src : int; amount : int; dst : int }
  | Rotate_fan of { src : int; amounts : int list; dsts : int list }
  | Rescale of { src : int; dst : int }
  | Modswitch of { src : int; dst : int }
  | Modswitch_plain of { plain : int; dst_plain : int }
  | Upscale of { src : int; target_scale_bits : float; dst : int }
  | Downscale of { src : int; waterline_bits : float; dst : int }
  | Output of { src : int; index : int }

type t = { instructions : instruction array; levels : int array; registers : int; plaintexts : int }

let charges = function
  | Encrypt_input _ | Output _ -> []
  | Encode_imm _ -> [ (Costmodel.Encode, 1) ]
  | Add _ | Sub _ -> [ (Costmodel.Cipher_add, 1) ]
  | Add_plain _ | Sub_plain { reversed = false; _ } | Negate _ -> [ (Costmodel.Plain_add, 1) ]
  | Sub_plain { reversed = true; _ } -> [ (Costmodel.Plain_add, 2) ] (* sub_plain, then negate *)
  | Mul _ -> [ (Costmodel.Cipher_mul, 1) ]
  | Mul_plain _ -> [ (Costmodel.Plain_mul, 1) ]
  | Mul_rescale _ -> [ (Costmodel.Mul_rescale, 1) ]
  | Rotate _ -> [ (Costmodel.Rotate, 1) ]
  | Rotate_fan { amounts; _ } ->
      [ (Costmodel.Rotate, 1); (Costmodel.Rotate_hoisted, List.length amounts - 1) ]
  | Rescale _ -> [ (Costmodel.Rescale, 1) ]
  | Modswitch _ | Modswitch_plain _ -> [ (Costmodel.Modswitch, 1) ]
  (* [Eval.upscale] multiplies by its constant's residue per modulus and
     encodes nothing; the Encode charge is what it once cost, kept so that
     estimates, and the plans chosen by them, stay as they are *)
  | Upscale _ -> [ (Costmodel.Encode, 1); (Costmodel.Plain_mul, 1) ]
  | Downscale _ -> [ (Costmodel.Encode, 1); (Costmodel.Plain_mul, 1); (Costmodel.Rescale, 1) ]

(* Selection emits instructions over virtual registers, one per ciphertext
   the stream defines, and plaintext slots, one per plaintext. [loc.(v)]
   says where the value of op [v] lives: register [r] as [r >= 0], slot [s]
   as [-2 - s], nowhere as -1 (constants stay in the program). A fused
   multiply emits nothing and is read at its Rescale; a fan's later members
   take the registers its head defined ([fans]: source, amount, register).
   Returns the register and slot counts. *)
let run (p : Prog.t) emit =
  let body = p.Prog.body in
  let n = Array.length body in
  let roles = Fusion.analyze p in
  let loc = Array.make n (-1) and fans = ref [] in
  let reg v = Int.max (-1) loc.(v) and slot v = if loc.(v) <= -2 then -2 - loc.(v) else -1 in
  let registers = ref 0 and plaintexts = ref 0 in
  let fresh counter =
    let id = !counter in
    incr counter;
    id
  in
  let level v =
    match body.(v).Prog.ty with Types.Plain s | Types.Cipher s -> s.Types.level | Types.Free -> -1
  in
  let cipher v =
    let r = reg v in
    if r < 0 then invalid_arg "Select: expected a ciphertext value" else r
  in
  (* the ciphertext register and plaintext slot of a mixed pair of
     operands, and whether the plaintext comes first *)
  let mixed a b what =
    if reg a >= 0 && slot b >= 0 then (reg a, slot b, false)
    else if reg b >= 0 && slot a >= 0 then (reg b, slot a, true)
    else invalid_arg ("Select: " ^ what ^ " operands must pair a ciphertext with a plaintext")
  in
  (* a fresh register for the ciphertext of op [v] *)
  let def v =
    let dst = fresh registers in
    loc.(v) <- dst;
    dst
  in
  (* most instructions run at the level of their op's first operand *)
  let emit_at (o : Prog.op) i = emit i ~level:(level o.Prog.args.(0)) in
  for v = 0 to n - 1 do
    let o = body.(v) in
    let args = o.Prog.args in
    match (o.Prog.kind, roles.(v)) with
    | Prog.Input { name }, _ -> emit (Encrypt_input { name; dst = def v }) ~level:(level v)
    | Prog.Const _, _ | Prog.Mul, Fusion.Fused_mul -> ()
    | Prog.Encode { scale; level }, _ ->
        let value =
          match body.(args.(0)).Prog.kind with
          | Prog.Const { value } -> value
          | _ -> invalid_arg "Select: encode of a non-free value"
        in
        let plain_id = fresh plaintexts in
        loc.(v) <- -2 - plain_id;
        emit (Encode_imm { value; scale_bits = scale; level; plain_id }) ~level
    | (Prog.Add | Prog.Sub), _ ->
        let sub = match o.Prog.kind with Prog.Sub -> true | _ -> false in
        let a = args.(0) and b = args.(1) in
        if reg a >= 0 && reg b >= 0 then
          let lhs = reg a and rhs = reg b and dst = def v in
          emit_at o (if sub then Sub { lhs; rhs; dst } else Add { lhs; rhs; dst })
        else
          let lhs, plain, reversed = mixed a b "additive" in
          let dst = def v in
          emit_at o
            (if sub then Sub_plain { lhs; plain; dst; reversed } else Add_plain { lhs; plain; dst })
    | Prog.Mul, _ ->
        let a = args.(0) and b = args.(1) in
        if reg a >= 0 && reg b >= 0 then emit_at o (Mul { lhs = reg a; rhs = reg b; dst = def v })
        else
          let lhs, plain, _ = mixed a b "mul" in
          emit_at o (Mul_plain { lhs; plain; dst = def v })
    | Prog.Negate, _ ->
        let src = cipher args.(0) in
        emit_at o (Negate { src; dst = def v })
    | Prog.Rotate { amount }, Fusion.Fan_head amounts ->
        let src = cipher args.(0) in
        let dsts = List.map (fun _ -> fresh registers) amounts in
        let fan = List.combine amounts dsts in
        fans := (args.(0), fan) :: !fans;
        loc.(v) <- List.assoc amount fan;
        emit_at o (Rotate_fan { src; amounts; dsts })
    | Prog.Rotate { amount }, Fusion.Fan_member ->
        loc.(v) <- List.assoc amount (List.assoc args.(0) !fans)
    | Prog.Rotate { amount }, _ ->
        let src = cipher args.(0) in
        emit_at o (Rotate { src; amount; dst = def v })
    | Prog.Rescale, Fusion.Fused_rescale ->
        let m = body.(args.(0)) in
        let lhs = cipher m.Prog.args.(0) and rhs = cipher m.Prog.args.(1) in
        emit_at o (Mul_rescale { lhs; rhs; dst = def v })
    | Prog.Rescale, _ ->
        let src = cipher args.(0) in
        emit_at o (Rescale { src; dst = def v })
    | Prog.Modswitch, _ when slot args.(0) >= 0 ->
        let plain = slot args.(0) in
        let dst_plain = fresh plaintexts in
        loc.(v) <- -2 - dst_plain;
        emit_at o (Modswitch_plain { plain; dst_plain })
    | Prog.Modswitch, _ ->
        let src = cipher args.(0) in
        emit_at o (Modswitch { src; dst = def v })
    | Prog.Upscale { target_scale }, _ ->
        let src = cipher args.(0) in
        emit_at o (Upscale { src; target_scale_bits = target_scale; dst = def v })
    | Prog.Downscale { waterline }, _ ->
        let src = cipher args.(0) in
        emit_at o (Downscale { src; waterline_bits = waterline; dst = def v })
  done;
  List.iteri (fun index v -> emit (Output { src = cipher v; index }) ~level:(level v)) p.Prog.outputs;
  (!registers, !plaintexts)

let iter p f = ignore (run p f)

let select p =
  let stream = ref [] in
  let registers, plaintexts = run p (fun i ~level -> stream := (i, level) :: !stream) in
  let stream = Array.of_list (List.rev !stream) in
  { instructions = Array.map fst stream; levels = Array.map snd stream; registers; plaintexts }

let pp_operand fmt = function
  | Prog.Vector v -> Format.fprintf fmt "imm<%d elems>" (Array.length v)
  | Prog.Scalar x -> Format.fprintf fmt "imm %g" x

let pp_instruction fmt = function
  | Encrypt_input { name; dst } -> Format.fprintf fmt "ct[%d] <- encrypt %S" dst name
  | Encode_imm { value; scale_bits; level; plain_id } ->
      Format.fprintf fmt "pt[%d] <- encode %a scale=2^%g level=%d" plain_id pp_operand value
        scale_bits level
  | Add { lhs; rhs; dst } -> Format.fprintf fmt "ct[%d] <- add ct[%d], ct[%d]" dst lhs rhs
  | Sub { lhs; rhs; dst } -> Format.fprintf fmt "ct[%d] <- sub ct[%d], ct[%d]" dst lhs rhs
  | Add_plain { lhs; plain; dst } ->
      Format.fprintf fmt "ct[%d] <- add_plain ct[%d], pt[%d]" dst lhs plain
  | Sub_plain { lhs; plain; dst; reversed } ->
      Format.fprintf fmt "ct[%d] <- %s ct[%d], pt[%d]" dst
        (if reversed then "rsub_plain" else "sub_plain")
        lhs plain
  | Mul { lhs; rhs; dst } -> Format.fprintf fmt "ct[%d] <- mul+relin ct[%d], ct[%d]" dst lhs rhs
  | Mul_plain { lhs; plain; dst } ->
      Format.fprintf fmt "ct[%d] <- mul_plain ct[%d], pt[%d]" dst lhs plain
  | Mul_rescale { lhs; rhs; dst } ->
      Format.fprintf fmt "ct[%d] <- mul+relin+rescale ct[%d], ct[%d]" dst lhs rhs
  | Negate { src; dst } -> Format.fprintf fmt "ct[%d] <- negate ct[%d]" dst src
  | Rotate { src; amount; dst } -> Format.fprintf fmt "ct[%d] <- rotate ct[%d], %d" dst src amount
  | Rotate_fan { src; amounts; dsts } ->
      let list pp = Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f ", ") pp in
      Format.fprintf fmt "%a <- rotate_fan ct[%d], %a"
        (list (fun f d -> Format.fprintf f "ct[%d]" d))
        dsts src (list Format.pp_print_int) amounts
  | Rescale { src; dst } -> Format.fprintf fmt "ct[%d] <- rescale ct[%d]" dst src
  | Modswitch { src; dst } -> Format.fprintf fmt "ct[%d] <- modswitch ct[%d]" dst src
  | Modswitch_plain { plain; dst_plain } ->
      Format.fprintf fmt "pt[%d] <- modswitch pt[%d]" dst_plain plain
  | Upscale { src; target_scale_bits; dst } ->
      Format.fprintf fmt "ct[%d] <- upscale ct[%d] to 2^%g" dst src target_scale_bits
  | Downscale { src; waterline_bits; dst } ->
      Format.fprintf fmt "ct[%d] <- downscale ct[%d] to 2^%g" dst src waterline_bits
  | Output { src; index } -> Format.fprintf fmt "out[%d] <- ct[%d]" index src
