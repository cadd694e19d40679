module Prog = Hecate_ir.Prog
module Liveness = Hecate_ir.Liveness
module Fusion = Hecate_ir.Fusion
module Eval = Hecate_ckks.Eval
module Chain = Hecate_rns.Chain
module Params = Hecate_ckks.Params
module Costmodel = Hecate.Costmodel

type operand = Immediate of float array | Scalar_imm of float

type instruction =
  | Encrypt_input of { name : string; dst : int }
  | Encode_imm of { value : operand; scale_bits : float; level : int; plain_id : int }
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

type t = {
  instructions : instruction array;
  cipher_buffers : int;
  plain_slots : int;
  output_count : int;
  source_ops : int;
  slot_count : int;
}

(* Rewrite the ciphertext registers an instruction reads through [read]
   and those it writes through [write]. *)
let map_regs ~read ~write = function
  | (Encode_imm _ | Modswitch_plain _) as i -> i
  | Encrypt_input r -> Encrypt_input { r with dst = write r.dst }
  | Add { lhs; rhs; dst } -> Add { lhs = read lhs; rhs = read rhs; dst = write dst }
  | Sub { lhs; rhs; dst } -> Sub { lhs = read lhs; rhs = read rhs; dst = write dst }
  | Mul { lhs; rhs; dst } -> Mul { lhs = read lhs; rhs = read rhs; dst = write dst }
  | Mul_rescale { lhs; rhs; dst } -> Mul_rescale { lhs = read lhs; rhs = read rhs; dst = write dst }
  | Add_plain r -> Add_plain { r with lhs = read r.lhs; dst = write r.dst }
  | Sub_plain r -> Sub_plain { r with lhs = read r.lhs; dst = write r.dst }
  | Mul_plain r -> Mul_plain { r with lhs = read r.lhs; dst = write r.dst }
  | Negate { src; dst } -> Negate { src = read src; dst = write dst }
  | Rotate r -> Rotate { r with src = read r.src; dst = write r.dst }
  | Rotate_fan r -> Rotate_fan { r with src = read r.src; dsts = List.map write r.dsts }
  | Rescale { src; dst } -> Rescale { src = read src; dst = write dst }
  | Modswitch { src; dst } -> Modswitch { src = read src; dst = write dst }
  | Upscale r -> Upscale { r with src = read r.src; dst = write r.dst }
  | Downscale r -> Downscale { r with src = read r.src; dst = write r.dst }
  | Output r -> Output { r with src = read r.src }

let regs i =
  let reads = ref [] and writes = ref [] in
  let note acc r =
    acc := r :: !acc;
    r
  in
  ignore (map_regs ~read:(note reads) ~write:(note writes) i);
  (List.rev !reads, List.rev !writes)

type lowered_value =
  | Lcipher of int
  | Lplain of int
  | Lfree of operand
  | Lpending_mul of int * int (* a fused Mul: its operands, read at the Rescale *)

(* Lowering emits instructions over virtual registers, one per ciphertext
   the stream defines; the registers are then packed into the buffer pool
   by linear scan over the stream itself. IR-level liveness would be wrong
   here: a fan defines its later members' values at its head, and a fused
   multiply reads its operands at the Rescale. *)
let lower (p : Prog.t) =
  let roles = Fusion.analyze p in
  let values = Array.make (Prog.num_ops p) (Lfree (Scalar_imm 0.)) in
  let instrs = ref [] in
  let emit i = instrs := i :: !instrs in
  let counter () =
    let c = ref 0 in
    fun () ->
      let id = !c in
      incr c;
      id
  in
  let fresh_reg = counter () and fresh_plain = counter () in
  let fanned : (int * int, int) Hashtbl.t = Hashtbl.create 8 in
  let reg v =
    match values.(v) with
    | Lcipher r -> r
    | Lplain _ | Lfree _ | Lpending_mul _ ->
        invalid_arg "Schedule.lower: expected a ciphertext value"
  in
  (* emit [make dst] into a fresh register *)
  let def make =
    let dst = fresh_reg () in
    emit (make dst);
    Lcipher dst
  in
  Prog.iter
    (fun (o : Prog.op) ->
      let arg i = o.Prog.args.(i) in
      let lowered =
        match (o.Prog.kind, roles.(o.Prog.id)) with
        | Prog.Input { name }, _ -> def (fun dst -> Encrypt_input { name; dst })
        | Prog.Const { value = Prog.Scalar x }, _ -> Lfree (Scalar_imm x)
        | Prog.Const { value = Prog.Vector v }, _ -> Lfree (Immediate (Array.copy v))
        | Prog.Encode { scale; level }, _ -> (
            match values.(arg 0) with
            | Lfree value ->
                let plain_id = fresh_plain () in
                emit (Encode_imm { value; scale_bits = scale; level; plain_id });
                Lplain plain_id
            | _ -> invalid_arg "Schedule.lower: encode of a non-free value")
        | (Prog.Add | Prog.Sub), _ -> (
            let sub = o.Prog.kind = Prog.Sub in
            match (values.(arg 0), values.(arg 1)) with
            | Lcipher lhs, Lcipher rhs ->
                def (fun dst -> if sub then Sub { lhs; rhs; dst } else Add { lhs; rhs; dst })
            | Lcipher lhs, Lplain plain ->
                def (fun dst ->
                    if sub then Sub_plain { lhs; plain; dst; reversed = false }
                    else Add_plain { lhs; plain; dst })
            | Lplain plain, Lcipher lhs ->
                def (fun dst ->
                    if sub then Sub_plain { lhs; plain; dst; reversed = true }
                    else Add_plain { lhs; plain; dst })
            | _ -> invalid_arg "Schedule.lower: additive operands must pair a ciphertext with a plaintext")
        | Prog.Mul, Fusion.Fused_mul -> Lpending_mul (reg (arg 0), reg (arg 1))
        | Prog.Mul, _ -> (
            match (values.(arg 0), values.(arg 1)) with
            | Lcipher lhs, Lcipher rhs -> def (fun dst -> Mul { lhs; rhs; dst })
            | Lcipher lhs, Lplain plain | Lplain plain, Lcipher lhs ->
                def (fun dst -> Mul_plain { lhs; plain; dst })
            | _ -> invalid_arg "Schedule.lower: mul operands must pair a ciphertext with a plaintext")
        | Prog.Negate, _ -> def (fun dst -> Negate { src = reg (arg 0); dst })
        | Prog.Rotate { amount }, Fusion.Fan_head amounts ->
            let src = reg (arg 0) in
            let dsts = List.map (fun _ -> fresh_reg ()) amounts in
            List.iter2 (fun a d -> Hashtbl.replace fanned (arg 0, a) d) amounts dsts;
            emit (Rotate_fan { src; amounts; dsts });
            Lcipher (Hashtbl.find fanned (arg 0, amount))
        | Prog.Rotate { amount }, Fusion.Fan_member -> Lcipher (Hashtbl.find fanned (arg 0, amount))
        | Prog.Rotate { amount }, _ -> def (fun dst -> Rotate { src = reg (arg 0); amount; dst })
        | Prog.Rescale, _ -> (
            match values.(arg 0) with
            | Lpending_mul (lhs, rhs) -> def (fun dst -> Mul_rescale { lhs; rhs; dst })
            | _ -> def (fun dst -> Rescale { src = reg (arg 0); dst }))
        | Prog.Modswitch, _ -> (
            match values.(arg 0) with
            | Lplain plain ->
                let dst_plain = fresh_plain () in
                emit (Modswitch_plain { plain; dst_plain });
                Lplain dst_plain
            | _ -> def (fun dst -> Modswitch { src = reg (arg 0); dst }))
        | Prog.Upscale { target_scale }, _ ->
            def (fun dst -> Upscale { src = reg (arg 0); target_scale_bits = target_scale; dst })
        | Prog.Downscale { waterline }, _ ->
            def (fun dst -> Downscale { src = reg (arg 0); waterline_bits = waterline; dst })
      in
      values.(o.Prog.id) <- lowered)
    p;
  List.iteri (fun index v -> emit (Output { src = reg v; index })) p.Prog.outputs;
  let stream = Array.of_list (List.rev !instrs) in
  let num_values = fresh_reg () in
  let live =
    Liveness.plan ~num_values
      ~reads:(Array.map (fun i -> fst (regs i)) stream)
      ~writes:(Array.map (fun i -> snd (regs i)) stream)
  in
  {
    instructions =
      (let buffer r = live.Liveness.buffer_of.(r) in
       Array.map (map_regs ~read:buffer ~write:buffer) stream);
    cipher_buffers = max 1 live.Liveness.buffer_count;
    plain_slots = max 1 (fresh_plain ());
    output_count = List.length p.Prog.outputs;
    source_ops = Prog.num_ops p;
    slot_count = p.Prog.slot_count;
  }

let pp_operand fmt = function
  | Immediate v -> Format.fprintf fmt "imm<%d elems>" (Array.length v)
  | Scalar_imm x -> Format.fprintf fmt "imm %g" x

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

let pp fmt t =
  Format.fprintf fmt "; %d instructions, %d ciphertext buffers, %d plaintexts (from %d IR ops)@\n"
    (Array.length t.instructions) t.cipher_buffers t.plain_slots t.source_ops;
  Array.iter (fun i -> Format.fprintf fmt "  %a@\n" pp_instruction i) t.instructions

type class_stat = { count : int; seconds : float }

type report = {
  outputs : float array list;
  elapsed_seconds : float;
  per_class : (Costmodel.op_class * class_stat) list;
  peak_live : int;
}

(* The cost-model class an instruction is timed under, and how many
   operations of that class it performs. *)
let op_class = function
  | Encrypt_input _ | Output _ -> None
  | Encode_imm _ -> Some (Costmodel.Encode, 1)
  | Add _ | Sub _ -> Some (Costmodel.Cipher_add, 1)
  | Add_plain _ | Sub_plain _ | Negate _ -> Some (Costmodel.Plain_add, 1)
  | Mul _ -> Some (Costmodel.Cipher_mul, 1)
  | Mul_plain _ | Upscale _ | Downscale _ -> Some (Costmodel.Plain_mul, 1)
  | Mul_rescale _ -> Some (Costmodel.Mul_rescale, 1)
  | Rotate _ -> Some (Costmodel.Rotate, 1)
  | Rotate_fan { amounts; _ } -> Some (Costmodel.Rotate_hoisted, List.length amounts)
  | Rescale _ -> Some (Costmodel.Rescale, 1)
  | Modswitch _ | Modswitch_plain _ -> Some (Costmodel.Modswitch, 1)

let run eval ~waterline_bits t ~inputs =
  let params = Eval.params eval in
  let chain = params.Params.chain in
  let phys = Params.slots params in
  let cts : Eval.ciphertext option array = Array.make t.cipher_buffers None in
  let pts : Eval.plaintext option array = Array.make t.plain_slots None in
  let outputs = Array.make t.output_count [||] in
  let occupied = ref 0 and peak = ref 0 in
  let stats = Hashtbl.create 8 in
  let elapsed = ref 0. in
  let ct b = match cts.(b) with Some c -> c | None -> invalid_arg "Schedule.run: empty buffer" in
  let pt b = match pts.(b) with Some p -> p | None -> invalid_arg "Schedule.run: empty plaintext" in
  let set b c =
    if Option.is_none cts.(b) then begin
      incr occupied;
      peak := max !peak !occupied
    end;
    cts.(b) <- Some c
  in
  (* The logical vector is replicated across the physical register: when the
     execution degree offers more slots than the program declares, rotation
     must still be cyclic in [slot_count], and replication makes the Galois
     rotation of the register exactly that (slot counts and register widths
     are both powers of two). Found by the differential fuzzer: a 4-slot
     rotate executed at n = 16 used to wrap zeros in through the 8-slot
     register. Identity when the register width equals [slot_count]. *)
  let replicate v =
    let len = Array.length v in
    Array.init phys (fun i ->
        let j = i mod t.slot_count in
        if j < len then v.(j) else 0.)
  in
  (* SEAL-style scale alignment before additive operations. *)
  let align a target =
    if Float.abs (Eval.scale a -. target) /. target < 1e-9 then a else Eval.set_scale eval a target
  in
  let step = function
    | Encrypt_input { name; dst } -> (
        match List.assoc_opt name inputs with
        | Some v -> set dst (Eval.encrypt_vector eval ~scale:(Float.exp2 waterline_bits) (replicate v))
        | None -> invalid_arg ("Schedule.run: missing input " ^ name))
    | Encode_imm { value; scale_bits; level; plain_id } ->
        let v = match value with Scalar_imm x -> Array.make phys x | Immediate v -> replicate v in
        pts.(plain_id) <- Some (Eval.encode eval ~level ~scale:(Float.exp2 scale_bits) v)
    | Add { lhs; rhs; dst } ->
        let a = ct lhs in
        set dst (Eval.add eval a (align (ct rhs) (Eval.scale a)))
    | Sub { lhs; rhs; dst } ->
        let a = ct lhs in
        set dst (Eval.sub eval a (align (ct rhs) (Eval.scale a)))
    | Add_plain { lhs; plain; dst } ->
        let p = pt plain in
        set dst (Eval.add_plain eval (align (ct lhs) p.Eval.pt_scale) p)
    | Sub_plain { lhs; plain; dst; reversed } ->
        let p = pt plain in
        let d = Eval.sub_plain eval (align (ct lhs) p.Eval.pt_scale) p in
        set dst (if reversed then Eval.negate eval d else d)
    | Mul { lhs; rhs; dst } -> set dst (Eval.mul eval (ct lhs) (ct rhs))
    | Mul_plain { lhs; plain; dst } -> set dst (Eval.mul_plain eval (ct lhs) (pt plain))
    | Mul_rescale { lhs; rhs; dst } -> set dst (Eval.mul_rescale eval (ct lhs) (ct rhs))
    | Negate { src; dst } -> set dst (Eval.negate eval (ct src))
    | Rotate { src; amount; dst } -> set dst (Eval.rotate eval (ct src) amount)
    | Rotate_fan { src; amounts; dsts } ->
        List.iter2 set dsts (Eval.rotate_many eval (ct src) amounts)
    | Rescale { src; dst } -> set dst (Eval.rescale eval (ct src))
    | Modswitch { src; dst } -> set dst (Eval.mod_switch eval (ct src))
    | Modswitch_plain { plain; dst_plain } ->
        pts.(dst_plain) <- Some (Eval.mod_switch_plain eval (pt plain))
    | Upscale { src; target_scale_bits; dst } ->
        let c = ct src in
        let target = Float.exp2 target_scale_bits in
        let factor = target /. Eval.scale c in
        set dst (if factor < 1.5 then Eval.set_scale eval c target else Eval.upscale eval c ~factor)
    | Downscale { src; waterline_bits; dst } ->
        let c = ct src in
        let lc = Chain.length chain - Eval.level c in
        let q_drop = float_of_int (Chain.prime chain (lc - 1)) in
        (* upscale to S_f * S_w (the rescale prime times the waterline), then
           rescale: the result lands on the waterline up to the rounding of
           the integer multiplier (see DESIGN.md on small-S_f precision) *)
        let factor = q_drop *. Float.exp2 waterline_bits /. Eval.scale c in
        set dst (Eval.rescale eval (Eval.upscale eval c ~factor))
    | Output { src; index } -> outputs.(index) <- Eval.decrypt eval (ct src)
  in
  Array.iter
    (fun instr ->
      match op_class instr with
      | None -> step instr
      | Some (cls, n) ->
          let t0 = Unix.gettimeofday () in
          step instr;
          let dt = Unix.gettimeofday () -. t0 in
          elapsed := !elapsed +. dt;
          let prev = Option.value ~default:{ count = 0; seconds = 0. } (Hashtbl.find_opt stats cls) in
          Hashtbl.replace stats cls { count = prev.count + n; seconds = prev.seconds +. dt })
    t.instructions;
  {
    outputs = Array.to_list outputs;
    elapsed_seconds = !elapsed;
    per_class = Hashtbl.fold (fun cls st acc -> (cls, st) :: acc) stats [];
    peak_live = !peak;
  }
