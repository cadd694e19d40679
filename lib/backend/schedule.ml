module Prog = Hecate_ir.Prog
module Liveness = Hecate_ir.Liveness
module Eval = Hecate_ckks.Eval
module Chain = Hecate_rns.Chain
module Params = Hecate_ckks.Params
module Costmodel = Hecate.Costmodel
module Select = Hecate.Select
module Estimator = Hecate.Estimator
open Select

type instruction = Select.instruction

type t = {
  instructions : instruction array;
  levels : int array;
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

(* Rewrite the plaintext slots an instruction reads through [read] and
   those it writes through [write]. *)
let map_slots ~read ~write = function
  | Encode_imm r -> Encode_imm { r with plain_id = write r.plain_id }
  | Modswitch_plain { plain; dst_plain } ->
      Modswitch_plain { plain = read plain; dst_plain = write dst_plain }
  | Add_plain r -> Add_plain { r with plain = read r.plain }
  | Sub_plain r -> Sub_plain { r with plain = read r.plain }
  | Mul_plain r -> Mul_plain { r with plain = read r.plain }
  | ( Encrypt_input _ | Add _ | Sub _ | Mul _ | Mul_rescale _ | Negate _ | Rotate _ | Rotate_fan _
    | Rescale _ | Modswitch _ | Upscale _ | Downscale _ | Output _ ) as i ->
      i

let accesses map i =
  let reads = ref [] and writes = ref [] in
  let note acc r =
    acc := r :: !acc;
    r
  in
  ignore (map ~read:(note reads) ~write:(note writes) i);
  (List.rev !reads, List.rev !writes)

let regs = accesses map_regs

(* [Liveness.plan] over the stream for the values [map] names, and the
   stream renamed to the planned buffers. *)
let pack map ~values stream =
  let acc = Array.map (accesses map) stream in
  let live =
    Liveness.plan ~num_values:values ~reads:(Array.map fst acc) ~writes:(Array.map snd acc)
  in
  let buffer v = live.Liveness.buffer_of.(v) in
  (Array.map (map ~read:buffer ~write:buffer) stream, max 1 live.Liveness.buffer_count)

(* Selection's virtual registers and plaintext slots are each packed into
   a pool of buffers by linear scan over the stream itself. IR-level
   liveness would be wrong here: a fan defines its later members' values
   at its head, and a fused multiply reads its operands at the Rescale. *)
let lower (p : Prog.t) =
  let s = Select.select p in
  let stream, cipher_buffers = pack map_regs ~values:s.Select.registers s.Select.instructions in
  let instructions, plain_slots = pack map_slots ~values:s.Select.plaintexts stream in
  {
    instructions;
    levels = s.Select.levels;
    cipher_buffers;
    plain_slots;
    output_count = List.length p.Prog.outputs;
    source_ops = Prog.num_ops p;
    slot_count = p.Prog.slot_count;
  }

let pp fmt t =
  Format.fprintf fmt "; %d instructions, %d ciphertext buffers, %d plaintexts (from %d IR ops)@\n"
    (Array.length t.instructions) t.cipher_buffers t.plain_slots t.source_ops;
  Array.iter (fun i -> Format.fprintf fmt "  %a@\n" Select.pp_instruction i) t.instructions

type class_stat = { count : int; seconds : float }

type report = {
  outputs : float array list;
  elapsed_seconds : float;
  per_class : (Costmodel.op_class * class_stat) list;
  counts : Estimator.counts;
  peak_live : int;
}

(* The run owns its storage: one register per ciphertext buffer and one
   slot per plaintext buffer, at the top level's width, and one scratch
   for key switching and the divisions, all allocated here and written in
   place by every instruction. A ciphertext is a view of its buffer's
   register; [Liveness.plan] never lets a step's result share a buffer with
   its operands, so no instruction overwrites what it reads. *)
let run eval ~waterline_bits t ~inputs =
  let params = Eval.params eval in
  let chain = params.Params.chain in
  let phys = Params.slots params in
  let registers = Array.init t.cipher_buffers (fun _ -> Eval.register eval ~level:0) in
  let slots = Array.init t.plain_slots (fun _ -> Eval.slot eval ~level:0) in
  let scratch = Eval.scratch eval ~level:0 in
  (* a downscale's upscaled operand, before its rescale *)
  let between = lazy (Eval.register eval ~level:0) in
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
  (* [set b (f ~dst)] for buffer [b]'s register [dst] *)
  let write b f = set b (f ~dst:registers.(b)) in
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
  (* SEAL-style scale alignment before additive operations: a relabelled
     operand, read in place *)
  let align a target =
    if Float.abs (Eval.scale a -. target) /. target < 1e-9 then a else Eval.set_scale eval a target
  in
  let step = function
    | Encrypt_input { name; dst } -> (
        match List.assoc_opt name inputs with
        | Some v ->
            write dst
              (Eval.encrypt_vector_into eval ~scratch ~scale:(Float.exp2 waterline_bits)
                 (replicate v))
        | None -> invalid_arg ("Schedule.run: missing input " ^ name))
    | Encode_imm { value; scale_bits; level; plain_id } ->
        let v = match value with Prog.Scalar x -> Array.make phys x | Prog.Vector v -> replicate v in
        pts.(plain_id) <-
          Some (Eval.encode_into eval ~dst:slots.(plain_id) ~level ~scale:(Float.exp2 scale_bits) v)
    | Add { lhs; rhs; dst } ->
        let a = ct lhs in
        write dst (Eval.add_into eval a (align (ct rhs) (Eval.scale a)))
    | Sub { lhs; rhs; dst } ->
        let a = ct lhs in
        write dst (Eval.sub_into eval a (align (ct rhs) (Eval.scale a)))
    | Add_plain { lhs; plain; dst } ->
        let p = pt plain in
        write dst (Eval.add_plain_into eval (align (ct lhs) p.Eval.pt_scale) p)
    | Sub_plain { lhs; plain; dst; reversed } ->
        let p = pt plain in
        let d = Eval.sub_plain_into eval ~dst:registers.(dst) (align (ct lhs) p.Eval.pt_scale) p in
        (* negating in place: element-wise, so the register may be both *)
        set dst (if reversed then Eval.negate_into eval ~dst:registers.(dst) d else d)
    | Mul { lhs; rhs; dst } -> write dst (Eval.mul_into eval ~scratch (ct lhs) (ct rhs))
    | Mul_plain { lhs; plain; dst } -> write dst (Eval.mul_plain_into eval (ct lhs) (pt plain))
    | Mul_rescale { lhs; rhs; dst } ->
        write dst (Eval.mul_rescale_into eval ~scratch (ct lhs) (ct rhs))
    | Negate { src; dst } -> write dst (Eval.negate_into eval (ct src))
    | Rotate { src; amount; dst } -> write dst (Eval.rotate_into eval ~scratch (ct src) amount)
    | Rotate_fan { src; amounts; dsts } ->
        let dsts' = List.map (fun b -> registers.(b)) dsts in
        List.iter2 set dsts (Eval.rotate_many_into eval ~scratch ~dsts:dsts' (ct src) amounts)
    | Rescale { src; dst } -> write dst (Eval.rescale_into eval ~scratch (ct src))
    | Modswitch { src; dst } -> write dst (Eval.mod_switch_into eval (ct src))
    | Modswitch_plain { plain; dst_plain } ->
        pts.(dst_plain) <- Some (Eval.mod_switch_plain_into eval ~dst:slots.(dst_plain) (pt plain))
    | Upscale { src; target_scale_bits; dst } ->
        let c = ct src in
        let target = Float.exp2 target_scale_bits in
        let factor = target /. Eval.scale c in
        write dst
          (if factor < 1.5 then fun ~dst -> Eval.set_scale_into eval ~dst c target
           else Eval.upscale_into eval c ~factor)
    | Downscale { src; waterline_bits; dst } ->
        let c = ct src in
        let lc = Chain.length chain - Eval.level c in
        let q_drop = float_of_int (Chain.prime chain (lc - 1)) in
        (* upscale to S_f * S_w (the rescale prime times the waterline), then
           rescale: the result lands on the waterline up to the rounding of
           the integer multiplier (see DESIGN.md on small-S_f precision) *)
        let factor = q_drop *. Float.exp2 waterline_bits /. Eval.scale c in
        let up = Eval.upscale_into eval ~dst:(Lazy.force between) c ~factor in
        write dst (Eval.rescale_into eval ~scratch up)
    | Output { src; index } -> outputs.(index) <- Eval.decrypt eval (ct src)
  in
  (* what ran, counted as the estimator counts it *)
  let counts = Estimator.create ~levels:params.Params.levels in
  let add cls seconds =
    let prev = Option.value ~default:0. (Hashtbl.find_opt stats cls) in
    Hashtbl.replace stats cls (prev +. seconds)
  in
  (* an instruction of several charges splits its time across them in
     proportion to their analytic prices at its level *)
  let analytic = Costmodel.analytic () in
  let price level (cls, count) =
    let num_primes = max 1 (params.Params.levels + 1 - level) in
    float_of_int count *. analytic.Costmodel.cost cls ~num_primes ~n:params.Params.n
  in
  Array.iteri
    (fun k instr ->
      match Select.charges instr with
      | [] -> step instr
      | charges -> (
          let t0 = Unix.gettimeofday () in
          step instr;
          let dt = Unix.gettimeofday () -. t0 in
          elapsed := !elapsed +. dt;
          let level = t.levels.(k) in
          Estimator.charge counts instr ~level;
          match charges with
          | [ (cls, _) ] -> add cls dt
          | _ ->
              let total = List.fold_left (fun a c -> a +. price level c) 0. charges in
              List.iter (fun ((cls, _) as c) -> add cls (dt *. price level c /. total)) charges))
    t.instructions;
  {
    outputs = Array.to_list outputs;
    elapsed_seconds = !elapsed;
    per_class =
      Hashtbl.fold
        (fun cls seconds acc -> (cls, { count = Estimator.class_runs counts cls; seconds }) :: acc)
        stats [];
    counts;
    peak_live = !peak;
  }
