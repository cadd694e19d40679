(* Whole-program differential check of the fast kernels against the
   reference kernels ([Kernel_ref]): a program compiled as the repository
   benchmark compiles it is keyed from one seed, executed through
   [Interp.execute], and executed again by [run], which walks the same
   lowered instruction stream on [Eval_ref] and encrypts with [Keygen_ref]
   from the same seed. The decrypted outputs must be equal bit for bit, so
   every encryption, key switch, rescale and rotation the program runs
   agrees in every residue. Key generation is checked by test_keygen.
   [check_key_switching] compares the key-switching operations one
   ciphertext at a time at both ends of a chain. *)

module Driver = Hecate.Driver
module Interp = Hecate_backend.Interp
module Schedule = Hecate_backend.Schedule
module Select = Hecate.Select
module Prog = Hecate_ir.Prog
module Params = Hecate_ckks.Params
module Chain = Hecate_rns.Chain
module Poly = Hecate_rns.Poly
module Prng = Hecate_support.Prng
module Eval = Hecate_ckks.Eval
module E = Kernel_ref.Eval_ref
module Apps = Hecate_apps.Apps
module Batch_apps = Hecate_apps.Batch_apps
module Lower = Hecate_batch.Lower

(* [Schedule.run]'s instruction semantics on the reference evaluator,
   without timing or stats. The inputs are encrypted from
   [Prng_ref.create ~seed:(seed lxor 0x7E57)], the stream of a context
   created from [seed]. Returns the decrypted outputs. *)
let run eval ~seed ~waterline_bits (t : Schedule.t) ~inputs =
  let params = Eval.params eval in
  let chain = params.Params.chain in
  let phys = Params.slots params in
  let enc_rng = Keygen_oracle.Prng_ref.create ~seed:(seed lxor 0x7E57) in
  let cts = Array.make t.Schedule.cipher_buffers None in
  let pts = Array.make t.Schedule.plain_slots None in
  let outputs = Array.make t.Schedule.output_count [||] in
  let ct b = Option.get cts.(b) and pt b = Option.get pts.(b) in
  let set b c = cts.(b) <- Some c in
  let replicate v =
    let len = Array.length v in
    Array.init phys (fun i ->
        let j = i mod t.Schedule.slot_count in
        if j < len then v.(j) else 0.)
  in
  let encrypt v =
    let scale = Float.exp2 waterline_bits in
    let p = E.encode eval ~level:0 ~scale (replicate v) in
    let c0, c1 = Keygen_oracle.Keygen_ref.encrypt (Eval.keys eval) enc_rng p.E.poly in
    { E.c0; c1; scale; level = 0 }
  in
  let align a target =
    if Float.abs (a.E.scale -. target) /. target < 1e-9 then a else E.set_scale eval a target
  in
  let step : Select.instruction -> unit = function
    | Encrypt_input { name; dst } -> set dst (encrypt (List.assoc name inputs))
    | Encode_imm { value; scale_bits; level; plain_id } ->
        let v = match value with Prog.Scalar x -> Array.make phys x | Prog.Vector v -> replicate v in
        pts.(plain_id) <- Some (E.encode eval ~level ~scale:(Float.exp2 scale_bits) v)
    | Add { lhs; rhs; dst } ->
        let a = ct lhs in
        set dst (E.add eval a (align (ct rhs) a.E.scale))
    | Sub { lhs; rhs; dst } ->
        let a = ct lhs in
        set dst (E.sub eval a (align (ct rhs) a.E.scale))
    | Add_plain { lhs; plain; dst } ->
        let p = pt plain in
        set dst (E.add_plain eval (align (ct lhs) p.E.pt_scale) p)
    | Sub_plain { lhs; plain; dst; reversed } ->
        let p = pt plain in
        let d = E.sub_plain eval (align (ct lhs) p.E.pt_scale) p in
        set dst (if reversed then E.negate eval d else d)
    | Mul { lhs; rhs; dst } -> set dst (E.mul eval (ct lhs) (ct rhs))
    | Mul_plain { lhs; plain; dst } -> set dst (E.mul_plain eval (ct lhs) (pt plain))
    | Mul_rescale { lhs; rhs; dst } -> set dst (E.mul_rescale eval (ct lhs) (ct rhs))
    | Negate { src; dst } -> set dst (E.negate eval (ct src))
    | Rotate { src; amount; dst } -> set dst (E.rotate eval (ct src) amount)
    | Rotate_fan { src; amounts; dsts } -> List.iter2 set dsts (E.rotate_many eval (ct src) amounts)
    | Rescale { src; dst } -> set dst (E.rescale eval (ct src))
    | Modswitch { src; dst } -> set dst (E.mod_switch eval (ct src))
    | Modswitch_plain { plain; dst_plain } ->
        pts.(dst_plain) <- Some (E.mod_switch_plain eval (pt plain))
    | Upscale { src; target_scale_bits; dst } ->
        let c = ct src in
        let target = Float.exp2 target_scale_bits in
        let factor = target /. c.E.scale in
        set dst (if factor < 1.5 then E.set_scale eval c target else E.upscale eval c ~factor)
    | Downscale { src; waterline_bits; dst } ->
        let c = ct src in
        let lc = Chain.length chain - c.E.level in
        let q_drop = float_of_int (Chain.prime chain (lc - 1)) in
        let factor = q_drop *. Float.exp2 waterline_bits /. c.E.scale in
        set dst (E.rescale eval (E.upscale eval c ~factor))
    | Output { src; index } -> outputs.(index) <- E.decrypt eval (ct src)
  in
  Array.iter step t.Schedule.instructions;
  Array.to_list outputs

(* The inputs the benchmark's synthetic data gives [name]: the app's own,
   or for the lowered matvec its scalar inputs packed into slots. *)
let inputs name =
  match name with
  | "matvec" -> (
      let m = Batch_apps.matvec () in
      match Lower.lower ~spec:Lower.Auto m.Batch_apps.surface with
      | Error d -> Hecate_ir.Diagnostic.error d
      | Ok l -> List.map (fun (n, d) -> (n, Lower.pack_input l n d)) m.Batch_apps.inputs)
  | _ ->
      (List.find (fun (a : Apps.t) -> a.Apps.name = name) (Apps.reduced_suite ())).Apps.inputs

let compiled scheme (t : Modswitch_sweep.target) =
  Driver.compile ~pool_size:1 ?passes:t.Modswitch_sweep.cleanup scheme ~sf_bits:28
    ~waterline_bits:t.Modswitch_sweep.waterline t.Modswitch_sweep.prog

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* [Error] names the first output whose fast and reference values differ,
   under [label]. [prog] is a typed, scale-managed program for [params].
   [reference_seed] (default [seed]) seeds the reference side's
   encryptions. *)
let check_managed ?reference_seed ~seed ~label ~params ~waterline_bits prog ~inputs =
  let rotations = Interp.required_rotations prog in
  let eval = Interp.context ~seed ~params ~rotations () in
  let fast = (Interp.execute eval ~waterline_bits prog ~inputs).Interp.outputs in
  let reference =
    run eval
      ~seed:(Option.value reference_seed ~default:seed)
      ~waterline_bits (Schedule.lower prog) ~inputs
  in
  if List.length fast <> List.length reference then
    Error (Printf.sprintf "%s seed %d: output counts differ" label seed)
  else
    match
      List.find_index (fun (f, r) -> not (same_bits f r)) (List.combine fast reference)
    with
    | None -> Ok (List.length fast)
    | Some i -> Error (Printf.sprintf "%s seed %d: output %d differs" label seed i)

let check_program ?reference_seed ~seed scheme name =
  let t = Modswitch_sweep.standard name in
  let c = compiled scheme t in
  check_managed ?reference_seed ~seed ~label:name ~params:c.Driver.params
    ~waterline_bits:t.Modswitch_sweep.waterline c.Driver.prog ~inputs:(inputs name)

(* Key switching residue for residue at both ends of the chain: [rotate],
   [rotate_many], [mul] and, where a prime remains to drop, [mul_rescale],
   on two ciphertexts at level 0 (every digit) and modulus-switched to the
   last level (one chain prime, where the identity digit is the only one).
   Two chains: a 30-bit base prime with a 31-bit special prime (the
   special prime's transforms take the strict butterflies) and 28-bit
   primes throughout (a 29-bit special prime, lazy butterflies). [Error]
   names the first operation whose fast and reference ciphertexts
   differ. *)
let check_key_switching ~seed =
  let rotations = [ 1; 3; -2 ] in
  let check_chain ~q0_bits =
    let params = Params.create ~n:512 ~q0_bits ~sf_bits:28 ~levels:3 () in
    let eval = Eval.create ~seed params ~rotations in
    let g = Prng.create ~seed in
    let fresh () =
      Eval.encrypt_vector eval ~scale:0x1p24
        (Array.init (Params.slots params) (fun _ -> (2. *. Prng.float01 g) -. 1.))
    in
    let a0 = fresh () and b0 = fresh () in
    let rec down ct level = if Eval.level ct = level then ct else down (Eval.mod_switch eval ct) level in
    let same (r : E.ciphertext) (f : Eval.ciphertext) =
      Poly.equal r.E.c0 f.Eval.c0 && Poly.equal r.E.c1 f.Eval.c1
    in
    let cases level =
      let a = down a0 level and b = down b0 level in
      let ra = E.of_eval a and rb = E.of_eval b in
      [
        ("rotate", [ E.rotate eval ra 3 ], [ Eval.rotate eval a 3 ]);
        ("rotate_many", E.rotate_many eval ra rotations, Eval.rotate_many eval a rotations);
        ("mul", [ E.mul eval ra rb ], [ Eval.mul eval a b ]);
      ]
      @
      if level < Eval.max_level eval then
        [ ("mul_rescale", [ E.mul_rescale eval ra rb ], [ Eval.mul_rescale eval a b ]) ]
      else []
    in
    List.find_map
      (fun level ->
        List.find_map
          (fun (name, reference, fast) ->
            if List.for_all2 same reference fast then None
            else
              Some
                (Printf.sprintf "q0 %d bits, seed %d: %s at level %d differs" q0_bits seed name
                   level))
          (cases level))
      [ 0; Eval.max_level eval ]
  in
  match List.find_map (fun q0_bits -> check_chain ~q0_bits) [ 30; 28 ] with
  | None -> Ok ()
  | Some msg -> Error msg
