type config = { sf : float; waterline : float; max_level : int option; max_log_q : float }

let config ?max_level ?(max_log_q = infinity) ~sf ~waterline () =
  if sf <= 0. then invalid_arg "Typing.config: sf must be positive";
  if waterline <= 0. then invalid_arg "Typing.config: waterline must be positive";
  { sf; waterline; max_level; max_log_q }

let eps = 1e-6

(* Remaining log2 modulus after [level] primes have been dropped. The primes
   dropped first are rescaling primes of sf bits each. *)
let remaining_log_q cfg level = cfg.max_log_q -. (float_of_int level *. cfg.sf)

(* A rule that fails raises [Ill] with its diagnostic, so a well-typed op
   allocates nothing beyond its type; [infer] and [check] turn it back into
   an [Error]. *)
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

let arity_error kind = illf ~code:Diagnostic.Arity "%s%s" (Prog.kind_name kind) ": wrong operand count"

(* the rules by operand count: [infer_exn] without building an operand
   array *)
let infer0 cfg (kind : Prog.kind) =
  match kind with
  | Prog.Input _ -> Types.Cipher { scale = cfg.waterline; level = 0 }
  | Prog.Const _ -> Types.Free
  | _ -> arity_error kind

let infer1 cfg (kind : Prog.kind) (a : Types.t) =
  match kind with
  | Prog.Encode { scale; level } -> (
      match a with
      | Types.Free ->
          if scale +. eps < cfg.waterline then
            illf ~code:Diagnostic.Below_waterline
              ~hint:"encode at the waterline scale or above" "encode: scale 2^%.2f below the waterline 2^%.2f (C2)"
              scale cfg.waterline
          else Types.Plain (scaled_result cfg "encode" { scale; level })
      | Types.Plain _ | Types.Cipher _ ->
          illf ~code:Diagnostic.Operand_kind ~hint:"encode applies to const/free values only"
            "encode: operand must be free")
  | Prog.Negate | Prog.Rotate _ -> (
      match a with
      | Types.Free ->
          illf ~code:Diagnostic.Operand_kind
            ~hint:"wrap the free operand in an encode at the consumer's scale and level" "%s%s"
            (Prog.kind_name kind) ": operand must be scaled"
      | Types.Plain s | Types.Cipher s -> retag a a (scaled_result cfg (Prog.kind_name kind) s))
  | Prog.Rescale -> (
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
  | Prog.Modswitch -> (
      match a with
      | Types.Free ->
          illf ~code:Diagnostic.Operand_kind
            ~hint:"wrap the free operand in an encode at the consumer's scale and level"
            "modswitch: operand must be scaled"
      | Types.Plain s | Types.Cipher s ->
          retag a a (scaled_result cfg "modswitch" { s with level = s.level + 1 }))
  | Prog.Upscale { target_scale } -> (
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
  | Prog.Downscale { waterline } -> (
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
  | _ -> arity_error kind

let infer2 cfg (kind : Prog.kind) (a : Types.t) (b : Types.t) =
  match kind with
  | Prog.Add | Prog.Sub ->
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
  | Prog.Mul ->
      let x = scaled_operand "mul" a in
      let y = scaled_operand "mul" b in
      if x.level <> y.level then
        illf ~code:Diagnostic.Level_mismatch
          ~hint:"insert modswitch on the shallower operand to equalize levels"
          "mul: operand levels %d and %d differ (C3)" x.level y.level
      else retag a b (scaled_result cfg "mul" { scale = x.scale +. y.scale; level = x.level })
  | _ -> arity_error kind

let infer_exn cfg kind (args : Types.t array) =
  match args with
  | [||] -> infer0 cfg kind
  | [| a |] -> infer1 cfg kind a
  | [| a; b |] -> infer2 cfg kind a b
  | _ -> arity_error kind

let infer cfg kind args = match infer_exn cfg kind args with ty -> Ok ty | exception Ill d -> Error d

(* Types every op, in program order, on the op itself: an operand that is
   not typed yet reads as free, as it would from a fresh type array. The
   first rule that fails names its op. *)
let check cfg (p : Prog.t) =
  let body = p.Prog.body in
  let n = Array.length body in
  let operand i a =
    if a >= 0 && a < i then (Array.unsafe_get body a).Prog.ty
    else if a >= 0 && a < n then Types.Free
    else invalid_arg "index out of bounds"
  in
  let i = ref 0 in
  match
    while !i < n do
      let o = Array.unsafe_get body !i in
      o.Prog.ty <-
        (match o.Prog.args with
        | [||] -> infer0 cfg o.Prog.kind
        | [| a |] -> infer1 cfg o.Prog.kind (operand !i a)
        | [| a; b |] -> infer2 cfg o.Prog.kind (operand !i a) (operand !i b)
        | _ -> arity_error o.Prog.kind);
      incr i
    done
  with
  | () ->
      let rec outputs = function
        | [] -> Ok ()
        | v :: tl ->
            if Types.is_cipher body.(v).Prog.ty then outputs tl
            else
              Error
                (Diagnostic.at (Prog.op p v)
                   (Diagnostic.v ~code:Diagnostic.Output_not_cipher
                      ~hint:"every returned value must be a ciphertext; check the output list"
                      (Printf.sprintf "output %d is not a ciphertext" v)))
      in
      outputs p.Prog.outputs
  | exception Ill d ->
      let o = body.(!i) in
      let operand_types = Array.to_list (Array.map (operand !i) o.Prog.args) in
      Error (Diagnostic.at o { d with Diagnostic.operand_types })

let check_exn cfg p =
  match check cfg p with
  | Ok () -> ()
  | Error d -> invalid_arg ("Typing.check: " ^ Diagnostic.to_string d)
