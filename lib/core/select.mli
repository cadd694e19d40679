(** Instruction selection for the SEAL dialect: the one definition of what
    runs and what it costs. A scale-managed program becomes straight-line
    instructions over virtual ciphertext registers and plaintext slots; the
    structural optimizations {!Hecate_ir.Fusion} decides become
    [Rotate_fan] and [Mul_rescale]. Pure: no evaluator, no buffers. The
    estimator prices the stream and [Hecate_backend.Schedule] runs it, both
    through {!charges}. *)

type instruction =
  | Encrypt_input of { name : string; dst : int }
  | Encode_imm of { value : Hecate_ir.Prog.const_value; scale_bits : float; level : int; plain_id : int }
      (** stage a plaintext into the plaintext pool *)
  | Add of { lhs : int; rhs : int; dst : int }
  | Sub of { lhs : int; rhs : int; dst : int }
  | Add_plain of { lhs : int; plain : int; dst : int }
  | Sub_plain of { lhs : int; plain : int; dst : int; reversed : bool }
      (** [reversed] computes [plain - cipher] *)
  | Mul of { lhs : int; rhs : int; dst : int } (** includes relinearization *)
  | Mul_plain of { lhs : int; plain : int; dst : int }
  | Mul_rescale of { lhs : int; rhs : int; dst : int }
      (** a fused multiply: relinearized product rescaled in one pass *)
  | Negate of { src : int; dst : int }
  | Rotate of { src : int; amount : int; dst : int }
  | Rotate_fan of { src : int; amounts : int list; dsts : int list }
      (** rotations of one ciphertext by several amounts sharing one
          hoisted decomposition; [dsts] pairs with [amounts] *)
  | Rescale of { src : int; dst : int }
  | Modswitch of { src : int; dst : int }
  | Modswitch_plain of { plain : int; dst_plain : int }
  | Upscale of { src : int; target_scale_bits : float; dst : int }
      (** lowered to an exact constant-one plaintext multiply *)
  | Downscale of { src : int; waterline_bits : float; dst : int }
      (** lowered to upscale-to-[S_f*S_w] followed by rescale *)
  | Output of { src : int; index : int }

type t = {
  instructions : instruction array;
  levels : int array;
      (** the level each instruction runs at: its first operand's (an
          encode's own level), -1 where that operand is untyped *)
  registers : int; (** virtual ciphertext registers the stream defines *)
  plaintexts : int; (** plaintext slots *)
}

val select : Hecate_ir.Prog.t -> t
(** The instructions of a program, in program order (a fan at its first
    rotation, a fused multiply at its rescale, the outputs last). Types
    decide fusion and levels only: an untyped program selects, at level -1.
    @raise Invalid_argument on operands of the wrong kind. *)

val iter : Hecate_ir.Prog.t -> (instruction -> level:int -> unit) -> unit
(** [iter p f] calls [f] on each instruction {!select} returns, in order,
    without building the stream. *)

val charges : instruction -> (Costmodel.op_class * int) list
(** The cost classes an instruction runs, with how many operations of each:
    a reversed [Sub_plain] subtracts and negates, a fan runs one [Rotate]
    and a [Rotate_hoisted] per further amount, and [Upscale]/[Downscale]
    encode their constant on every run. *)

val pp_instruction : Format.formatter -> instruction -> unit
