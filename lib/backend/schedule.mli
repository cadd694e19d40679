(** The SEAL dialect: a fully lowered, buffer-addressed instruction
    schedule, and its executor — the only way programs run.

    The last compilation stage (paper Fig. 3) turns the scale-managed IR
    into straight-line instructions over a small pool of reusable ciphertext
    buffers. [downscale] and [upscale] are lowered to their concrete
    SEAL-level implementations here, and the two structural optimizations
    decided by {!Hecate_ir.Fusion} become instructions of their own
    ([Rotate_fan], [Mul_rescale]), so the executor needs only the primitive
    RNS-CKKS API and makes no decisions of its own. *)

type operand = Immediate of float array | Scalar_imm of float

type instruction =
  | Encrypt_input of { name : string; dst : int }
  | Encode_imm of { value : operand; scale_bits : float; level : int; plain_id : int }
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
  cipher_buffers : int; (** ciphertext pool size (= peak liveness of the stream) *)
  plain_slots : int; (** plaintext pool size *)
  output_count : int;
  source_ops : int; (** IR operations lowered *)
  slot_count : int; (** the program's logical slot count *)
}

val lower : Hecate_ir.Prog.t -> t
(** Lower a typed, scale-managed program. Rotations, constants and types
    must already be legal (run the driver first). Buffers are allocated by
    {!Hecate_ir.Liveness.plan} over the emitted instruction stream.
    @raise Invalid_argument on free-typed homomorphic operands. *)

val regs : instruction -> int list * int list
(** The ciphertext buffers an instruction reads and writes. *)

val pp : Format.formatter -> t -> unit
(** Human-readable listing. *)

type class_stat = { count : int; seconds : float }

type report = {
  outputs : float array list; (** decrypted slot vectors, one per output *)
  elapsed_seconds : float; (** homomorphic execution only (no encrypt/decrypt) *)
  per_class : (Hecate.Costmodel.op_class * class_stat) list;
      (** time per cost-model class of the instructions that ran: a fused
          multiply under [Mul_rescale], a fan under [Rotate_hoisted] with
          one count per rotation *)
  peak_live : int; (** peak number of occupied ciphertext buffers *)
}

val run :
  Hecate_ckks.Eval.t ->
  waterline_bits:float ->
  t ->
  inputs:(string * float array) list ->
  report
(** Encrypt the inputs at the waterline scale, run the instructions in
    order, decrypt the outputs. Inputs and constants are replicated across
    the physical register, so rotations stay cyclic in the program's slot
    count when the ring offers more slots (found by the differential fuzzer
    — see test/corpus/ and docs/TESTING.md). Every instruction but
    [Encrypt_input] and [Output] is timed.
    @raise Invalid_argument on missing inputs or rotation keys. *)
