(** The SEAL dialect: a fully lowered, buffer-addressed instruction
    schedule, and its executor — the only way programs run.

    The last compilation stage (paper Fig. 3) assigns the instructions
    {!Hecate.Select} picks to a small pool of reusable ciphertext buffers.
    [downscale] and [upscale] run as their concrete SEAL-level
    implementations here, so the executor needs only the primitive RNS-CKKS
    API and makes no decisions of its own. *)

type instruction = Hecate.Select.instruction
(** Selected instructions, their registers renamed to buffers. *)

type t = {
  instructions : instruction array;
  levels : int array; (** the level each instruction runs at ({!Hecate.Select.t}) *)
  cipher_buffers : int; (** ciphertext pool size (= peak liveness of the stream) *)
  plain_slots : int; (** plaintext pool size (= peak liveness of the stream's plaintexts) *)
  output_count : int;
  source_ops : int; (** IR operations lowered *)
  slot_count : int; (** the program's logical slot count *)
}

val lower : Hecate_ir.Prog.t -> t
(** Lower a typed, scale-managed program: {!Hecate.Select.select}, then
    ciphertext buffers and plaintext slots each allocated by
    {!Hecate_ir.Liveness.plan} over the selected stream. Rotations, constants and types must already be legal (run the
    driver first).
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
      (** counts and time per class, charged by {!Hecate.Select.charges};
          an instruction of several classes splits its time in proportion
          to their analytic prices, so the seconds sum to [elapsed_seconds] *)
  peak_live : int; (** peak number of occupied ciphertext buffers *)
}

val run :
  Hecate_ckks.Eval.t ->
  waterline_bits:float ->
  t ->
  inputs:(string * float array) list ->
  report
(** Encrypt the inputs at the waterline scale, run the instructions in
    order, decrypt the outputs. The run allocates its register file once
    (one {!Hecate_ckks.Eval.register} per ciphertext buffer, one
    {!Hecate_ckks.Eval.slot} per plaintext slot, one
    {!Hecate_ckks.Eval.scratch}) and executes every instruction in place
    through the evaluator's destination forms. It keeps no storage in
    [eval], so runs on one evaluator may overlap when each encrypts from
    a stream of its own ({!Hecate_ckks.Eval.restart_encryption}). Inputs and constants are replicated across
    the physical register, so rotations stay cyclic in the program's slot
    count when the ring offers more slots (found by the differential fuzzer
    — see test/corpus/ and docs/TESTING.md). Every instruction but
    [Encrypt_input] and [Output] is timed.
    @raise Invalid_argument on missing inputs or rotation keys. *)
