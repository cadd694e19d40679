(** Running scale-managed programs on the RNS-CKKS evaluator (the paper's
    SEAL backend role): key setup for a compiled program, and
    {!execute}, which lowers the program to the SEAL dialect and runs it
    ({!Schedule.lower}, {!Schedule.run} — the only executor). *)

type class_stat = Schedule.class_stat = { count : int; seconds : float }

type report = Schedule.report = {
  outputs : float array list; (** decrypted slot vectors, one per output *)
  elapsed_seconds : float; (** homomorphic execution only (no encrypt/decrypt) *)
  per_class : (Hecate.Costmodel.op_class * class_stat) list;
  peak_live : int; (** peak number of occupied ciphertext buffers *)
}
val required_rotations : Hecate_ir.Prog.t -> int list
(** Distinct rotation amounts the program needs keys for. *)

val context :
  ?seed:int ->
  ?exec_n:int ->
  params:Hecate.Paramselect.t ->
  rotations:int list ->
  unit ->
  Hecate_ckks.Eval.t
(** Build an evaluator matching the selected parameters at ring degree
    [exec_n] (default: the smallest degree fitting the program's slots —
    this repository executes at reduced, insecure degrees; see DESIGN.md).
    @raise Invalid_argument if [exec_n] cannot hold the slot count or the
    chain. *)

val execute :
  Hecate_ckks.Eval.t ->
  waterline_bits:float ->
  Hecate_ir.Prog.t ->
  inputs:(string * float array) list ->
  report
(** [Schedule.run eval ~waterline_bits (Schedule.lower p) ~inputs]: encrypt
    the inputs at the waterline scale, run the program, decrypt the outputs.
    The program must be typed (compile it with {!Hecate.Driver}).
    @raise Invalid_argument on missing inputs or rotation keys. *)
