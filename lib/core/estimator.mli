(** Static performance estimation of a scale-managed program (paper §VI-C).

    The estimate prices what runs: the instructions {!Select} picks for the
    program, each charged through {!Select.charges} — the same classes the
    executed report counts — at the model cost for the number of chain
    primes present at its level, [chain_levels + 1 - level], and the ring
    degree that parameter selection produced. *)

val estimate :
  model:Costmodel.t -> params:Paramselect.t -> n:int -> Hecate_ir.Prog.t -> float
(** [estimate ~model ~params ~n prog] is the predicted execution time in
    seconds of the (typed) program at ring degree [n]. Requires types on the
    ops (run {!Hecate_ir.Typing.check} first).
    @raise Invalid_argument if a charged instruction's operand lacks a
    scaled type, or the program does not select. *)
