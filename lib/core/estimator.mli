(** Static performance estimation of a scale-managed program (paper §VI-C).

    The estimate prices what runs: the instructions {!Select} picks for the
    program are counted, each through {!Select.charges} — the same classes
    the executed report counts — into a matrix of how often every (class,
    level) entry runs. The matrix is priced with one dot product against
    the model cost of each entry, for the number of chain primes present at
    its level, [chain_levels + 1 - level], and the ring degree that
    parameter selection produced. Two programs that run the same work have
    equal matrices, and so bit-identical estimates. *)

type counts = private {
  stride : int; (** levels 0 to [stride - 1] *)
  runs : int array; (** [runs.(Costmodel.index cls * stride + level)] *)
}
(** How often each (class, level) entry runs. *)

val create : levels:int -> counts
(** An all-zero matrix for levels 0 to [levels] (a parameter set's
    [chain_levels]). *)

val charge : counts -> Select.instruction -> level:int -> unit
(** Count an instruction's {!Select.charges} at [level].
    @raise Invalid_argument if it charges something and [level] is outside
    the matrix (-1 is an operand without a scaled type). *)

val add : counts -> Costmodel.op_class -> level:int -> int -> unit
(** [add c cls ~level k] counts [k] more runs of [(cls, level)].
    @raise Invalid_argument if [level] is outside the matrix. *)

val counts : params:Paramselect.t -> Hecate_ir.Prog.t -> counts
(** The matrix of what {!Select} picks for a typed program, over
    [params]'s levels. @raise Invalid_argument as {!charge}, or if the
    program does not select. *)

val class_runs : counts -> Costmodel.op_class -> int
(** A class's runs over every level. *)

val equal : counts -> counts -> bool

val to_string : counts -> string
(** The nonzero entries, [class@level=runs], in matrix order. *)

val price : model:Costmodel.t -> params:Paramselect.t -> n:int -> counts -> float
(** Seconds: the sum over the nonzero entries, in matrix order (class by
    class, level by level), of runs times the model cost at ring degree
    [n]. *)

val estimate :
  model:Costmodel.t -> params:Paramselect.t -> n:int -> Hecate_ir.Prog.t -> float
(** [estimate ~model ~params ~n prog] is [price] of [counts]: the predicted
    execution time in seconds of the (typed) program at ring degree [n].
    Requires types on the ops (run {!Hecate_ir.Typing.check} first).
    @raise Invalid_argument if a charged instruction's operand lacks a
    scaled type, or the program does not select. *)
