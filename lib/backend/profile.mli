(** Profiled cost model (paper §VI-C): measure each CKKS operation class on
    the real evaluator at every available prime count, producing a
    {!Hecate.Costmodel} table the estimator consumes. Results are cached per
    (ring degree, chain length) within a process.

    Timings are the median of the requested repetitions (via
    {!Hecate_support.Stats.time_median}), which is robust against scheduler
    noise that skews a mean. *)

val measure :
  ?reps:int -> Hecate_ckks.Eval.t -> (Hecate.Costmodel.op_class * int * int, float) Hashtbl.t
(** [measure eval] times every operation class at every level of [eval]'s
    chain, each in the destination form {!Hecate_backend.Schedule.run}
    executes, writing into storage made once. Keys are
    [(class, num_primes, n)]; values are seconds per operation. *)

val model_for : ?reps:int -> Hecate_ckks.Eval.t -> Hecate.Costmodel.t
(** Table-backed model with the analytic model as shape-preserving
    fallback. *)

val cached_model : ?reps:int -> n:int -> levels:int -> q0_bits:int -> sf_bits:int -> unit -> Hecate.Costmodel.t
(** Build (or reuse) a throwaway evaluator for the given shape and profile
    it. Rotation keys for step 1 are included so [Rotate] can be measured. *)
