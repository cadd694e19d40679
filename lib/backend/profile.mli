(** Profiled cost model (paper §VI-C): measure each CKKS operation class on
    the real evaluator at every available prime count, producing a
    {!Hecate.Costmodel} table the estimator consumes. Every class and level
    is timed in the same interleaved rounds ({!Hecate_support.Stats.interleave});
    results are cached per (ring degree, chain length) within a process. *)

type probe = {
  cls : Hecate.Costmodel.op_class;
  num_primes : int;
  n : int;
  call : unit -> unit;  (** one operation of the class, set up beforehand *)
}

val probes : Hecate_ckks.Params.t -> probe array
(** One probe per operation class at every level of the chain, on an
    evaluator of their own (rotation keys for step 1), each in the
    destination form {!Hecate_backend.Schedule.run} executes, writing into
    storage made once. The [Rotate_hoisted] probe runs a 3-rotation fan. *)

val table :
  probe array ->
  Hecate_support.Stats.timing ->
  (Hecate.Costmodel.op_class * int * int, float) Hashtbl.t
(** [table probes timing] reads the first [Array.length probes] variants of
    [timing] as the probes, in order, and gives each class's median seconds
    per operation keyed by [(class, num_primes, n)]; [Rotate_hoisted] is the
    median over rounds of (fan − single rotation) / 2. Later variants, timed
    in the same rounds, are not read. *)

val cached_model : ?reps:int -> n:int -> levels:int -> q0_bits:int -> sf_bits:int -> unit -> Hecate.Costmodel.t
(** The {!table} of {!probes} timed in [reps] rounds (default 3), with the
    analytic model as shape-preserving fallback ({!Hecate.Costmodel.of_table}),
    made once per shape. Safe to call from several domains: the cache is
    locked while it is read or filled, so every caller gets the same model. *)
