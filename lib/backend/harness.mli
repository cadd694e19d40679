(** Evaluation harness: the paper's waterline search (§VII-B).

    For every benchmark and scheme the paper tries 36 waterlines, keeps the
    configurations whose output error stays below a bound (2^-8), and
    reports the fastest. [search] reproduces that: waterlines are ranked by
    estimated latency and executed in that order until one meets the error
    bound — the first hit is by construction the minimum-estimated-latency
    feasible configuration. *)

val default_waterlines : float list
(** 36 log2 waterlines, evenly spaced over [\[10, 27.5\]] (see DESIGN.md for
    why this range differs from a 60-bit-prime SEAL deployment). *)

type selection = {
  scheme : Hecate.Driver.scheme;
  waterline_bits : float;
  compiled : Hecate.Driver.compiled;
  rmse : float;
  max_abs_error : float;
  actual_seconds : float; (** median {!execution} on the in-repo backend *)
  estimated_seconds_exec : float; (** estimate at the executed ring degree *)
  exec_n : int;
  configs_executed : int; (** how many waterlines had to be run *)
}

val cached_context :
  params:Hecate.Paramselect.t -> rotations:int list -> Hecate_ckks.Eval.t
(** Evaluator contexts keyed by chain shape and rotation set: key generation
    dominates sweep time, so the harness shares contexts across
    configurations. Safe to call from several domains: the table is locked
    while it is read or filled. A shared context's encryption stream moves
    with every encryption; {!Hecate_ckks.Eval.restart_encryption} gives a
    caller its own. *)

val execution :
  Hecate_ckks.Eval.t ->
  waterline_bits:float ->
  Hecate_ir.Prog.t ->
  inputs:(string * float array) list ->
  Hecate_support.Stats.sampler
(** Runs of [prog], lowered once, each contributing its
    {!Schedule.report} [elapsed_seconds]: what the estimator prices,
    without encryption and decryption. *)

val search :
  ?waterlines:float list ->
  ?error_bound:float ->
  ?sf_bits:int ->
  ?max_epochs:int ->
  ?use_profiled_model:bool ->
  ?feasible_target:int ->
  scheme:Hecate.Driver.scheme ->
  Hecate_apps.Apps.t ->
  selection option
(** [search ~scheme bench] returns [None] when no waterline meets the error
    bound. Configurations are executed fastest-estimated first until
    [feasible_target] (default 3) feasible ones are found; those are then
    timed in 5 interleaved rounds ({!execution}) and the one with the
    smallest median is returned. Infeasible configurations (compile- or
    run-time scale failures) are skipped, like overflowing configurations
    in the paper's sweep. *)

val estimate_only :
  ?waterlines:float list ->
  ?sf_bits:int ->
  ?max_epochs:int ->
  scheme:Hecate.Driver.scheme ->
  Hecate_apps.Apps.t ->
  (float * Hecate.Driver.compiled) list
(** Estimated latency (at the security-mandated degree) for every waterline
    that compiles, sorted fastest first: the ranking [search] walks. *)
