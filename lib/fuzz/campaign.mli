(** Fuzzing campaign driver: generate, check, shrink, persist, replay.

    A campaign runs [count] independent cases from a master seed; case [i]
    uses seed [seed + i], so any failing case is reproducible in isolation
    with [--seed (seed + i) --count 1]. Failures are shrunk with {!Shrink}
    (preserving the failing check class) and written as self-describing
    [.hec] reproducers whose header comment records the case seed and
    oracle configuration; {!replay} re-runs a reproducer file from that
    header alone, which is how the checked-in corpus under [test/corpus/]
    is replayed as regression tests. *)

type case_failure = {
  index : int;
  case_seed : int;
  failure : Oracle.failure;
  original : Hecate_ir.Prog.t;
  shrunk : Hecate_ir.Prog.t;
  repro_path : string option;  (** where the reproducer was written, if requested *)
}

type report = {
  count : int;
  failures : case_failure list;
  elapsed_seconds : float;
  fan_cases : int;  (** cases some scheme lowered to at least one [Rotate_fan] *)
  fused_cases : int;  (** cases some scheme lowered to at least one [Mul_rescale] *)
}

val run :
  ?gen:Gen.config ->
  ?oracle:Oracle.config ->
  ?transform:(Hecate.Driver.scheme -> Hecate_ir.Prog.t -> Hecate_ir.Prog.t) ->
  ?out_dir:string ->
  ?log:(string -> unit) ->
  seed:int ->
  count:int ->
  unit ->
  report
(** [transform] is the fault-injection hook forwarded to {!Oracle.run}
    (also during shrinking). With [out_dir], each failure's shrunk
    reproducer is written there (the directory is created if missing). *)

val repro_text : case_seed:int -> oracle:Oracle.config -> Oracle.failure -> Hecate_ir.Prog.t -> string
(** The [.hec] reproducer: metadata header + printed program. *)

val write_repro :
  dir:string -> case_seed:int -> oracle:Oracle.config -> Oracle.failure -> Hecate_ir.Prog.t -> string
(** Write {!repro_text} to [dir/fuzz_seed<seed>_<check>.hec]; returns the path. *)

val recorded_class : string -> Oracle.check * Hecate_ir.Diagnostic.code option
(** The failure class a reproducer header records: its check and, when the
    failure carried one, its structured diagnostic code. Replay assertions
    compare against this class (see {!Oracle.same_class}) rather than the
    free-form detail string, so they survive message-wording changes.
    Headers written before codes were recorded yield [None].
    @raise Invalid_argument if the header is missing or lacks [check=]. *)

val replay : ?transform:(Hecate.Driver.scheme -> Hecate_ir.Prog.t -> Hecate_ir.Prog.t) ->
  string -> (unit, Oracle.failure) result
(** [replay path] parses a reproducer file, re-derives its inputs from the
    recorded seed and re-runs the oracle under the recorded configuration.
    [Ok ()] means the historical failure no longer reproduces (the
    regression stays fixed).
    @raise Sys_error if the file cannot be read.
    @raise Invalid_argument if the header is missing or malformed. *)
