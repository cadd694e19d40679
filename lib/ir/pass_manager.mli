(** MLIR-style pass management for HECATE IR.

    The registry names every [Prog.t -> Prog.t] rewrite; pipelines compose
    registered passes with sequencing and a [fixpoint(...)] combinator; a
    textual spec syntax round-trips through {!parse}/{!to_string}; and an
    instrumentation layer records per-pass wall time and op-count deltas,
    optionally dumps IR after named passes, and re-verifies the program
    between passes — structurally ({!Prog.validate}) and, on request,
    against the scale type system ({!Typing.check}) — naming the offending
    pass when a check fails.

    Spec grammar (whitespace-insensitive):
    {v
      pipeline ::= item ("," item)*
      item     ::= pass-name | "fixpoint" "(" pipeline ")"
    v}
    e.g. ["cse,constant-fold,fixpoint(fold-rotations,dce)"]. Pass names are
    resolved against the registry at parse time; unknown names are rejected
    with the list of registered passes.

    The built-in passes of {!Passes} are pre-registered under kebab-case
    names: [cse], [dce], [constant-fold], [fold-rotations],
    [early-modswitch], [fold-plain-muls], and the fused finalization
    {!Passes.finalize} as [finalize] ([finalize-no-ems] without
    early-modswitch). *)

type pass = {
  name : string;
  description : string;
  run : Prog.t -> Prog.t;
}

exception Pass_failed of { pass : string; reason : string }
(** Raised when a pass (or a verifier running after it) fails; [pass] names
    the offending pass. *)

val register : ?description:string -> string -> (Prog.t -> Prog.t) -> unit
(** [register name run] adds a pass to the global registry. [run] should
    keep the no-op contract of {!Passes}: return its argument physically
    when it changes nothing, and on its own output ([run (run p) == run
    p]). A [Fixpoint] stops as soon as an iteration returns its input
    physically, and compares with {!Prog.equal} only when a pass returned
    a new program. A pass may reach a fixpoint itself, as [finalize] does;
    it is then one pass execution, timed, verified and dumped once.
    @raise Invalid_argument if [name] is already registered or is not a
    valid spec identifier (lowercase alphanumerics and dashes). *)

val find : string -> pass option
val registered : unit -> pass list
(** All registered passes, sorted by name. *)

(** {1 Pipelines} *)

type pipeline =
  | Pass of string  (** a registered pass, by name *)
  | Seq of pipeline list
  | Fixpoint of pipeline
      (** repeat the body until an iteration returns its input
          physically or, failing that, a program {!Prog.equal} to it,
          which is the result; bounded at 64 iterations *)

val parse : string -> (pipeline, string) result
val parse_exn : string -> pipeline
(** @raise Invalid_argument on a malformed spec or unknown pass name. *)

val to_string : pipeline -> string
(** Canonical spec text; [parse] of the result yields an equivalent
    pipeline. *)

(** {1 Instrumentation} *)

type timing = {
  pass : string;
  runs : int;  (** number of executions (fixpoints re-run their body) *)
  seconds : float;  (** total wall time across runs *)
  ops_delta : int;  (** net op-count change across runs (negative = shrank) *)
}

type stats
(** Mutable, domain-safe accumulator of per-pass timings: the explorer
    finalizes candidate plans on several domains, all charging the same
    accumulator. *)

val create_stats : unit -> stats
val timings : stats -> timing list
(** Snapshot, sorted by descending total wall time. *)

val validate_seconds : stats -> float
(** Total wall time of the verifier's {!Prog.validate} calls charged to
    these stats. It is not part of {!timings}, so the pass rows stay the
    passes' own cost. *)

val pp_timings : Format.formatter -> timing list -> unit
(** Render as the [--timing] table: name, runs, seconds, op delta. *)

type dump_selector = No_dump | Dump_all | Dump_passes of string list

type instrumentation = {
  verify : bool;
      (** run {!Prog.validate} after every pass; a pass that returns the
          program this run last validated (physically) is not checked
          again *)
  typecheck : Typing.config option;
      (** also run {!Typing.check} after every pass (only meaningful on
          scale-managed programs, i.e. during finalization) *)
  dump_after : dump_selector;
  dump : pass:string -> Prog.t -> unit;  (** sink for [dump_after] *)
}

val instrumentation :
  ?verify:bool ->
  ?typecheck:Typing.config ->
  ?dump_after:dump_selector ->
  ?dump:(pass:string -> Prog.t -> unit) ->
  unit ->
  instrumentation
(** Defaults: [verify] true, no typecheck, no dumps, [dump] prints the IR
    to stdout under an [; IR after <pass>] header. *)

(** {1 Running} *)

val run : ?instr:instrumentation -> ?stats:stats -> pipeline -> Prog.t -> Prog.t
(** Execute a pipeline. Without [instr], passes run bare (no verification,
    no dumps); with it, every pass execution is timed into [stats] (when
    given) and followed by the configured verifiers, whose
    {!Prog.validate} time goes to {!validate_seconds}.
    @raise Pass_failed naming the offending pass when a pass raises or a
    verifier rejects its output, and on unknown pass names or a diverging
    [Fixpoint]. *)

(** {1 Standard pipelines} *)

val cleanup : pipeline
(** The frontend cleanup pipeline applied before scale management:
    ["cse,constant-fold,fixpoint(fold-rotations,dce)"]. *)

val finalize : early_modswitch:bool -> pipeline
(** The post-codegen finalization: the one pass [finalize]
    ({!Passes.finalize}; [finalize-no-ems] when [early_modswitch] is
    off). Built once, like every standard pipeline here. *)

val finalize_reference : early_modswitch:bool -> pipeline
(** The pipeline [finalize] fuses, kept as its differential reference:
    ["fixpoint(cse,early-modswitch,cse,constant-fold,dce)"] (without the
    [early-modswitch] element when disabled). *)

val default_pipeline : Prog.t -> Prog.t
(** [run cleanup] with no instrumentation — the replacement for the old
    [Passes.default_pipeline]. *)
