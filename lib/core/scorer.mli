(** Scoring an SMSE candidate without building it (paper §VI-C).

    A candidate's estimate needs only how often each (class, level) entry
    of the cost model runs ({!Estimator.counts}). The scorer fills that
    matrix by one abstract pass over the source program under the plan's
    hook, with no program, rewriter or op record built:

    - the code generators' rules ({!Codegen.emit_waterline},
      {!Codegen.emit_pars}) emit into flat arrays ({!Flat}),
      hash-consed as they go, which is [Passes.finalize]'s value numbering
      and the dead-code removal after it;
    - early-modswitch's absorption is run on the arrays to its fixpoint,
      each round numbered as the pass numbers its rebuild;
    - parameter selection reads the types the arrays carry, as
      {!Paramselect.of_prog} reads a checked program's;
    - the count follows {!Select}: {!Hecate_ir.Fusion}'s fused multiplies
      and rotation fans, and the placements it refuses.

    A plan the built pipeline would reject fails here too, with
    [Invalid_argument] or the code generator's own diagnostic. The
    differential test in [test/oracle] checks every candidate of the
    pinned searches, and generated programs, against the built pipeline:
    equal matrices and parameters, and the same plans infeasible. *)

type generator = Waterline | Pars of { downscale_analysis : bool }
(** {!Codegen.waterline} (EVA, SMSE) or {!Codegen.pars} (PARS, HECATE). *)

type t

val create :
  Hecate_ir.Typing.config ->
  generator ->
  early_modswitch:bool ->
  ?q0_bits:int ->
  sf_bits:int ->
  Hecate_ir.Prog.t ->
  t option
(** A scorer for candidates of this (cleaned-up) source program, finalized
    by {!Hecate_ir.Passes.finalize} [~early_modswitch], with parameters
    selected as {!Paramselect.of_prog} [?q0_bits ~sf_bits] does. [None]
    when the source is outside the model: it holds scale-management
    operations, or an op other than an input that nothing uses. *)

val count : t -> hook:Codegen.hook -> Paramselect.t * Estimator.counts
(** The parameters and count matrix of the candidate [hook] plans: those
    {!Paramselect.of_prog} and {!Estimator.counts} give for the built,
    finalized and type-checked candidate. Safe to call from several
    domains at once.
    @raise Invalid_argument or [Hecate_ir.Diagnostic.Error] where building,
    checking or selecting the candidate would fail. *)

val cost : t -> model:Costmodel.t -> hook:Codegen.hook -> float
(** {!Estimator.price} of {!count} at the selected ring degree. *)
