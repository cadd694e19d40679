(** Top-level compilation driver: the four scale-management schemes of the
    paper's evaluation (§VII-A).

    - [Eva]: waterline rescaling, no exploration (the baseline);
    - [Pars]: proactive rescaling, no exploration;
    - [Smse]: exploration over waterline-rescaling code generation;
    - [Hecate]: exploration over proactive-rescaling code generation. *)

type scheme = Eva | Pars | Smse | Hecate

type exploration_stats = {
  units : int;
  smu_edges : int;
  use_def_edges : int;
  epochs : int; (** winning strategy's improving epochs *)
  plans_explored : int; (** candidate programs actually compiled+evaluated *)
  cache_hits : int; (** candidates answered by the shared plan memo cache *)
  trace : Explore.epoch_trace list;
      (** the winning strategy's per-epoch records, in epoch order *)
  elapsed_seconds : float; (** exploration wall-clock, including the base plan *)
  best_plan : Explore.plan;
      (** the winning per-edge degree assignment — persisted by the plan
          cache so warm-started compilations can skip the climb *)
  strategy : string; (** the winning strategy's name *)
  strategies : Explore.strategy_stats list;
      (** every raced strategy's outcome (best cost, trace, gate verdict),
          in name order — a single-strategy compile has exactly one *)
  keyed_plan : (string * int) list;
      (** [best_plan] re-keyed by canonical SMU-edge site keys (nonzero
          degrees only): the portable form the plan corpus persists, valid
          for any alpha-variant of this program *)
  seeded : bool; (** a warm-start seed beat the all-zero base plan *)
}

type compiled = {
  prog : Hecate_ir.Prog.t; (** finalized, typed *)
  params : Paramselect.t;
  estimated_seconds : float; (** at the security-mandated ring degree *)
  exploration : exploration_stats option; (** for [Smse] and [Hecate] *)
  pass_timings : Hecate_ir.Pass_manager.timing list;
      (** per-pass wall time and op delta over the whole compile, including
          every finalization the explorer ran on candidate plans *)
}

val scheme_name : scheme -> string
val all_schemes : scheme list

val compile :
  ?model:Costmodel.t ->
  ?max_epochs:int ->
  ?naive_exploration:bool ->
  ?q0_bits:int ->
  ?early_modswitch:bool ->
  ?downscale_analysis:bool ->
  ?smu_phases:int ->
  ?pool_size:int ->
  ?passes:Hecate_ir.Pass_manager.pipeline ->
  ?finalize_passes:Hecate_ir.Pass_manager.pipeline ->
  ?instr:Hecate_ir.Pass_manager.instrumentation ->
  ?strategy:string ->
  ?gate:Explore.gate ->
  ?warm_plans:(string * int) list list ->
  ?should_stop:(unit -> bool) ->
  ?on_epoch:(strategy:string -> Explore.epoch_trace -> unit) ->
  scheme ->
  sf_bits:int ->
  waterline_bits:float ->
  Hecate_ir.Prog.t ->
  compiled
(** [compile scheme ~sf_bits ~waterline_bits prog] cleans the input
    ({!Hecate_ir.Pass_manager.cleanup}: CSE, constant folding, rotation
    folding and DCE to fixpoint), applies the scheme, then finalizes
    ({!Hecate_ir.Pass_manager.finalize}: CSE, early-modswitch hoisting,
    constant folding and DCE to fixpoint, in one sweep), type checks and
    selects parameters. [passes] substitutes a different cleanup pipeline
    and [finalize_passes] a different finalization, for every candidate
    (the oracle tests run {!Hecate_ir.Pass_manager.finalize_reference});
    [instr]
    controls inter-pass verification and IR dumps (default: structural
    {!Hecate_ir.Prog.validate} after every pass, no dumps).
    [naive_exploration] replaces SMU edges with raw use-def edges (the
    Table III baseline). The remaining optional flags are ablations:
    [early_modswitch] (default true) toggles EVA's hoisting pass,
    [downscale_analysis] (default true) toggles PARS step (e), and
    [smu_phases] truncates SMU generation (see {!Smu.generate}).
    [pool_size] sets the exploration worker-domain count (see
    {!Explore.portfolio}); every pool size returns the same result.

    The exploring schemes discard every candidate program once it is
    scored ({!Hecate_ir.Prog.discard}), so a pass in [finalize_passes]
    or a dump sink in [instr] that keeps a candidate past its call must
    keep a copy of its body. The returned program, and every program
    [gate] receives, is built apart and never discarded.

    [strategy] picks the exploration strategy for [Smse]/[Hecate]: a name
    from {!Explore.strategy_names} (default {!Explore.default_strategy}),
    or {!Explore.portfolio_name} to race every registered strategy under
    the shared budget. [gate] re-validates every strategy's winning plan
    through the differential oracle before it is returned (construct one
    with [Hecate_fuzz.Oracle.explorer_gate]); if all strategies are
    rejected, compilation fails with code [Oracle_rejected]. [warm_plans]
    are canonical-site-keyed plans from the plan corpus
    ({!exploration_stats.keyed_plan} of previous compiles, via
    [Plancache.warm_plans]); each is re-keyed onto this program's SMU
    edges and seeds every strategy. [should_stop] and [on_epoch] forward
    to {!Explore.portfolio} for the exploring schemes (cancellation /
    wall-clock budgets and streamed per-strategy progress; no-ops for
    [Eva]/[Pars], whose compiles are single-shot).
    @raise Explore.Cancelled if [should_stop] is already true when
    exploration would start.
    @raise Hecate_ir.Diagnostic.Error with code [Oracle_rejected] if
    [gate] rejected every strategy's winning plan.
    @raise Hecate_ir.Diagnostic.Error with code [Already_managed] if the
    input already contains scale-management operations, or with the typing
    code (C1–C3) if the managed program fails the checker.
    @raise Invalid_argument if the configuration itself is infeasible
    (e.g. parameter selection cannot find a supported ring degree). *)

val diagnose : (unit -> 'a) -> ('a, Hecate_ir.Diagnostic.t) result
(** [diagnose f] runs [f] and turns every failure into a diagnostic, the
    one mapping every front end shares: {!Hecate_ir.Diagnostic.Error}
    passes through; a parse error becomes [Parse_error], a pass-manager
    failure and any unexpected exception [Internal], and an
    [Invalid_argument] (an infeasible configuration) or a [Sys_error]
    [Precondition]. {!Explore.Cancelled} is not a failure and is
    re-raised: cancellation is the caller's own signal. *)

val finalize :
  ?q0_bits:int ->
  ?early_modswitch:bool ->
  ?passes:Hecate_ir.Pass_manager.pipeline ->
  ?instr:Hecate_ir.Pass_manager.instrumentation ->
  ?stats:Hecate_ir.Pass_manager.stats ->
  cfg:Hecate_ir.Typing.config ->
  Hecate_ir.Prog.t ->
  Hecate_ir.Prog.t * Paramselect.t
(** The shared post-codegen pipeline, exposed for the explorer and tests.
    Runs [passes] (default {!Hecate_ir.Pass_manager.finalize}
    [~early_modswitch]) under [instr] (default: structural verification
    only), charging pass timings to [stats], then type checks, which
    leaves every op's type on the op, and selects parameters from those
    types ({!Paramselect.of_prog}). *)

val estimate_at : ?model:Costmodel.t -> compiled -> n:int -> float
(** Re-estimate a compiled program's latency at an explicit ring degree
    (used when comparing against actual execution at a reduced degree). *)
