(** Scale management space exploration (paper §VI): a portfolio of search
    strategies over per-edge optimization degrees.

    A plan maps every edge of the SMU graph (or every use-def edge, for the
    naïve baseline of Table III) to a degree: the number of extra
    scale-management operations forced on the values crossing that edge.
    PR 1's steepest-ascent hill climbing is the baseline strategy; this
    module races it against beam search, random-restart annealing and
    estimator-gradient-guided moves under one anytime budget.

    The engine is:

    - {e exception-safe}: an [Invalid_argument] raised by [score] marks
      that one candidate infeasible ([infinity] cost)
      instead of aborting the search — except on the all-zero base plan,
      which must score (a failure there is a hard error);
    - {e parallel}: each strategy's per-epoch candidate batch is evaluated
      concurrently on a {!Hecate_support.Pool} of OCaml 5 domains; the
      scheduler itself is single-threaded round-robin, so strategies never
      nest pool calls;
    - {e memoized}: candidate costs, and only costs, are cached by plan
      contents in a memo
      (a {!Plan_table}, hashed over every entry)
      {e shared by every strategy} — a plan any strategy (or the opening
      base-plan/warm-start batch) has already scored is never recompiled,
      and in particular a strategy's own incumbent is never re-evaluated
      when the memo is warm; a candidate's program is never kept, and
      each winning plan is built once, by [codegen];
    - {e deterministic}: batches are classified cached/fresh before
      dispatch and every winner rule is a pure function of plan costs, so
      parallel and serial runs — and any strategy-registration order —
      return bit-identical winners;
    - {e gated}: when an oracle {!gate} is supplied, every strategy's
      winning plan must pass it before it can be returned (or cached by
      callers); if all strategies are rejected the portfolio raises
      {!Hecate_ir.Diagnostic.Error} with code [Oracle_rejected];
    - {e observable}: every epoch appends an {!epoch_trace} record, tagged
      with its strategy. *)

type plan = int array (** degree per edge *)

type epoch_trace = {
  epoch : int; (** 1-based epoch index, per strategy *)
  candidates : int; (** neighbour plans considered this epoch *)
  cache_hits : int; (** of which were answered from the shared memo *)
  best_cost : float; (** strategy's best cost after this epoch (seconds) *)
  elapsed_seconds : float; (** wall-clock spent on this epoch *)
}

val hook_of_plan : Smu.edge array -> plan -> Codegen.hook
(** Degree lookup for the code generators: the degree of the edge owning a
    given (op, operand) site, 0 elsewhere. The degrees live in one [int
    array] indexed by [2 * op_id + operand] (operands are 0 or 1), sized
    by the edges' sites; applying [hook_of_plan edges] once and the result
    to every plan sizes it once. *)

val hash_plan : plan -> int
(** A non-negative hash that reads every entry of the plan. *)

module Plan_table : Hashtbl.S with type key = plan
(** Tables keyed by plan contents, hashed by {!hash_plan}: the explorer's
    memo, its per-batch duplicate set and the gate's verdicts. *)

val moves_of : plan -> plan list
(** The ±1 neighbourhood of a plan, in the deterministic tie-break order:
    ascending edge index, the -1 move (where legal) before the +1 move.
    Exposed for strategy authors. *)

exception Cancelled
(** Raised when [should_stop] was already true before any work happened
    (no base plan compiled, nothing to return). A stop request that
    arrives {e during} a search instead ends it early and returns the best
    plan found so far (anytime behaviour). *)

(** {1 Strategy registry}

    A strategy is a stepper: a closure advanced one epoch at a time by the
    portfolio's round-robin scheduler. It scores candidates exclusively
    through the [eval] batch function it is constructed with (which is
    memoized, pool-parallel and deterministic) and reports its best plan
    after every epoch. Steppers run on the coordinating domain only. *)

type step = {
  step_plan : plan; (** strategy's best plan after this epoch *)
  step_cost : float;
  step_candidates : int;
  step_hits : int;
  step_improved : bool;
  step_finished : bool; (** converged: the scheduler stops stepping it *)
}

type stepper = unit -> step

type batch_eval = plan array -> float array * int
(** Memoized batch evaluation: costs aligned with the input, plus the
    number of candidates answered from the memo (cached, or duplicated
    within the batch). Infeasible plans cost [infinity]. *)

type strategy_params = {
  beam_width : int; (** beam search width (default 4) *)
  prng_seed : int; (** seed for the annealer's deterministic PRNG *)
  anneal_proposals : int; (** proposals per annealing epoch (default 8) *)
}

type strategy_maker =
  params:strategy_params ->
  eval:batch_eval ->
  edges:Smu.edge array ->
  base:plan * float ->
  seeds:(plan * float) list ->
  stepper
(** [base] is the all-zero plan and its cost; [seeds] are feasible
    warm-start plans (already scored — their costs are in the memo, so
    starting from one costs no evaluation). *)

val register_strategy : name:string -> strategy_maker -> unit
(** Add (or replace) a strategy. The built-ins are ["hill-climb"],
    ["beam"], ["anneal"] and ["gradient"]; registration order never
    matters — the portfolio always runs strategies in name order. *)

val strategy_names : unit -> string list
(** Registered strategy names, sorted. *)

val default_strategy : string
(** ["hill-climb"] — the paper-faithful baseline every driver entry point
    defaults to. *)

val portfolio_name : string
(** ["portfolio"]: the pseudo-strategy name callers use to request every
    registered strategy at once. *)

val known_strategy : string -> bool
(** A registered strategy name, or {!portfolio_name}. *)

(** {1 Oracle gate} *)

type gate_failure = {
  failed_check : string; (** oracle check name, e.g. ["accuracy"] *)
  failed_code : string option; (** diagnostic code name, when one applies *)
  failed_detail : string;
}

type gate_outcome = Not_gated | Gate_passed | Gate_rejected of gate_failure

type gate = strategy:string -> plan:plan -> Hecate_ir.Prog.t -> (unit, gate_failure) Result.t
(** Differential-oracle re-validation of a strategy's winning plan (built
    by [Hecate_fuzz.Oracle.explorer_gate]; Explore only defines the shape
    so lib/core stays independent of the fuzzer). *)

(** {1 Portfolio} *)

type strategy_stats = {
  strategy : string;
  s_best_plan : plan;
  s_best_cost : float;
  s_epochs : int; (** epochs that improved this strategy's best *)
  s_steps : int; (** epochs run *)
  s_trace : epoch_trace list;
  s_gate : gate_outcome;
}

type portfolio_result = {
  p_winner : string; (** winning strategy name *)
  p_best_plan : plan;
  p_best_prog : Hecate_ir.Prog.t; (** [codegen] of [p_best_plan], built once *)
  p_best_cost : float;
  p_strategies : strategy_stats list; (** per strategy, in name order *)
  p_plans_explored : int; (** fresh evaluations across all strategies *)
  p_cache_hits : int; (** answered by the shared memo *)
  p_seeded : bool; (** a warm-start seed beat the all-zero base plan *)
}

val portfolio :
  codegen:(hook:Codegen.hook -> Hecate_ir.Prog.t) ->
  score:(hook:Codegen.hook -> float) ->
  edges:Smu.edge array ->
  ?strategies:string list ->
  ?beam_width:int ->
  ?prng_seed:int ->
  ?anneal_proposals:int ->
  ?max_epochs:int ->
  ?budget_seconds:float ->
  ?pool_size:int ->
  ?should_stop:(unit -> bool) ->
  ?on_epoch:(strategy:string -> epoch_trace -> unit) ->
  ?warm_starts:plan list ->
  ?gate:gate ->
  unit ->
  portfolio_result
(** Race [strategies] (default: every registered strategy; the list is
    deduplicated and sorted, so its order never matters) under one anytime
    budget: [max_epochs] caps each strategy's epochs, [budget_seconds]
    caps the whole race's wall clock, and [should_stop] cancels it — both
    of the latter return the best-so-far (anytime), and only epoch-budget
    runs are bit-deterministic across machines. The base plan and every
    [warm_starts] seed (wrong-length or infeasible seeds are dropped) are
    scored once in a shared opening batch; each strategy starts from the
    best of them. The winner is the lowest-cost strategy whose plan passed
    [gate] (ties to the earliest strategy name); per-strategy outcomes,
    including rejections with their diagnostic code, are in
    [p_strategies].

    [score] prices one candidate; the portfolio keeps the cost and
    nothing else, so a [score] that builds a program may drop it, or
    {!Hecate_ir.Prog.discard} it, before returning. [codegen] builds a
    plan's program: the portfolio calls it once per winning plan (every
    strategy's winner when [gate] is given, the overall winner
    otherwise), after the search, and returns that program untouched to
    [gate] and in [p_best_prog]. [score] must be safe to call
    concurrently from several domains (the in-tree generators and
    estimator qualify).
    [on_epoch] fires on the coordinating domain after every strategy
    epoch — the daemon streams these as per-strategy progress events.
    @raise Cancelled if [should_stop] is true before the base plan runs.
    @raise Invalid_argument if the base plan fails to score,
    or a name in [strategies] is not registered.
    @raise Hecate_ir.Diagnostic.Error with code [Oracle_rejected] if every
    strategy's winning plan failed [gate]. *)
