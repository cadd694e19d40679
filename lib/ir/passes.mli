(** Generic IR cleanup passes.

    All passes preserve program semantics and never mutate their input
    structurally. Types are not recomputed; run {!Typing.check} afterwards
    if needed.

    {b No-op contract.} A pass that finds nothing to change returns its
    argument physically ([pass p == p]); otherwise it returns a fresh
    program. On managed programs (code generator output) one application
    reaches that point: [pass (pass p) == pass p]. The {!Pass_manager}
    fixpoint relies on this to detect convergence without a structural
    comparison. The exception is {!fold_plain_muls} on unmanaged chains,
    which shortens a chain by one link per application and so needs an
    enclosing [fixpoint].

    These are the raw rewrite functions. They are registered with
    {!Pass_manager} under kebab-case names ([cse], [dce], [constant-fold],
    [fold-rotations], [early-modswitch], [fold-plain-muls], and {!finalize}
    as [finalize] and [finalize-no-ems]); compose them through pipelines
    there — e.g. the standard cleanup pipeline
    ["cse,constant-fold,fixpoint(fold-rotations,dce)"] is
    {!Pass_manager.cleanup} (formerly [default_pipeline] here, whose doc
    had drifted: it claimed "cse, constant_fold, dce" but also ran
    [fold_rotations]). *)

val dce : Prog.t -> Prog.t
(** Remove operations whose value never reaches an output. Input ops are
    kept (they are part of the signature). *)

val cse : Prog.t -> Prog.t
(** Common-subexpression elimination by forward value numbering: operations
    with identical kind and (already-numbered) operands collapse. Float
    attributes and constant payloads compare as [compare] does: [0.] equals
    [-0.] and every NaN equals every NaN; input ops never merge. *)

val constant_fold : Prog.t -> Prog.t
(** Fold homomorphic operations whose operands are all constants, evaluating
    element-wise over the slot vector, then remove what no longer reaches
    an output. A first scan looks for an operation with only constant
    operands; with none, nothing is copied and the pass is {!dce}, which
    hands back a program without dead ops physically. *)

val fold_rotations : Prog.t -> Prog.t
(** Collapse chained rotations: [rotate (rotate x a) b] with a single use
    becomes [rotate x (a+b)] (dropping it entirely when the combined amount
    is a multiple of the slot count), and [rotate x 0] becomes [x]. Each
    rotation costs a key switch, so chains are worth one pass. *)

val fold_plain_muls : Prog.t -> Prog.t
(** Fuse nested multiplications by constants: [mul (mul x c1) c2] with
    [c1], [c2] constant operands becomes [mul x (c1 * c2)] with the product
    folded element-wise at compile time. The batching lowering emits exactly
    this shape — a coefficient multiply wrapped by a slot mask — and each
    fusion saves one ciphertext-plaintext multiply and one level of
    multiplicative depth. Operates on unmanaged IR (constants as direct
    operands); each application shortens a chain by one link, so run it
    under [fixpoint] to flatten longer chains. *)

val early_modswitch : Prog.t -> Prog.t
(** EVA's early-modswitch optimization: a [modswitch] applied to the single
    use of an eligible operation is absorbed into that operation's operands
    (or its attribute, for [encode]), so the operation itself executes at
    the higher — cheaper — level. Applied transitively, to the closure of
    that rule, which one backward analysis finds: each value's base (its
    nearest non-[modswitch] definition) absorbs as many layers as its
    shallowest live use will sit below it once every consumer has absorbed
    its own. One rebuild then emits one [modswitch] per surviving layer,
    however many the input spelled out, at the first point in program order
    that creates it: an explicit [modswitch] of the input, which keeps its
    provenance, or the wrapper an absorbing consumer puts in front of
    itself, one absorption after the other. The result is the program the
    absorption rule reaches when applied one layer at a time until nothing
    moves ([test/oracle] keeps that formulation and checks the two agree),
    so it is idempotent and leaves no duplicate for [cse] to merge. On the
    HECATE searches of SF, HCD, MLP, LeNet-r and PR E2, every candidate's
    reference finalize fixpoint stops after one iteration that changes
    the program and one that confirms it (measured, not guaranteed:
    [test/test_core.ml] checks SF, HCD and MLP). When no
    [modswitch] has a single-use absorbable operand, the input comes back
    physically. Other ops keep their provenance; types are reset. *)

val finalize : early_modswitch:bool -> Prog.t -> Prog.t
(** The post-codegen finalization in one sweep: exactly what
    {!Pass_manager.finalize_reference} returns, that is
    [fixpoint(cse,early-modswitch,cse,constant-fold,dce)] run through the
    pass manager ([fixpoint(cse,constant-fold,dce)] without
    [early_modswitch]): the same program under {!Prog.equal}, the same
    provenance on every op, and the input itself exactly when the
    pipeline hands it back. Each round of the fixpoint is one value
    numbering walk whose redirection and dead-code removal are a single
    rebuild, early-modswitch's analysis and rebuild with the ops it emits
    value-numbered in place of the second [cse], and scans that find
    nothing to fold and nothing dead without copying anything. The round
    that confirms the fixpoint costs early-modswitch's [movable] scan
    alone. [test/oracle] checks it against the pipeline on every
    candidate of the pinned searches.
    @raise Invalid_argument if it has not converged after 64 rounds, where
    the pipeline's fixpoint gives up too. *)
