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
    [fold-rotations], [early-modswitch]); compose them through pipelines
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
    element-wise over the slot vector. *)

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
    the higher — cheaper — level. Applied transitively: the backward
    absorption sweep is iterated internally until no modswitch can move
    (each sweep pushes a modswitch one definition earlier; the iteration
    count is bounded by the program's dataflow depth), so the result is
    idempotent and an enclosing [fixpoint] converges in O(1) iterations
    regardless of program depth. Each sweep emits at most one [modswitch]
    per value, reusing one the program already has, so it never leaves a
    duplicate for [cse] to merge before absorption can go on. On the
    HECATE searches of SF, HCD, MLP, LeNet-r and PR E2, every candidate's
    finalize fixpoint stops after one iteration that changes the program
    and one that confirms it (measured, not guaranteed: [bench/main.exe
    passes] and [test/test_core.ml] check SF, HCD and MLP). Ops keep their
    provenance. *)
