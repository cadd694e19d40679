(** Scale-management code generation.

    Two generators rewrite an unmanaged HECATE IR program (homomorphic
    operations only) into a fully typed program satisfying C1-C3:

    - {!waterline} reimplements EVA: reactive fixed-factor rescaling after
      multiplications, level matching by [modswitch], scale matching by
      [upscale];
    - {!pars} is the paper's proactive rescaling algorithm (Algorithm 2):
      encode, rescale analysis, level match (using [downscale] when the
      scale is strictly between the waterline and the rescaling threshold),
      scale match, and the pre-multiplication downscale analysis.

    Both accept a {!hook} so the scale-management space explorer can force
    additional scale-management operations on any operand: the hook returns
    how many extra operations to apply to operand [operand] of original
    operation [op_id]; each forced step picks [rescale], [downscale] or
    [modswitch] from the operand's current scale, as the planner prescribes
    (§VI-A). *)

type hook = op_id:int -> operand:int -> int

val no_hook : hook

(** {1 The rules over flat arrays}

    The rules are written once, over a {!Flat} program they emit into:
    {!waterline} and {!pars} emit into one that keeps every op and build
    the managed program from it; the abstract scorer ({!Scorer}) emits
    into one that hash-conses. *)

type target = { mutable flat : Flat.t; mapped : int array; classes : int array }
(** [flat] receives the ops; [mapped] maps each source value to the value
    standing for it; [classes] gives each source constant its integer
    attribute in [flat] (equal constants share one, so a hash-consing
    [flat] merges them; empty: the constant's own id). *)

val target : Flat.t -> classes:int array -> Hecate_ir.Prog.t -> target

val emit_waterline : Hecate_ir.Typing.config -> hook:hook -> target -> Hecate_ir.Prog.t -> unit
(** Emit the source program's EVA management, mapping every source value.
    @raise Hecate_ir.Diagnostic.Error as {!waterline}. *)

val emit_pars :
  Hecate_ir.Typing.config ->
  hook:hook ->
  downscale_analysis:bool ->
  target ->
  Hecate_ir.Prog.t ->
  unit

(** {1 Building} *)

val waterline : Hecate_ir.Typing.config -> ?hook:hook -> Hecate_ir.Prog.t -> Hecate_ir.Prog.t
(** EVA's waterline rescaling. Surface provenance is carried onto the
    re-emitted operations, so diagnostics on the managed program still name
    the originating combinators.
    @raise Hecate_ir.Diagnostic.Error (code [Already_managed]) if the input
    already contains scale-management operations. *)

val pars :
  Hecate_ir.Typing.config ->
  ?hook:hook ->
  ?downscale_analysis:bool ->
  Hecate_ir.Prog.t ->
  Hecate_ir.Prog.t
(** Proactive rescaling (PARS). Same contract as {!waterline}.
    [downscale_analysis] (default true) enables step (e), the
    pre-multiplication downscale; disabling it is the ablation of
    Algorithm 2's last phase. *)
