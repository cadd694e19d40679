(** Rotation-network lowering: scalar loop programs to packed vector IR.

    The compilation scheme (HECO-style, PAPERS.md):

    + {b Unroll.} Loop trip counts are compile-time, so the program unrolls
      into a finite set of {e instances} per syntactic store/accumulate
      {e site}, each with concrete element indices. [let] bindings inline.
    + {b Legality.} An exact scalar simulation checks that executing the
      sites one after another (each site's instances batched into vector
      operations) preserves the scalar iteration-order semantics: any
      loop-carried dependence that batching would reorder is rejected with
      a [Precondition] diagnostic naming the array element.
    + {b Vectorize.} Per site, every instance resolves to a template over
      rotated array states and per-instance static coefficients. Instances
      partition by their tuple of rotation amounts — one rotation per
      partition per loaded array, not one per instance — refined so target
      slots stay distinct. Each partition emits: shared [rotate]s (memoized
      program-wide, so repeated amounts cost one op and
      [Eval.rotate_many] hoisting sees one fan), one plaintext coefficient
      vector per static leaf, the combining arithmetic, and a 0/1 mask only
      when the contribution is not provably zero outside its target slots
      (supports are tracked exactly).
    + {b Update.} Accumulations add contributions into the array's packed
      state; stores overwrite via a complement mask, elided when the old
      support is disjoint from (or contained in) the written slots.

    The emitted {!Hecate_ir.Prog.t} is unmanaged — run {!pipeline} to clean
    it up, then any of the four scale-management schemes exactly as for
    hand-written vector programs. *)

type spec =
  | Auto  (** per-array layouts chosen by the rotation-count cost model *)
  | Fixed of Layout.kind  (** one layout for every array (2-D; 1-D is row) *)
  | Naive
      (** one-slot lowering: every scalar instance is its own partition —
          the baseline the batched lowering is benchmarked against *)

val spec_to_string : spec -> string

val spec_of_string : string -> spec option
(** ["auto" | "row" | "col" | "diag" | "naive"]. *)

type lowered = {
  prog : Hecate_ir.Prog.t;  (** unmanaged vector IR *)
  source : Surface.t;
  assignment : Layout.assignment;
  rotations : int;  (** distinct rotation ops emitted (pre-cleanup) *)
  ops : int;  (** total ops emitted (pre-cleanup) *)
  slot_count : int;
}

val lower : ?slot_count:int -> spec:spec -> Surface.t -> (lowered, Hecate_ir.Diagnostic.t) result
(** [slot_count] defaults to the smallest power of two holding every
    ciphertext-carrying array; an explicit value must be a power of two at
    least that large. Fails with [Precondition] on validation errors,
    loop-carried dependences, never-written outputs, or loop nests that
    unroll past 65536 instances. *)

val pipeline : string
(** Recommended cleanup pipeline spec for lowered programs:
    {!Hecate_ir.Pass_manager.cleanup} plus [fold-plain-muls] (mask and
    coefficient plaintext multiplies fuse, recovering multiplicative
    depth). *)

val count_rotations : Hecate_ir.Prog.t -> int
(** Number of [Rotate] ops — the cost-model objective, reported by
    [hecatec batch] and the bench. *)

val pack_input : lowered -> string -> float array -> float array
(** Pack a logical input array (row-major; missing trailing elements zero)
    into a [slot_count]-slot vector per the chosen layout, zero elsewhere —
    the packing convention the emitted program assumes.
    @raise Invalid_argument if the name is not an [Input] array. *)

val decode_output : lowered -> string -> float array -> float array
(** Extract the logical row-major array of an output from a packed slot
    vector. @raise Invalid_argument if the name is not an output. *)
