(** HECATE IR programs (paper §IV-A, Fig. 4).

    A program is a single function over packed vectors: an SSA DAG of
    operations in topological order. Each operation defines exactly one
    value, identified by its index-independent integer id. Homomorphic
    operations ([add], [sub], [mul], [negate], [rotate], [const]) mirror the
    plaintext semantics; opaque operations ([rescale], [modswitch],
    [upscale], [downscale], [encode]) only manage scale and level. *)

type value = int
(** Id of the operation defining the value. *)

type const_value = Scalar of float | Vector of float array

type kind =
  | Input of { name : string }
  | Const of { value : const_value }
  | Encode of { scale : float; level : int }
      (** Encode a free operand as a plaintext at the given scale/level. *)
  | Add
  | Sub
  | Mul
  | Negate
  | Rotate of { amount : int } (** positive amounts rotate slots left *)
  | Rescale
  | Modswitch
  | Upscale of { target_scale : float } (** absolute target scale, log2 *)
  | Downscale of { waterline : float }

type provenance = { label : string; context : string list }
(** Where an operation came from in the surface program: [label] names the
    surface construct that emitted it (e.g. ["mul"]),
    [context] is the enclosing combinator chain, outermost first (e.g.
    [["matvec 4x4"]]). Metadata only — ignored by {!equal} and every pass. *)

val provenance_to_string : provenance -> string
(** [context] then [label], joined with [" > "]. *)

val provenance_of_string : string -> provenance option
(** Inverse of {!provenance_to_string}; [None] on an all-blank string. *)

type op = {
  id : value;
  kind : kind;
  args : value array;
  mutable ty : Types.t;
  mutable prov : provenance option;
}

type t = {
  name : string;
  slot_count : int;
  body : op array; (** topological order; [body.(i).id = i] *)
  inputs : value list;
  outputs : value list;
}

val placeholder : op
(** An op that belongs to no program, to pre-size op arrays with. Filling
    a large array with a freshly allocated op instead makes OCaml run a
    minor collection first. *)

val discard : t -> unit
(** [discard p] fills [p]'s body with {!placeholder}, leaving [p] invalid
    but its op records untouched (another program sharing them stays
    valid). A body past 256 words lives in the major heap, and every young
    op stored into it is promoted at the next minor collection, even once
    [p] is dead; after [discard] the body points at no young op. Only
    [p]'s sole owner may call it, and only when dropping [p]. *)

val op : t -> value -> op
(** @raise Invalid_argument on out-of-range ids. *)

val num_ops : t -> int
val iter : (op -> unit) -> t -> unit
val validate : t -> (unit, string) result
(** Structural well-formedness: ids are dense and match indices, operands
    precede uses (topological order), arities are correct, inputs/outputs
    are in range, and the input list names every [input] op exactly once. *)

val equal : t -> t -> bool
(** Structural equality: same name, slot count, operations (id, kind,
    operands), inputs and outputs. Types ([ty]) are ignored — they are
    mutable annotations recomputed by {!Typing.check}. Used by the pass
    manager's fixpoint combinator to detect convergence. *)

val use_counts : t -> int array
(** Number of uses of each value (outputs count as one use each). *)

val users : t -> value list array
(** For each value, ids of the operations that consume it (in order). *)

val kind_name : kind -> string

val canonicalize : t -> t
(** Alpha-normal form: ops renumbered in a deterministic DFS post-order
    from the outputs (operands left-to-right), derived ops unreachable
    from the outputs dropped, the function name and input names replaced
    by positional placeholders ([$0], [$1], ...), provenance and type
    annotations stripped. Declared-but-unused inputs are kept (they shape
    the calling convention). Two programs that differ only in op order,
    dead derived code, naming or metadata canonicalize to {!equal}
    programs. The result is a valid program ({!validate} holds). *)

val canonical_ids : t -> int array
(** The numbering {!canonicalize} assigns: element [v] is the canonical id
    of op [v], or [-1] for derived ops unreachable from the outputs. Two
    alpha-equivalent programs map corresponding ops to equal canonical
    ids — the property the plan cache uses to transport exploration plans
    between structurally matching programs. *)

val fingerprint : t -> string
(** Content hash (hex digest) of {!canonicalize}d structure — the key the
    plan cache addresses compiled artifacts by. Stable across
    print/parse round-trips (with or without provenance or type
    annotations) and across alpha-renaming; floats are hashed by their
    exact binary representation. *)

val structural_digest : t -> string
(** Hash of the canonical {e kind skeleton} only: op kinds and the operand
    graph, with constants, rotation amounts and scales elided. Strictly
    coarser than {!fingerprint} (equal fingerprints imply equal digests) —
    the "structurally similar" bucket warm-started exploration draws plan
    seeds from, since colliding programs have isomorphic SMU graphs. *)

(** Mutable builder for constructing programs. *)
module Builder : sig
  type prog = t
  type t

  val create : ?name:string -> slot_count:int -> unit -> t

  val enter_scope : t -> string -> unit
  (** Push a provenance scope label: every op emitted until the matching
      {!leave_scope} records it. The innermost open scope becomes the op's
      provenance [label]; outer scopes form its [context]. With no open
      scope, ops carry no provenance. *)

  val leave_scope : t -> unit
  (** @raise Invalid_argument if no scope is open. *)

  val in_scope : t -> string -> (unit -> 'a) -> 'a
  (** [in_scope b label f] runs [f] inside the scope, closing it even if
      [f] raises. *)

  val current_prov : t -> provenance option
  (** The provenance an op emitted right now would carry ([None] outside
      any scope) — lets surface layers stamp diagnostics with the chain. *)

  val input : t -> string -> value
  val const_scalar : t -> float -> value
  val const_vector : t -> float array -> value
  val add : t -> value -> value -> value
  val sub : t -> value -> value -> value
  val mul : t -> value -> value -> value
  val negate : t -> value -> value
  val rotate : t -> value -> int -> value
  val output : t -> value -> unit
  val finish : t -> prog
  (** @raise Invalid_argument if the program fails {!validate}. *)
end

module Rewriter : sig
  (** Incremental program rewriting: walk an existing program op by op while
      emitting a new one, with the freedom to insert extra operations around
      any use. *)

  type prog = t
  type t

  val create : prog -> t
  val emit : ?prov:provenance -> t -> kind -> value array -> Types.t -> value
  (** Append a new op with explicit type (and optional provenance); returns
      its id in the new program. *)

  val mapped : t -> value -> value
  (** New id standing for an old value. @raise Not_found before it is set. *)

  val set_mapped : t -> old_value:value -> value -> unit
  (** @raise Invalid_argument if [old_value] is not a value of the source
      program. *)

  val ty : t -> value -> Types.t
  (** Type of a value of the {e new} program.
      @raise Invalid_argument if no op with that id has been emitted. *)

  val finish : t -> prog
  (** Rebuilds with the original outputs (remapped), and releases the
      working array: every later call on the rewriter, [finish] included,
      raises [Invalid_argument].
      @raise Invalid_argument if validation fails. *)
end
