(** Scale-managed programs as flat arrays: what the code generators emit
    into ({!Codegen}), and what the abstract scorer ({!Scorer}) finalizes
    and counts without building a program.

    Op [i] is [code.(i)] over [a0.(i)] and [a1.(i)] (-1 where absent), with
    an integer attribute [iattr] (rotation amount, encode level, an input's
    source id, a constant's class) and a float attribute [fattr] (encode
    scale, upscale target, downscale waterline), the source op it mirrors
    [src] (-1 for the scale management the rules insert), and its type:
    [tag] with [scale] and [level] ([level] -1 for a free value). *)

(** {1 Operation codes} *)

val input : int
val const : int
val encode : int
val add : int
val sub : int
val mul : int
val negate : int
val rotate : int
val rescale : int
val modswitch : int
val upscale : int
val downscale : int
val code_of : Hecate_ir.Prog.kind -> int

(** {1 Type tags} *)

val free : int
val plain : int
val cipher : int

type t = private {
  hashcons : bool;
  mutable n : int; (** ops emitted *)
  mutable code : int array;
  mutable a0 : int array;
  mutable a1 : int array;
  mutable iattr : int array;
  mutable fattr : float array;
  mutable src : int array;
  mutable tag : int array;
  mutable scale : float array;
  mutable level : int array;
  mutable table : int array;
  mutable mask : int;
}

val create : hashcons:bool -> int -> t
(** Room for that many ops, grown as needed. A hash-consing program
    numbers values as [cse] does: {!emit} hands back an equal op already
    there (same code, operands and attributes; float attributes compared as
    [compare] does) instead of adding one, and never merges inputs. *)

val clear : t -> unit
(** Empty it, keeping its storage. *)

val emit : t -> src:int -> int -> int -> int -> int -> float -> int -> float -> int -> int
(** [emit t ~src code a0 a1 iattr fattr tag scale level]: the op's id. *)

val to_prog : t -> Hecate_ir.Prog.t -> outputs:int list -> Hecate_ir.Prog.t
(** The program of the ops, typed, for [source]'s name and slot count: an
    op mirroring a source op takes its kind and provenance.
    @raise Invalid_argument if it does not validate. *)
