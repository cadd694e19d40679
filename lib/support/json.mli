(** Minimal JSON reading and writing for the in-tree consumers: the bench
    regression gate (BENCH_*.json artifacts), the plan cache's on-disk
    entries, and the [hecated] newline-delimited job protocol.

    Numbers are floats; [render] emits a single line (no embedded
    newlines), so rendered values can be framed by newline-delimited
    transports as-is. Non-finite numbers render as [null]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val max_depth : int
(** How deeply {!parse} nests objects and arrays: 512. *)

val parse : ?pos:int -> ?len:int -> string -> t
(** Parses [s], or its [len] bytes from [pos] (default: all of it).
    @raise Parse_error on malformed input (with the offending offset,
    counted from [pos]), and on objects and arrays nested deeper than
    {!max_depth}. *)

val member : string -> t -> t
(** Field of an object; [Null] when absent or not an object. *)

val to_list : t -> t list
val to_float : t -> float option
val to_int : t -> int option
val to_string : t -> string option
val to_bool : t -> bool option

val render : t -> string
(** Compact single-line rendering; [parse (render v)] is [v] up to float
    formatting. *)

val output : out_channel -> t -> unit
(** Writes what {!render} returns into the channel, without building it
    as a string first; no newline, no flush. *)

val int : int -> t
(** [Num] of an integer. *)
