(** The one writer of floats in OCaml's [%h] notation: the exact binary
    value as a hexadecimal significand and a decimal power of two
    ([0x1.8p+1], [-0x0.0000000000001p-1022], [0x0p+0], [infinity],
    [nan]). The output is byte-identical to [Printf.sprintf "%h"] for
    every bit pattern, NaN payloads and signs included; the printed IR and
    the canonical serialization behind {!Prog.fingerprint} both go
    through it. *)

val add : Buffer.t -> float -> unit
(** [add buf x] appends [Printf.sprintf "%h" x] to [buf]. *)

val to_string : float -> string
(** [Printf.sprintf "%h" x]. *)

val read : string -> pos:int -> len:int -> float
(** [read s ~pos ~len] is the float the text [String.sub s pos len]
    denotes when that text is what {!add} writes for a normal float or a
    zero ([-0x1.8p+1], [0x0p+0]), and [nan] for any other text, which the
    caller reads with [float_of_string] instead. Where it answers, it
    answers what [float_of_string] does, to the bit. *)
