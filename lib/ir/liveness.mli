(** Liveness analysis and ciphertext-buffer planning (the memory
    optimization of the paper's SEAL dialect).

    Ciphertexts dominate FHE memory consumption; reusing dead ciphertext
    buffers bounds the working set by the peak number of simultaneously live
    values rather than the program length. *)

type t = private {
  last_use : int array; (** index of the final step reading each value, or -1 if unused *)
  buffer_of : int array; (** buffer id assigned to each value *)
  buffer_count : int; (** total buffers needed *)
  peak_live : int; (** maximum number of simultaneously live values *)
}

val plan : num_values:int -> reads:int list array -> writes:int list array -> t
(** Greedy linear-scan assignment over a straight-line stream of steps:
    step [i] reads the values [reads.(i)] and defines [writes.(i)]. Values
    are numbered [0 .. num_values - 1] and each is written once, before it
    is read. A value lives from its write to its last read; one that is
    never read still gets a buffer, released after its own step. A step's
    results never share a buffer with the values it reads. *)

val analyze : Prog.t -> t
(** {!plan} over the (already topologically ordered) program, one step per
    operation. Outputs are treated as live to the end: [last_use] of an
    output is [num_ops]. *)
