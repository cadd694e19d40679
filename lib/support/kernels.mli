(** Runtime kernel selection.

    The RNS hot loops ship in two flavours: the {e fast} kernels (Shoup
    NTT butterflies, in-module reductions, lazily reduced key-switch sums,
    Eval-domain mod-down, allocation-free polynomial ops, optionally
    domain-parallel component loops) and the {e reference} kernels
    ([Modarith] division calls, Coeff-domain mod-down, copy-per-operation)
    they are validated against. Both produce bit-identical results; the reference path exists
    for property tests and for the [bench kernels] before/after comparison.

    The initial mode is fast unless the [HECATE_NAIVE_KERNELS] environment
    variable asks for the reference kernels: [1]/[true]/[yes]/[on] enable
    them, [0]/[false]/[no]/[off] (or unset/empty) keep the fast kernels,
    and any other value enables them {e with a warning on stderr}. *)

val use_naive : unit -> bool
(** True when the reference (division-based) kernels are selected. *)

val with_naive : bool -> (unit -> 'a) -> 'a
(** [with_naive b f] runs [f] with the mode forced to [b], restoring the
    previous mode afterwards (also on exceptions). Not safe to race with
    kernel work on other domains. *)
