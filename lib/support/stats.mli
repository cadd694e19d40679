(** Small statistics helpers used by the accuracy and estimator harnesses. *)

val mean : float array -> float
(** Arithmetic mean. @raise Invalid_argument on empty input. *)

val variance : float array -> float
(** Population variance. *)

val rmse : float array -> float array -> float
(** Root-mean-square error between two equal-length vectors. *)

val max_abs_diff : float array -> float array -> float
(** Largest absolute element-wise difference. *)

val geomean : float array -> float
(** Geometric mean of positive values. *)

val relative_error : actual:float -> estimate:float -> float
(** [|estimate - actual| / actual]. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]], nearest-rank on a sorted copy. *)

val median : float array -> float
(** Median on a sorted copy (mean of the middle pair for even lengths).
    @raise Invalid_argument on empty input. *)

val monotonic_now_s : unit -> float
(** Wall-clock seconds, clamped process-wide to be non-decreasing so that
    durations can never come out negative under clock steps. *)

type sampler = int -> float
(** [s k] makes [k] calls of one measured operation and returns the seconds
    they took together. *)

val calls : (unit -> unit) -> sampler
(** [calls f k] times [k] calls of [f] with {!monotonic_now_s}. *)

val staged : (unit -> unit -> unit) -> sampler
(** [staged prepare k] makes [k] calls to [prepare] outside the timer, then
    times the calls they returned: a set-up per call (a fresh cache, say). *)

type timing = {
  samples : float array array;  (** [samples.(v).(r)]: seconds a call, variant [v], round [r] *)
  median : float array;  (** per variant *)
  q1 : float array;  (** per variant, nearest-rank quartiles *)
  q3 : float array;
  speedup : float array;  (** median over rounds of [samples.(0).(r) /. samples.(v).(r)] *)
}

val interleave : ?warmup:int -> ?min_sample_s:float -> rounds:int -> sampler array -> timing
(** [interleave ~rounds variants] samples every variant once per round, in
    order, so that a slow spell of the host lands on all of them alike,
    after [warmup] untimed rounds of one call each (default 1). With a
    positive [min_sample_s], a variant's batch doubles from one call until
    it spans that long, and each of its samples makes that many calls.
    @raise Invalid_argument if [rounds < 1], [warmup < 0] or no variants. *)
