(** Wire schema of the [hecated] job protocol.

    Framing is newline-delimited JSON: one value per line in each
    direction, over a Unix-domain stream socket (or stdin/stdout with
    [--stdio]). Requests carry an ["op"] field; server events carry an
    ["event"] field. {!Hecate_support.Json.render} guarantees a rendered
    value contains no raw newline, so lines are the only framing needed.

    Requests:
    - [{"op":"submit","program":TEXT,"scheme":"hecate","sf_bits":28,
        "waterline_bits":20,"max_epochs":100,"budget_seconds":S?,
        "strategy":"portfolio"?,"stream":false}] — everything but
      ["program"] is optional;
    - [{"op":"status","job":N}], [{"op":"cancel","job":N}],
      [{"op":"stats"}], [{"op":"shutdown"}].

    Events: [accepted], [progress] (per exploration epoch, only with
    ["stream":true]), [done] (origin, artifact, params, timings),
    [cancelled], [error], [status], [stats], [bye]. See docs/SERVING.md
    for the full field tables. *)

type submit = {
  program : string;  (** textual .hec program *)
  scheme : Hecate.Driver.scheme;
  sf_bits : int;
  waterline_bits : float;
  max_epochs : int;
  budget_seconds : float option;
      (** exploration wall-clock budget; truncated results are returned
          but not cached (see {!Hecate.Plancache.compile}) *)
  strategy : string option;
      (** exploration strategy name or ["portfolio"]; [None] means the
          server default ({!Hecate.Explore.default_strategy}). Unknown
          names are rejected at parse time. *)
  stream : bool;  (** send a [progress] event per exploration epoch *)
}

type request =
  | Submit of submit
  | Status of int
  | Cancel of int
  | Stats
  | Shutdown

val scheme_of_string : string -> Hecate.Driver.scheme option

val parse_request : ?pos:int -> ?len:int -> string -> (request, string) result
(** Decode one request line: the string, or its [len] bytes from [pos].
    The error string is safe to echo back to the client in an [error]
    event. *)

val render_request : request -> string
(** One line, no trailing newline. [parse_request (render_request r)]
    succeeds for every [r]. *)

(** {1 Server-side events} *)

type reply
(** One server event, rendered only when it is written. *)

val accepted : job:int -> reply

val progress : job:int -> strategy:string -> Hecate.Explore.epoch_trace -> reply
(** One exploration epoch of one racing strategy ([strategy] is the
    epoch's owner, not necessarily the eventual winner). *)

val done_ :
  job:int -> origin:Hecate.Plancache.origin -> wall_seconds:float ->
  Hecate.Plancache.entry -> reply
(** [wall_seconds] is the server-side wall clock of {e this} request —
    near zero on a cache hit — as opposed to the entry's
    [compile_seconds], which is the cost of the cold compile whenever it
    happened. *)

val error : ?job:int -> string -> reply
val cancelled : job:int -> reply
val status : job:int -> state:string -> reply
val stats : jobs:(string * int) list -> cache:Hecate.Plancache.stats_snapshot -> reply
val bye : reply

val line : reply -> string
(** The event's line, no trailing newline. *)

val output : out_channel -> reply -> unit
(** Writes the event's line and its newline into the channel, rendering
    it there ({!Hecate_support.Json.output}) rather than as a string
    first; does not flush. *)

(** {1 Client-side event decoding} *)

type job_result = {
  job : int;
  origin : string;
  fingerprint : string;
  artifact : string;
  wall_seconds : float;  (** server-side wall clock of this request *)
  compile_seconds : float;  (** wall clock of the cold compile that produced the entry *)
  estimated_seconds : float;
  explore_epochs : int;
  winner_strategy : string;  (** the strategy that produced the plan; [""] from old servers *)
  secure_n : int;
}

type event =
  | Accepted of int
  | Progress of { job : int; strategy : string; epoch : int; best_cost : float }
  | Done of job_result
  | Cancelled of int
  | Error of { job : int option; message : string }
  | Status of { job : int; state : string }
  | Stats of Hecate_support.Json.t
  | Bye

val parse_event : string -> (event, string) result
