(** Content-addressed cache of winning compilation plans and artifacts.

    The SMSE explorer pays its search cost once per (program, config); this
    cache makes that literal across processes and across time. Entries are
    keyed by {!key}: the {!Hecate_ir.Prog.fingerprint} of the canonicalized
    input program combined with every configuration knob that can change
    the produced artifact (scheme, [sf_bits], [waterline_bits],
    [max_epochs]). Alpha-equivalent programs — same DAG up to op order,
    naming, dead derived code and metadata — therefore share one entry,
    and a warm hit returns the {e byte-identical} printed artifact of the
    cold compile without re-running exploration.

    Three layers, and an index in front of them:
    - an in-memory LRU of at most [capacity] entries (near-zero-cost hits);
    - an optional on-disk store (one JSON file per key, written with
      {!Hecate_support.Fileio.write_atomic} so a crash can never leave a
      torn entry) that survives process restarts and feeds the in-memory
      layer on miss; a file that is damaged anyway, or in an older format,
      reads as a miss;
    - single-flight deduplication: N concurrent requests for the same key
      trigger {e one} exploration, the rest park until the result lands
      and share it (origin [Joined]);
    - the text index: every program text {!compile_text}
      has parsed and fingerprinted, with its fingerprint, so a repeated
      text goes straight to its key without being parsed or fingerprinted
      again. It compares whole texts, holds at most {!index_budget} bytes
      (oldest texts leave first) and changes no answer: the key, the entry
      and the origin are those of the parse path.

    A request by text runs in two steps: {!lookup_text} (the index, the
    key and the memory layer: no file, no wait) and, if memory missed,
    {!complete} (disk, single flight, compile). [hecated] answers a
    memory hit on the connection that asked and queues only the second
    step.

    All operations are thread-safe (one internal lock; compilation and
    file I/O run outside it). *)

type entry = {
  key : string;
  fingerprint : string;  (** canonical program fingerprint *)
  structure : string;
      (** {!Hecate_ir.Prog.structural_digest} — the coarse bucket
          [warm_plans] matches "structurally similar" entries by *)
  scheme : Driver.scheme;
  sf_bits : int;
  waterline_bits : float;
  max_epochs : int;
  strategy : string;  (** requested exploration strategy (part of the key) *)
  winner_strategy : string;  (** the strategy that actually won the race *)
  artifact : string;  (** printed managed IR — byte-identical on every hit *)
  params : Paramselect.t;
  estimated_seconds : float;
  plan : int array option;  (** winning explore plan; [None] for EVA/PARS *)
  keyed_plan : (string * int) list;
      (** the winning plan re-keyed by canonical SMU site keys — the
          portable form [warm_plans] serves to structurally similar
          programs *)
  explore_epochs : int;
  explore_plans : int;
  compile_seconds : float;  (** wall-clock of the cold compile *)
}

type origin =
  | Cold  (** computed by this request *)
  | Memory  (** in-memory hit *)
  | Disk  (** loaded from the on-disk store *)
  | Joined  (** shared a concurrent in-flight computation *)

val origin_name : origin -> string

type stats_snapshot = {
  s_hits_memory : int;
  s_hits_disk : int;
  s_misses : int;
  s_joins : int;
  s_evictions : int;
  s_entries : int;  (** current in-memory entry count *)
  s_index_hits : int;
      (** requests whose text was found in the text index, so they were
          neither parsed nor fingerprinted; each also counts as one of the
          hits, misses or joins above *)
  s_index_bytes : int;  (** what the text index holds, against {!index_budget} *)
}

type t

val default_dir : unit -> string option
(** [$HECATE_CACHE_DIR], else [$XDG_CACHE_HOME/hecate], else
    [$HOME/.cache/hecate]; [None] when no environment variable resolves. *)

val create : ?dir:string -> ?capacity:int -> unit -> t
(** [create ~dir ~capacity ()] — [dir] is the on-disk store root (created
    recursively; omit it for a memory-only cache), [capacity] (default
    128) bounds the in-memory layer.
    @raise Invalid_argument if [capacity < 1]. *)

val key :
  ?strategy:string ->
  scheme:Driver.scheme ->
  sf_bits:int ->
  waterline_bits:float ->
  max_epochs:int ->
  Hecate_ir.Prog.t ->
  string
(** The content address: canonical program fingerprint x configuration.
    The default [strategy] ({!Explore.default_strategy}) reproduces the
    PR 7 key byte-for-byte, so existing disk stores stay valid; any other
    strategy gets its own key space (different strategies can win with
    different plans). *)

val warm_plans :
  t ->
  ?limit:int ->
  fingerprint:string ->
  structure:string ->
  scheme:Driver.scheme ->
  sf_bits:int ->
  unit ->
  (string * int) list list
(** Portable (site-keyed) plans of cached entries structurally similar to
    the program at hand, best first: exact-fingerprint matches (alpha
    variants), then {!Hecate_ir.Prog.structural_digest} matches (same kind
    skeleton, different attributes), at most [limit] (default 4). Same
    scheme and [sf_bits] only — plans do not transport across codegens.
    Scans the in-memory layer; call {!preload} after a restart to surface
    the on-disk corpus. Deterministic order (rank, estimate, key). *)

val preload : t -> int
(** Load every on-disk entry into the in-memory layer (up to capacity, in
    filename order) so {!warm_plans} sees the persistent corpus. Returns
    the number of entries loaded; 0 for a memory-only cache. *)

val find : t -> string -> (entry * origin) option
(** Memory first, then disk (a disk hit is promoted into memory). *)

val add : t -> entry -> unit
(** Insert into memory (evicting LRU entries beyond capacity) and persist
    to the on-disk store. Persist failures are warnings, not errors. *)

val find_or_compute : t -> string -> compute:(unit -> entry * bool) -> entry * origin
(** Single-flight lookup: a hit (memory or disk) returns immediately; a
    miss runs [compute] — but at most one [compute] per key is in flight
    at any moment, concurrent requesters for the same key block and share
    the result (origin [Joined]). [compute]'s boolean says whether the
    entry is canonical and should be stored ([true]) or transient
    ([false] — e.g. a budget-truncated exploration whose best-so-far is
    valid for this requester but must not be cached as the answer for the
    key). Waiters receive the entry either way. If [compute] raises,
    every waiter re-raises the same exception and nothing is cached. *)

val compile :
  t ->
  ?pool_size:int ->
  ?run_cold:((unit -> Driver.compiled) -> Driver.compiled) ->
  ?should_stop:(unit -> bool) ->
  ?on_epoch:(strategy:string -> Explore.epoch_trace -> unit) ->
  ?budget_seconds:float ->
  ?strategy:string ->
  ?gate:Explore.gate ->
  scheme:Driver.scheme ->
  sf_bits:int ->
  waterline_bits:float ->
  ?max_epochs:int ->
  Hecate_ir.Prog.t ->
  entry * origin
(** {!Driver.compile} through the cache: compute the key, then
    {!find_or_compute}. [should_stop]/[on_epoch]/[budget_seconds] only
    apply to the requester that actually runs the cold compile.
    [budget_seconds] bounds the exploration wall clock: past it the climb
    stops and returns its best-so-far (anytime semantics). A compile
    truncated by the budget or by [should_stop] is returned to the caller
    but {e not} cached — the key means "the full-budget answer", and a
    truncated plan must not poison it. Exceptions from {!Driver.compile}
    (diagnostics, {!Explore.Cancelled}, gate rejections with code
    [Oracle_rejected]) propagate to every requester of the flight and are
    not cached — so nothing the oracle rejected ever enters the cache.

    [run_cold] runs the cold {!Driver.compile} it is handed (default: on
    the calling thread); [hecated] passes one that runs it on a domain of
    its own. Hits never reach it.

    [strategy] forwards to {!Driver.compile} and is part of the key;
    [gate] re-validates every strategy winner before the entry is built.
    A cold compile warm-starts from {!warm_plans} automatically. *)

val compile_text :
  t ->
  ?pool_size:int ->
  ?run_cold:((unit -> Driver.compiled) -> Driver.compiled) ->
  ?should_stop:(unit -> bool) ->
  ?on_epoch:(strategy:string -> Explore.epoch_trace -> unit) ->
  ?budget_seconds:float ->
  ?strategy:string ->
  ?gate:(Hecate_ir.Prog.t -> Explore.gate) ->
  scheme:Driver.scheme ->
  sf_bits:int ->
  waterline_bits:float ->
  ?max_epochs:int ->
  string ->
  entry * origin
(** {!compile} of a program given as text, through the text index:
    {!lookup_text}, then {!complete} if memory did not answer. An
    indexed text takes its fingerprint from the index and is parsed only
    if its plan must be compiled; any other text is parsed, fingerprinted
    and indexed.
    Either way the key, the entry and the origin are those {!compile}
    gives for the parsed text, and the same counters move. [gate] builds
    the gate from the parsed program, for a cold compile only.
    @raise Hecate_ir.Parser.Parse_error if the text must be parsed and is
    not a program. *)

type pending
(** A request the memory layer could not answer: its key, its
    configuration and its program (parsed on demand). *)

type lookup =
  | Memory_hit of entry  (** answered from memory, counted as a memory hit *)
  | Pending of pending  (** for {!complete} *)

val lookup_text :
  t ->
  ?strategy:string ->
  scheme:Driver.scheme ->
  sf_bits:int ->
  waterline_bits:float ->
  ?max_epochs:int ->
  string ->
  lookup
(** The first step of {!compile_text}: the text index (or a parse,
    fingerprint and index entry for a text it does not hold), the key, and
    the memory layer. It hashes the text once, and moves [index_hits] and,
    on a hit, [hits_memory]. It reads no file and never waits for a
    compile.
    @raise Hecate_ir.Parser.Parse_error if the text is not indexed and is
    not a program. *)

val complete :
  t ->
  ?pool_size:int ->
  ?run_cold:((unit -> Driver.compiled) -> Driver.compiled) ->
  ?should_stop:(unit -> bool) ->
  ?on_epoch:(strategy:string -> Explore.epoch_trace -> unit) ->
  ?budget_seconds:float ->
  ?gate:(Hecate_ir.Prog.t -> Explore.gate) ->
  pending ->
  entry * origin
(** The second step of {!compile_text}, from the key {!lookup_text}
    derived: {!find_or_compute} (memory again, since a compile may have
    landed since the lookup, then disk, single flight and the cold
    compile). The arguments are those of {!compile_text}. *)

val indexed : t -> string -> bool
(** Whether the text index holds this exact text. Counts nothing. *)

val index_budget : int
(** The text index's byte budget (16 MiB), counting each text, its
    fingerprint and a fixed 64 bytes per text. A longer text is never
    indexed. *)

val memory_size : t -> int
val snapshot : t -> stats_snapshot

val entry_to_json : entry -> Hecate_support.Json.t
val entry_of_json : Hecate_support.Json.t -> entry option
(** The on-disk representation, exposed for the serve protocol and tests.
    It carries a format version and a digest of every other field;
    [entry_of_json] is [None] when either does not match, so a damaged
    or older-format file on disk is a miss, never a different entry. *)
