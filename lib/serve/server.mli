(** The [hecated] job server.

    Schedules compilation jobs from many clients onto a bounded set of
    worker threads, answering through a shared
    {!Hecate.Plancache.t} — so concurrent submissions of
    alpha-equivalent programs collapse into one exploration
    (single-flight) and repeat submissions are warm cache hits. Each
    submission's {!Hecate.Plancache.lookup_text} runs on the thread of
    the connection that sent it: a memory hit is answered there, with
    [accepted] and [done] in one write, and only the rest is queued for
    a worker. A program text the cache has indexed is neither parsed nor
    fingerprinted again; any other text is parsed before the job is
    accepted, so a parse error is answered at once. [accepted] always
    precedes the job's [done].

    Fairness: each connection has its own FIFO (at most
    {!max_queued_jobs} jobs); workers take jobs round-robin across
    connections, so a client that submits a large batch cannot starve an
    interactive one. Memory hits bypass the FIFOs, so one connection's
    jobs may complete out of submission order.

    Connection threads are reused: when its client closes, a thread
    waits for the next connection, and the accept loop starts a thread
    only when none is waiting.

    Cancellation is cooperative and "anytime": a queued job is dropped;
    a running job stops at the next exploration epoch and returns its
    best-so-far plan, which the cache treats as transient (never
    stored). Shutdown — SIGTERM, the [shutdown] op, or client EOF in
    [--stdio] mode — stops admission, drains the queues and joins the
    workers before returning. *)

type t

val create :
  ?pool_size:int -> ?workers:int -> ?oracle:bool -> ?verbose:bool -> Hecate.Plancache.t -> t
(** [create cache] starts [workers] (default 2) job threads immediately.
    When {!Domain.recommended_domain_count} is above 1, each cold compile
    runs on a domain spawned for it, so compiles run in parallel and
    connection threads answer beside them; on one CPU the job thread
    compiles itself. [pool_size] is forwarded to each compile's
    exploration pool: the number of domains one compile computes on, its
    own included ([pool_size - 1] more are spawned per compile, none for
    1). [oracle] (default false) re-validates every
    exploration winner through {!Hecate_fuzz.Oracle.explorer_gate} before
    it is returned or cached; rejected plans surface as [error] events
    with diagnostic code [oracle-rejected].
    @raise Invalid_argument if [workers < 1]. *)

val max_request_bytes : int
(** The longest request line a session reads (32 MiB). A longer line is
    answered with a [parse-error] diagnostic and the connection is closed,
    so a client that never sends a newline cannot grow the daemon's memory
    without bound. *)

val finished_window : int
(** How many finished jobs [status] and [cancel] still answer with their
    final state (1024). A job that finished before them gets an error
    saying it finished and is no longer tracked; an id the server never
    handed out gets "unknown job". *)

val serve : t -> socket_path:string -> unit
(** Bind a Unix-domain stream socket at [socket_path] (replacing a stale
    socket file; refusing to clobber a non-socket), accept connections
    until shutdown is requested, then drain and remove the socket file.
    Installs handlers: SIGTERM requests shutdown, SIGPIPE is ignored.
    @raise Invalid_argument if [socket_path] exists and is not a socket.
    @raise Unix.Unix_error if the socket cannot be bound. *)

val serve_stdio : t -> unit
(** Run one protocol session over stdin/stdout (for tests and piping),
    then drain. Returns on client EOF or the [shutdown] op. *)

val request_shutdown : t -> unit
(** Asynchronously request shutdown: stop admitting jobs, wake idle
    workers, unblock the accept loop. Idempotent; safe from a signal
    handler. Running jobs finish as truncated "anytime" results. *)

val drain : t -> unit
(** {!request_shutdown}, join the worker threads (waits for queued and
    running jobs to settle), and wait until no connection thread is
    waiting for a connection. Idempotent. *)

val max_queued_jobs : int
(** How many jobs one connection may have queued and not yet started
    (256). A submission past it is answered with an [error] naming the
    cap, and nothing is queued. Memory hits never queue, so they never
    count against it. *)

val idle_connection_threads : t -> int
(** Connection threads waiting for the accept loop to hand them a
    connection: 0 after {!drain}. *)
