(* The hecated job server: accepts newline-delimited JSON requests over a
   Unix-domain socket (or stdin/stdout), answers memory hits on the
   connection that asked, schedules everything else fairly across
   clients, and answers through the content-addressed plan cache.

   Concurrency structure:
   - connection threads, each reading one connection's request lines at a
     time. When its client closes, a connection thread waits for the next
     connection the accept loop hands it; the accept loop starts a thread
     only when none is waiting, so there are as many as the peak number of
     concurrent connections. Waiting threads exit on shutdown.
   - a submission's first step, [Plancache.lookup_text] (the text index,
     or a parse and fingerprint; the key; the memory layer), runs on the
     connection thread. A memory hit is answered there: [accepted] and
     [done] in one write, no queue. Anything else gets [accepted] and
     then joins its connection's FIFO for [Plancache.complete].
   - [workers] systhreads draining the job queues. When the process may
     use more than one CPU, each cold compile runs on a domain spawned for
     it, so compiles run in parallel with each other and never hold the
     runtime lock the connection threads need; on one CPU a second domain
     buys no parallelism and only makes every minor collection stop both,
     so the worker thread compiles itself. The compile's exploration pool
     ([pool_size]) counts that domain and spawns [pool_size - 1] more —
     threads give cheap blocking I/O concurrency, domains give the compute
     parallelism.
   - fair admission: every client (connection) has its own FIFO, of at
     most [max_queued_jobs] jobs; a round-robin ready list picks the next
     client, so one client submitting 100 jobs cannot starve another
     submitting 1. Memory hits bypass the FIFOs, so one connection's jobs
     may complete out of submission order.

   Replies are rendered straight into the connection's channel, and
   request lines are read into a buffer the connection thread keeps and
   decoded in place.

   Cancellation is cooperative and "anytime": cancelling a queued job
   drops it; cancelling a running job stops the exploration at the next
   epoch boundary and returns the best plan found so far (which the
   cache then treats as transient — see Plancache.compile). Shutdown
   (SIGTERM or the [shutdown] op) stops admission, lets the queues
   drain, and joins the workers. *)

module Prog = Hecate_ir.Prog
module Diagnostic = Hecate_ir.Diagnostic
module Driver = Hecate.Driver
module Plancache = Hecate.Plancache
module Explore = Hecate.Explore
module Oracle = Hecate_fuzz.Oracle

type job_state = Queued | Running | Done | Failed | Cancelled

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed -> "failed"
  | Cancelled -> "cancelled"

type job = {
  id : int;
  client : int;
  submit : Protocol.submit;
  pending : Plancache.pending;
      (* the key the lookup derived, and the program: a text the cache has
         indexed is parsed only if its plan must be compiled *)
  lookup_seconds : float;  (* the lookup on the connection thread, part of [wall_seconds] *)
  cancel : bool Atomic.t;
  mutable state : job_state;  (* guarded by the server mutex *)
  send : Protocol.reply list -> unit;  (* best-effort lines to the owning connection *)
}

type t = {
  cache : Plancache.t;
  pool_size : int option;
  compile_domain : bool;  (* run each cold compile on a domain of its own *)
  oracle : bool;  (* gate every exploration winner through the differential oracle *)
  verbose : bool;
  mutex : Mutex.t;
  work : Condition.t;
  queues : (int, job Queue.t) Hashtbl.t;  (* client id -> its FIFO, while it is non-empty *)
  ready : int Queue.t;  (* round-robin over clients with work *)
  jobs : (int, job) Hashtbl.t;  (* live (queued or running) jobs *)
  finished : (int, job_state) Hashtbl.t;
      (* final state of the last [finished_window] finished jobs: a job's
         program, request and connection are released as soon as it ends *)
  finished_order : int Queue.t;  (* the ids in [finished], oldest first *)
  stopping : bool Atomic.t;
  mutable admitting : int;
      (* jobs accepted but not yet queued: a stopping worker waits for them *)
  handoff : Unix.file_descr Queue.t;  (* accepted connections for waiting threads *)
  handoff_ready : Condition.t;
  mutable waiting : int;  (* connection threads waiting for a connection *)
  waiters_gone : Condition.t;
  mutable next_job : int;
  mutable next_client : int;
  mutable workers : Thread.t list;
  mutable listen_fd : Unix.file_descr option;
  mutable submitted : int;
  mutable completed : int;
  mutable failed : int;
  mutable cancelled : int;
}

(* How many finished jobs [status] and [cancel] still name by their final
   state. Ids are handed out in order and never reused, so a known id that
   is neither live nor in the window finished before the window's oldest. *)
let finished_window = 1024

(* The most jobs one connection may have queued and not yet started. *)
let max_queued_jobs = 256

let log t fmt =
  if t.verbose then Printf.eprintf ("hecated: " ^^ fmt ^^ "\n%!")
  else Printf.ifprintf stderr fmt

(* Under t.mutex: a new job id. *)
let new_job_locked t =
  let id = t.next_job in
  t.next_job <- id + 1;
  t.submitted <- t.submitted + 1;
  id

(* Under t.mutex: job [id] ended in [state]. *)
let finished_locked t id state =
  Hashtbl.replace t.finished id state;
  Queue.push id t.finished_order;
  if Queue.length t.finished_order > finished_window then
    Hashtbl.remove t.finished (Queue.pop t.finished_order);
  match state with
  | Done -> t.completed <- t.completed + 1
  | Failed -> t.failed <- t.failed + 1
  | Cancelled -> t.cancelled <- t.cancelled + 1
  | Queued | Running -> ()

(* ------------------------------------------------------------------ *)
(* Job execution                                                        *)
(* ------------------------------------------------------------------ *)

let run_job t job =
  let finish state =
    Mutex.lock t.mutex;
    Hashtbl.remove t.jobs job.id;
    finished_locked t job.id state;
    Mutex.unlock t.mutex
  in
  if Atomic.get job.cancel then begin
    finish Cancelled;
    job.send [ Protocol.cancelled ~job:job.id ]
  end
  else begin
    Mutex.lock t.mutex;
    job.state <- Running;
    Mutex.unlock t.mutex;
    let s = job.submit in
    let t0 = Unix.gettimeofday () in
    let on_epoch =
      if s.Protocol.stream then
        Some (fun ~strategy tr -> job.send [ Protocol.progress ~job:job.id ~strategy tr ])
      else None
    in
    let gate =
      if t.oracle then
        Some
          (fun prog ->
            Oracle.explorer_gate ~sf_bits:s.Protocol.sf_bits
              ~waterline_bits:s.Protocol.waterline_bits prog)
      else None
    in
    let run_cold =
      if t.compile_domain then Some (fun f -> Domain.join (Domain.spawn f)) else None
    in
    match
      Driver.diagnose (fun () ->
          Plancache.complete t.cache ?pool_size:t.pool_size ?run_cold
            ~should_stop:(fun () -> Atomic.get job.cancel || Atomic.get t.stopping)
            ?on_epoch ?gate ?budget_seconds:s.Protocol.budget_seconds job.pending)
    with
    | Ok (entry, origin) ->
        let wall = job.lookup_seconds +. (Unix.gettimeofday () -. t0) in
        finish Done;
        log t "job %d done (%s, %.4f s)" job.id (Plancache.origin_name origin) wall;
        job.send [ Protocol.done_ ~job:job.id ~origin ~wall_seconds:wall entry ]
    | exception Explore.Cancelled ->
        finish Cancelled;
        job.send [ Protocol.cancelled ~job:job.id ]
    | Error d ->
        finish Failed;
        job.send [ Protocol.error ~job:job.id (Format.asprintf "%a" Diagnostic.pp d) ]
  end

let worker_loop t =
  let rec next () =
    Mutex.lock t.mutex;
    let rec wait () =
      if Queue.is_empty t.ready then
        if Atomic.get t.stopping && t.admitting = 0 then begin
          Mutex.unlock t.mutex;
          None
        end
        else begin
          Condition.wait t.work t.mutex;
          wait ()
        end
      else begin
        let client = Queue.pop t.ready in
        (* invariant: a client is in [ready] iff it has a queue, and it
           has one iff that queue is non-empty *)
        let q = Hashtbl.find t.queues client in
        let job = Queue.pop q in
        if Queue.is_empty q then Hashtbl.remove t.queues client else Queue.push client t.ready;
        Mutex.unlock t.mutex;
        Some job
      end
    in
    match wait () with
    | None -> ()
    | Some job ->
        run_job t job;
        next ()
  in
  next ()

(* ------------------------------------------------------------------ *)
(* Construction / shutdown                                              *)
(* ------------------------------------------------------------------ *)

let create ?pool_size ?(workers = 2) ?(oracle = false) ?(verbose = false) cache =
  if workers < 1 then invalid_arg "Server.create: workers must be >= 1";
  let t =
    {
      cache;
      pool_size;
      compile_domain = Domain.recommended_domain_count () > 1;
      oracle;
      verbose;
      mutex = Mutex.create ();
      work = Condition.create ();
      queues = Hashtbl.create 7;
      ready = Queue.create ();
      jobs = Hashtbl.create 64;
      finished = Hashtbl.create 64;
      finished_order = Queue.create ();
      stopping = Atomic.make false;
      admitting = 0;
      handoff = Queue.create ();
      handoff_ready = Condition.create ();
      waiting = 0;
      waiters_gone = Condition.create ();
      next_job = 1;
      next_client = 1;
      workers = [];
      listen_fd = None;
      submitted = 0;
      completed = 0;
      failed = 0;
      cancelled = 0;
    }
  in
  t.workers <- List.init workers (fun _ -> Thread.create worker_loop t);
  t

let request_shutdown t =
  if not (Atomic.exchange t.stopping true) then begin
    Mutex.lock t.mutex;
    Condition.broadcast t.work;
    Condition.broadcast t.handoff_ready;
    Mutex.unlock t.mutex;
    (* unblock the accept loop, if one is running *)
    match t.listen_fd with
    | Some fd -> ( try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    | None -> ()
  end

let drain t =
  request_shutdown t;
  List.iter Thread.join t.workers;
  t.workers <- [];
  Mutex.lock t.mutex;
  while t.waiting > 0 do
    Condition.wait t.waiters_gone t.mutex
  done;
  Mutex.unlock t.mutex

let idle_connection_threads t =
  Mutex.lock t.mutex;
  let n = t.waiting in
  Mutex.unlock t.mutex;
  n

(* ------------------------------------------------------------------ *)
(* Request handling                                                     *)
(* ------------------------------------------------------------------ *)

let shutting_down = "server is shutting down; submission rejected"

(* The lookup runs here, on the connection's thread: a memory hit is
   answered at once, with [accepted] and [done] in one write. Any other
   request is answered [accepted] before any worker can see it, so that
   [accepted] precedes its [done], and then joins the connection's FIFO.
   A text the cache has not indexed is parsed here, so that a parse error
   is answered before the job is accepted. *)
let submit t ~client ~send (s : Protocol.submit) =
  let reject message = send [ Protocol.error message ] in
  let t0 = Unix.gettimeofday () in
  let queued () =
    match Hashtbl.find_opt t.queues client with Some q -> Queue.length q | None -> 0
  in
  if Atomic.get t.stopping then reject shutting_down
  else
    match
      Driver.diagnose (fun () ->
          Plancache.lookup_text t.cache ?strategy:s.Protocol.strategy ~scheme:s.Protocol.scheme
            ~sf_bits:s.Protocol.sf_bits ~waterline_bits:s.Protocol.waterline_bits
            ~max_epochs:s.Protocol.max_epochs s.Protocol.program)
    with
    | Error d -> reject (Format.asprintf "%a" Diagnostic.pp d)
    | Ok lookup -> (
        Mutex.lock t.mutex;
        match lookup with
        | _ when Atomic.get t.stopping ->
            Mutex.unlock t.mutex;
            reject shutting_down
        | Plancache.Memory_hit entry ->
            let id = new_job_locked t in
            finished_locked t id Done;
            Mutex.unlock t.mutex;
            let wall = Unix.gettimeofday () -. t0 in
            log t "job %d from client %d answered from memory (%.4f s)" id client wall;
            send
              [
                Protocol.accepted ~job:id;
                Protocol.done_ ~job:id ~origin:Plancache.Memory ~wall_seconds:wall entry;
              ]
        | Plancache.Pending _ when queued () >= max_queued_jobs ->
            Mutex.unlock t.mutex;
            reject
              (Printf.sprintf
                 "this connection already has %d jobs queued, the most one connection may \
                  queue; submission rejected"
                 max_queued_jobs)
        | Plancache.Pending pending ->
            let id = new_job_locked t in
            let job =
              {
                id;
                client;
                submit = s;
                pending;
                lookup_seconds = Unix.gettimeofday () -. t0;
                cancel = Atomic.make false;
                state = Queued;
                send;
              }
            in
            Hashtbl.replace t.jobs id job;
            t.admitting <- t.admitting + 1;
            Mutex.unlock t.mutex;
            send [ Protocol.accepted ~job:id ];
            Mutex.lock t.mutex;
            t.admitting <- t.admitting - 1;
            (match Hashtbl.find_opt t.queues client with
            | Some q -> Queue.push job q
            | None ->
                let q = Queue.create () in
                Queue.push job q;
                Hashtbl.replace t.queues client q;
                Queue.push client t.ready);
            (* a stopping worker may be waiting for this admission *)
            if Atomic.get t.stopping then Condition.broadcast t.work else Condition.signal t.work;
            Mutex.unlock t.mutex;
            log t "job %d accepted from client %d (%s, %d bytes)" id client
              (Driver.scheme_name s.Protocol.scheme)
              (String.length s.Protocol.program))

let job_counts t =
  (* under t.mutex; finished jobs have left [t.jobs] *)
  let queued = ref 0 and running = ref 0 in
  Hashtbl.iter
    (fun _ j ->
      match j.state with
      | Queued -> incr queued
      | Running -> incr running
      | Done | Failed | Cancelled -> ())
    t.jobs;
  [
    ("submitted", t.submitted);
    ("queued", !queued);
    ("running", !running);
    ("completed", t.completed);
    ("failed", t.failed);
    ("cancelled", t.cancelled);
  ]

(* What [status] and [cancel] know of a job id: its state (and the job
   while it is live), that it finished before the window, or nothing. *)
type lookup = Tracked of job_state * job option | Untracked | Unknown

let lookup t id =
  Mutex.lock t.mutex;
  let found =
    match Hashtbl.find_opt t.jobs id with
    | Some j -> Tracked (j.state, Some j)
    | None -> (
        match Hashtbl.find_opt t.finished id with
        | Some st -> Tracked (st, None)
        | None -> if id >= 1 && id < t.next_job then Untracked else Unknown)
  in
  Mutex.unlock t.mutex;
  found

let not_tracked id =
  Protocol.error ~job:id
    (Printf.sprintf "job %d finished and is no longer tracked (the server keeps the last %d)" id
       finished_window)

let unknown id = Protocol.error ~job:id (Printf.sprintf "unknown job %d" id)

(* Handles the request line [line.[pos .. pos + len - 1]]. Returns [false]
   when the connection should close (shutdown). *)
let handle_line t ~client ~send line pos len =
  match Protocol.parse_request ~pos ~len line with
  | Error msg ->
      send [ Protocol.error msg ];
      true
  | Ok (Protocol.Submit s) ->
      submit t ~client ~send s;
      true
  | Ok (Protocol.Status id) ->
      send
        [
          (match lookup t id with
          | Tracked (st, _) -> Protocol.status ~job:id ~state:(state_name st)
          | Untracked -> not_tracked id
          | Unknown -> unknown id);
        ];
      true
  | Ok (Protocol.Cancel id) ->
      send
        [
          (match lookup t id with
          | Tracked (_, job) ->
              (* a finished job gets the same reply; it has nothing left to stop *)
              Option.iter (fun j -> Atomic.set j.cancel true) job;
              Protocol.status ~job:id ~state:"cancelling"
          | Untracked -> not_tracked id
          | Unknown -> unknown id);
        ];
      true
  | Ok Protocol.Stats ->
      Mutex.lock t.mutex;
      let jobs = job_counts t in
      Mutex.unlock t.mutex;
      send [ Protocol.stats ~jobs ~cache:(Plancache.snapshot t.cache) ];
      true
  | Ok Protocol.Shutdown ->
      send [ Protocol.bye ];
      request_shutdown t;
      false

(* On disconnect, flag the client's still-queued jobs as cancelled so the
   workers skip them instead of compiling for nobody. *)
let forget_client t client =
  Mutex.lock t.mutex;
  (match Hashtbl.find_opt t.queues client with
  | None -> ()
  | Some q -> Queue.iter (fun j -> Atomic.set j.cancel true) q);
  Mutex.unlock t.mutex

let fresh_client t =
  Mutex.lock t.mutex;
  let id = t.next_client in
  t.next_client <- id + 1;
  Mutex.unlock t.mutex;
  id

(* ------------------------------------------------------------------ *)
(* Transports                                                           *)
(* ------------------------------------------------------------------ *)

(* A connection's reply channel. Workers reply on it after the connection
   thread may have moved on, so it is closed under the same lock: a reply
   to a closed connection then fails as a write to a closed channel, and
   cannot reach a later connection given the same descriptor. *)
type conn = { oc : out_channel; lock : Mutex.t }

let send conn replies =
  Mutex.lock conn.lock;
  (try
     List.iter (Protocol.output conn.oc) replies;
     flush conn.oc
   with Sys_error _ | Sys_blocked_io -> ());
  Mutex.unlock conn.lock

let close conn =
  Mutex.lock conn.lock;
  close_out_noerr conn.oc;
  Mutex.unlock conn.lock

(* The longest request line a session reads, far above any real program
   (the paper-size MLP is 9.4 MB of text). *)
let max_request_bytes = 32 * 1024 * 1024

exception Line_too_long

(* A connection thread's request reader, kept across its connections: the
   bytes read and not yet returned are [buf.[pos .. len - 1]]. *)
type reader = { mutable buf : Bytes.t; mutable pos : int; mutable len : int }

let reader_bytes = 65536
let new_reader () = { buf = Bytes.create reader_bytes; pos = 0; len = 0 }

(* A new connection starts with nothing read, and without the room a
   line of over a MiB made. *)
let reset r =
  r.pos <- 0;
  r.len <- 0;
  if Bytes.length r.buf > 16 * reader_bytes then r.buf <- Bytes.create reader_bytes

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* The first newline in [b.[i .. stop - 1]], or [stop]. Eight bytes per
   step, as [Json] scans strings: [w - ones] and [lnot w] share a set top
   bit in some byte exactly when [w] has a zero byte, and a byte of
   [w xor 0x0a...] is zero where [b] has a newline. *)
let newline b i stop =
  let i = ref i in
  while
    !i + 8 <= stop
    &&
    let w = Int64.logxor (get64u b !i) 0x0a0a0a0a0a0a0a0aL in
    let zeros =
      Int64.logand
        (Int64.logand (Int64.sub w 0x0101010101010101L) (Int64.lognot w))
        0x8080808080808080L
    in
    Int64.to_int (Int64.shift_right_logical zeros 1) = 0
  do
    i := !i + 8
  done;
  while !i < stop && Bytes.unsafe_get b !i <> '\n' do
    incr i
  done;
  !i

let rec read fd b pos len =
  try Unix.read fd b pos len with Unix.Unix_error (Unix.EINTR, _, _) -> read fd b pos len

(* The next line from [fd], without its newline, as its start and length
   in [r.buf], valid until the next read; at end of input, what is left. A
   client that never sends a newline costs at most [max_request_bytes] of
   memory: past that many bytes of one line, and as soon as they have
   arrived, [Line_too_long]. *)
let read_line r fd =
  let rec scan from =
    let nl = newline r.buf from r.len in
    if nl - r.pos > max_request_bytes then raise Line_too_long
    else if nl < r.len then begin
      let start = r.pos in
      r.pos <- nl + 1;
      (start, nl - start)
    end
    else begin
      (* no newline yet: move the line to the front, make room after it,
         and read what has arrived *)
      if r.pos > 0 then begin
        Bytes.blit r.buf r.pos r.buf 0 (r.len - r.pos);
        r.len <- r.len - r.pos;
        r.pos <- 0
      end;
      if r.len = Bytes.length r.buf then begin
        let b = Bytes.create (min (2 * r.len) (max_request_bytes + 1)) in
        Bytes.blit r.buf 0 b 0 r.len;
        r.buf <- b
      end;
      let scanned = r.len in
      match read fd r.buf r.len (Bytes.length r.buf - r.len) with
      | 0 ->
          if r.len = 0 then raise End_of_file
          else begin
            r.pos <- r.len;
            (0, r.len)
          end
      | n ->
          r.len <- r.len + n;
          scan scanned
    end
  in
  scan r.pos

let session t ~reader ~fd ~send =
  let client = fresh_client t in
  let rec loop () =
    match read_line reader fd with
    | exception (End_of_file | Unix.Unix_error _) -> ()
    | exception Line_too_long ->
        send
          [
            Protocol.error
              (Format.asprintf "%a" Diagnostic.pp
                 (Diagnostic.v ~code:Diagnostic.Parse_error
                    ~hint:"send one JSON request per line; the connection is closed"
                    (Printf.sprintf "request line longer than %d bytes" max_request_bytes)));
          ]
    | start, len ->
        (* the request is decoded before the next read can overwrite it *)
        let line = Bytes.unsafe_to_string reader.buf in
        let keep = try handle_line t ~client ~send line start len with _ -> true in
        if keep && not (Atomic.get t.stopping) then loop ()
  in
  loop ();
  forget_client t client

let serve_stdio t =
  session t ~reader:(new_reader ()) ~fd:Unix.stdin
    ~send:(send { oc = stdout; lock = Mutex.create () });
  drain t

let handle_connection t reader fd =
  let conn = { oc = Unix.out_channel_of_descr fd; lock = Mutex.create () } in
  reset reader;
  session t ~reader ~fd ~send:(send conn);
  (* closes [fd] too *)
  close conn

(* Serves [fd], then each connection the accept loop hands this thread,
   until shutdown. *)
let rec connection_thread t reader fd =
  handle_connection t reader fd;
  Mutex.lock t.mutex;
  t.waiting <- t.waiting + 1;
  while Queue.is_empty t.handoff && not (Atomic.get t.stopping) do
    Condition.wait t.handoff_ready t.mutex
  done;
  t.waiting <- t.waiting - 1;
  let next = Queue.take_opt t.handoff in
  if t.waiting = 0 then Condition.broadcast t.waiters_gone;
  Mutex.unlock t.mutex;
  match next with Some fd -> connection_thread t reader fd | None -> ()

(* Hands [fd] to a waiting connection thread, or starts one. *)
let dispatch t fd =
  Mutex.lock t.mutex;
  let handed = t.waiting > Queue.length t.handoff in
  if handed then begin
    Queue.push fd t.handoff;
    Condition.signal t.handoff_ready
  end;
  Mutex.unlock t.mutex;
  if not handed then ignore (Thread.create (connection_thread t (new_reader ())) fd)

let serve t ~socket_path =
  (match Unix.lstat socket_path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink socket_path
  | _ -> invalid_arg (Printf.sprintf "Server.serve: %s exists and is not a socket" socket_path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX socket_path);
  Unix.listen fd 64;
  t.listen_fd <- Some fd;
  (* A client that disconnects mid-reply must not kill the daemon. *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> ());
  (try ignore (Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> request_shutdown t)))
   with Invalid_argument _ -> ());
  log t "listening on %s" socket_path;
  let rec accept_loop () =
    match Unix.accept fd with
    | conn, _ ->
        dispatch t conn;
        if not (Atomic.get t.stopping) then accept_loop ()
    | exception Unix.Unix_error ((Unix.EINVAL | Unix.EBADF | Unix.ECONNABORTED), _, _) ->
        if not (Atomic.get t.stopping) then accept_loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        if not (Atomic.get t.stopping) then accept_loop ()
  in
  accept_loop ();
  log t "draining";
  drain t;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ())
