(* The hecated job server: accepts newline-delimited JSON requests over a
   Unix-domain socket (or stdin/stdout), schedules compilations fairly
   across clients, and answers through the content-addressed plan cache.

   Concurrency structure:
   - one systhread per connection, reading request lines;
   - [workers] systhreads draining the job queues. When the process may
     use more than one CPU, each cold compile runs on a domain spawned for
     it, so compiles run in parallel with each other and never hold the
     runtime lock the connection threads need; on one CPU a second domain
     buys no parallelism and only makes every minor collection stop both,
     so the worker thread compiles itself. The compile's exploration pool
     ([pool_size]) counts that domain and spawns [pool_size - 1] more —
     threads give cheap blocking I/O concurrency, domains give the compute
     parallelism.
   - fair admission: every client (connection) has its own FIFO; a
     round-robin ready list picks the next client, so one client
     submitting 100 jobs cannot starve another submitting 1.

   Cancellation is cooperative and "anytime": cancelling a queued job
   drops it; cancelling a running job stops the exploration at the next
   epoch boundary and returns the best plan found so far (which the
   cache then treats as transient — see Plancache.compile). Shutdown
   (SIGTERM or the [shutdown] op) stops admission, lets the queues
   drain, and joins the workers. *)

module Prog = Hecate_ir.Prog
module Parser = Hecate_ir.Parser
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
  parsed : Prog.t option;
      (* the program, when [submit] parsed it: a text the cache has
         indexed is parsed only if its plan must be compiled *)
  cancel : bool Atomic.t;
  mutable state : job_state;  (* guarded by the server mutex *)
  send : string -> unit;  (* best-effort line to the owning connection *)
}

type t = {
  cache : Plancache.t;
  pool_size : int option;
  compile_domain : bool;  (* run each cold compile on a domain of its own *)
  oracle : bool;  (* gate every exploration winner through the differential oracle *)
  verbose : bool;
  mutex : Mutex.t;
  work : Condition.t;
  queues : (int, job Queue.t) Hashtbl.t;  (* client id -> its FIFO *)
  ready : int Queue.t;  (* round-robin over clients with work *)
  jobs : (int, job) Hashtbl.t;  (* live (queued or running) jobs *)
  finished : (int, job_state) Hashtbl.t;
      (* final state of the last [finished_window] finished jobs: a job's
         program, request and connection are released as soon as it ends *)
  finished_order : int Queue.t;  (* the ids in [finished], oldest first *)
  stopping : bool Atomic.t;
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

let log t fmt =
  if t.verbose then Printf.eprintf ("hecated: " ^^ fmt ^^ "\n%!")
  else Printf.ifprintf stderr fmt

(* ------------------------------------------------------------------ *)
(* Job execution                                                        *)
(* ------------------------------------------------------------------ *)

let run_job t job =
  let finish state =
    Mutex.lock t.mutex;
    Hashtbl.remove t.jobs job.id;
    Hashtbl.replace t.finished job.id state;
    Queue.push job.id t.finished_order;
    if Queue.length t.finished_order > finished_window then
      Hashtbl.remove t.finished (Queue.pop t.finished_order);
    (match state with
    | Done -> t.completed <- t.completed + 1
    | Failed -> t.failed <- t.failed + 1
    | Cancelled -> t.cancelled <- t.cancelled + 1
    | Queued | Running -> ());
    Mutex.unlock t.mutex
  in
  if Atomic.get job.cancel then begin
    finish Cancelled;
    job.send (Protocol.cancelled ~job:job.id)
  end
  else begin
    Mutex.lock t.mutex;
    job.state <- Running;
    Mutex.unlock t.mutex;
    let s = job.submit in
    let t0 = Unix.gettimeofday () in
    let on_epoch =
      if s.Protocol.stream then
        Some (fun ~strategy tr -> job.send (Protocol.progress ~job:job.id ~strategy tr))
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
          Plancache.compile_text t.cache ?pool_size:t.pool_size ?run_cold
            ~should_stop:(fun () -> Atomic.get job.cancel || Atomic.get t.stopping)
            ?on_epoch ?strategy:s.Protocol.strategy ?gate
            ?budget_seconds:s.Protocol.budget_seconds ~scheme:s.Protocol.scheme
            ~sf_bits:s.Protocol.sf_bits ~waterline_bits:s.Protocol.waterline_bits
            ~max_epochs:s.Protocol.max_epochs ?parsed:job.parsed s.Protocol.program)
    with
    | Ok (entry, origin) ->
        let wall = Unix.gettimeofday () -. t0 in
        finish Done;
        log t "job %d done (%s, %.4f s)" job.id (Plancache.origin_name origin) wall;
        job.send (Protocol.done_ ~job:job.id ~origin ~wall_seconds:wall entry)
    | exception Explore.Cancelled ->
        finish Cancelled;
        job.send (Protocol.cancelled ~job:job.id)
    | Error d ->
        finish Failed;
        job.send (Protocol.error ~job:job.id (Format.asprintf "%a" Diagnostic.pp d))
  end

let worker_loop t =
  let rec next () =
    Mutex.lock t.mutex;
    let rec wait () =
      if Queue.is_empty t.ready then
        if Atomic.get t.stopping then begin
          Mutex.unlock t.mutex;
          None
        end
        else begin
          Condition.wait t.work t.mutex;
          wait ()
        end
      else begin
        let client = Queue.pop t.ready in
        (* invariant: a client is in [ready] iff its queue is non-empty *)
        let q = Hashtbl.find t.queues client in
        let job = Queue.pop q in
        if not (Queue.is_empty q) then Queue.push client t.ready;
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
    Mutex.unlock t.mutex;
    (* unblock the accept loop, if one is running *)
    match t.listen_fd with
    | Some fd -> ( try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    | None -> ()
  end

let drain t =
  request_shutdown t;
  List.iter Thread.join t.workers;
  t.workers <- []

(* ------------------------------------------------------------------ *)
(* Request handling                                                     *)
(* ------------------------------------------------------------------ *)

(* A text the cache has indexed parsed before; any other is parsed here,
   so that a parse error is answered before the job is accepted. *)
let submit t ~client ~send (s : Protocol.submit) =
  let text = s.Protocol.program in
  match
    if Plancache.indexed t.cache text then Ok None
    else Driver.diagnose (fun () -> Some (Parser.parse text))
  with
  | Error d -> send (Protocol.error (Format.asprintf "%a" Diagnostic.pp d))
  | Ok parsed ->
      Mutex.lock t.mutex;
      if Atomic.get t.stopping then begin
        Mutex.unlock t.mutex;
        send (Protocol.error "server is shutting down; submission rejected")
      end
      else begin
        let id = t.next_job in
        t.next_job <- id + 1;
        t.submitted <- t.submitted + 1;
        let job =
          { id; client; submit = s; parsed; cancel = Atomic.make false; state = Queued; send }
        in
        Hashtbl.replace t.jobs id job;
        let q =
          match Hashtbl.find_opt t.queues client with
          | Some q -> q
          | None ->
              let q = Queue.create () in
              Hashtbl.replace t.queues client q;
              q
        in
        let was_empty = Queue.is_empty q in
        Queue.push job q;
        if was_empty then Queue.push client t.ready;
        Condition.signal t.work;
        Mutex.unlock t.mutex;
        log t "job %d accepted from client %d (%s, %d bytes%s)" id client
          (Driver.scheme_name s.Protocol.scheme)
          (String.length text)
          (if Option.is_none parsed then ", indexed" else "");
        send (Protocol.accepted ~job:id)
      end

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

(* Returns [false] when the connection should close (shutdown). *)
let handle_line t ~client ~send line =
  match Protocol.parse_request line with
  | Error msg ->
      send (Protocol.error msg);
      true
  | Ok (Protocol.Submit s) ->
      submit t ~client ~send s;
      true
  | Ok (Protocol.Status id) ->
      send
        (match lookup t id with
        | Tracked (st, _) -> Protocol.status ~job:id ~state:(state_name st)
        | Untracked -> not_tracked id
        | Unknown -> unknown id);
      true
  | Ok (Protocol.Cancel id) ->
      send
        (match lookup t id with
        | Tracked (_, job) ->
            (* a finished job gets the same reply; it has nothing left to stop *)
            Option.iter (fun j -> Atomic.set j.cancel true) job;
            Protocol.status ~job:id ~state:"cancelling"
        | Untracked -> not_tracked id
        | Unknown -> unknown id);
      true
  | Ok Protocol.Stats ->
      Mutex.lock t.mutex;
      let jobs = job_counts t in
      Mutex.unlock t.mutex;
      send (Protocol.stats ~jobs ~cache:(Plancache.snapshot t.cache));
      true
  | Ok Protocol.Shutdown ->
      send Protocol.bye;
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

let line_sender oc =
  let m = Mutex.create () in
  fun line ->
    Mutex.lock m;
    (try
       output_string oc line;
       output_char oc '\n';
       flush oc
     with Sys_error _ | Sys_blocked_io -> ());
    Mutex.unlock m

(* The longest request line a session reads, far above any real program
   (the paper-size MLP is 9.4 MB of text). *)
let max_request_bytes = 32 * 1024 * 1024

exception Line_too_long

(* [input_line] with a bound: reads [ic] in chunks and keeps what follows a
   newline for the next call, so a client that never sends one costs at
   most [max_request_bytes] of memory. The chunk and the line start small
   enough for the minor heap: every request opens a connection. *)
let line_reader ic =
  let chunk = Bytes.create 1024 and pos = ref 0 and len = ref 0 in
  let line = Buffer.create 1024 in
  let rec next () =
    if !pos >= !len then begin
      pos := 0;
      len := input ic chunk 0 (Bytes.length chunk)
    end;
    let start = !pos in
    let rec scan i = if i < !len && Bytes.unsafe_get chunk i <> '\n' then scan (i + 1) else i in
    let stop = scan start in
    if !len = 0 && Buffer.length line = 0 then raise End_of_file
    else if Buffer.length line + (stop - start) > max_request_bytes then raise Line_too_long
    else begin
      Buffer.add_subbytes line chunk start (stop - start);
      pos := stop + 1;
      if stop < !len || !len = 0 then (
        let s = Buffer.contents line in
        Buffer.clear line;
        s)
      else next ()
    end
  in
  next

let session t ~ic ~send =
  let client = fresh_client t in
  let read = line_reader ic in
  let rec loop () =
    match read () with
    | exception (End_of_file | Sys_error _) -> ()
    | exception Line_too_long ->
        send
          (Protocol.error
             (Format.asprintf "%a" Diagnostic.pp
                (Diagnostic.v ~code:Diagnostic.Parse_error
                   ~hint:"send one JSON request per line; the connection is closed"
                   (Printf.sprintf "request line longer than %d bytes" max_request_bytes))))
    | line ->
        let keep = try handle_line t ~client ~send line with _ -> true in
        if keep && not (Atomic.get t.stopping) then loop ()
  in
  loop ();
  forget_client t client

let serve_stdio t =
  session t ~ic:stdin ~send:(line_sender stdout);
  drain t

let handle_connection t fd =
  let ic = Unix.in_channel_of_descr fd in
  let send = line_sender (Unix.out_channel_of_descr fd) in
  session t ~ic ~send;
  try Unix.close fd with Unix.Unix_error _ -> ()

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
        ignore (Thread.create (fun () -> handle_connection t conn) ());
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
