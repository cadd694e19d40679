(* Shutdown is a three-state machine so that it is safe to call from
   several threads/domains at once: the first caller moves the pool to
   [Closing], drains the queue (workers finish every task submitted
   before the shutdown) and joins the worker domains; concurrent callers
   block on [settled] until the first one reaches [Closed]. The daemon
   relies on this to drain cleanly on SIGTERM while request threads may
   still be racing their own cleanup. *)
type state = Running | Closing | Closed

type t = {
  mutable domains : unit Domain.t array;
  size : int;
  queue : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  wakeup : Condition.t; (* signalled on push and on shutdown *)
  settled : Condition.t; (* broadcast when state reaches Closed *)
  mutable state : state;
}

let default_size () = max 1 (Domain.recommended_domain_count () - 1)
let size t = t.size

let rec worker t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && t.state = Running do
    Condition.wait t.wakeup t.mutex
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.mutex (* closing and drained *)
  else begin
    let task = Queue.pop t.queue in
    Mutex.unlock t.mutex;
    (* Tasks are expected to capture their own exceptions ([map_array]
       does); a stray one must not kill the worker. *)
    (try task () with _ -> ());
    worker t
  end

let create ?size () =
  let n = match size with Some s -> max 1 s | None -> default_size () in
  let t =
    {
      domains = [||];
      size = n;
      queue = Queue.create ();
      mutex = Mutex.create ();
      wakeup = Condition.create ();
      settled = Condition.create ();
      state = Running;
    }
  in
  (* the domain calling [map_array] is the pool's [n]-th *)
  t.domains <- Array.init (n - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

(* Each call hands its elements out through its own [next] counter: the
   caller and up to [size - 1] queued drainers claim indices until none are
   left. The caller therefore only ever runs its own tasks, and never waits
   on a worker that is busy elsewhere; a drainer a worker picks up late
   finds nothing left and returns at once. *)
let map_array t ~f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let remaining = ref n in
    let finished = Mutex.create () and all_done = Condition.create () in
    let rec drain () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let r = try Ok (f arr.(i)) with e -> Error (e, Printexc.get_raw_backtrace ()) in
        Mutex.lock finished;
        results.(i) <- Some r;
        decr remaining;
        if !remaining = 0 then Condition.signal all_done;
        Mutex.unlock finished;
        drain ()
      end
    in
    Mutex.lock t.mutex;
    if t.state <> Running then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool.map_array: pool is shut down"
    end;
    for _ = 1 to min (n - 1) (Array.length t.domains) do
      Queue.push drain t.queue;
      Condition.signal t.wakeup
    done;
    Mutex.unlock t.mutex;
    drain ();
    Mutex.lock finished;
    while !remaining > 0 do
      Condition.wait all_done finished
    done;
    Mutex.unlock finished;
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      results
  end

let shutdown t =
  Mutex.lock t.mutex;
  match t.state with
  | Closed -> Mutex.unlock t.mutex
  | Closing ->
      (* Another caller is already draining and joining; wait until it is
         actually done so that "shutdown returned" always means "workers
         joined", whoever called it. *)
      while t.state <> Closed do
        Condition.wait t.settled t.mutex
      done;
      Mutex.unlock t.mutex
  | Running ->
      t.state <- Closing;
      Condition.broadcast t.wakeup;
      let domains = t.domains in
      t.domains <- [||];
      Mutex.unlock t.mutex;
      Array.iter Domain.join domains;
      Mutex.lock t.mutex;
      t.state <- Closed;
      Condition.broadcast t.settled;
      Mutex.unlock t.mutex

let with_pool ?size f =
  let t = create ?size () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* ------------------------------------------------------------------ *)
(* Shared kernel pool                                                  *)
(* ------------------------------------------------------------------ *)

module Kernel = struct
  (* Parsed once: a malformed HECATE_KERNEL_JOBS used to be silently
     ignored, which meant "HECATE_KERNEL_JOBS=eight" benchmarked the
     serial kernels while the user believed they were parallel. Warn on
     stderr (once) and fall back to serial. *)
  let env_jobs =
    let parsed =
      lazy
        (match Sys.getenv_opt "HECATE_KERNEL_JOBS" with
        | None | Some "" -> None
        | Some s -> (
            match int_of_string_opt (String.trim s) with
            | Some j when j >= 1 -> Some j
            | Some j ->
                Printf.eprintf
                  "hecate: warning: HECATE_KERNEL_JOBS=%d is out of range (must be >= 1); \
                   running serial\n%!"
                  j;
                None
            | None ->
                Printf.eprintf
                  "hecate: warning: HECATE_KERNEL_JOBS=%S is not an integer; running serial\n%!"
                  s;
                None))
    in
    fun () -> Lazy.force parsed

  let requested : int option Atomic.t = Atomic.make None

  let jobs () =
    match Atomic.get requested with
    | Some j -> j
    | None -> ( match env_jobs () with Some j -> j | None -> 1)

  (* The pool is spawned lazily on the first parallel iteration and resized
     when the job count changes; [lock] serializes (re)configuration, not
     task submission. *)
  let lock = Mutex.create ()
  let pool : t option ref = ref None
  let at_exit_registered = ref false

  let set_jobs j =
    let j = max 1 j in
    Mutex.lock lock;
    Atomic.set requested (Some j);
    (match !pool with
    | Some p when size p <> j ->
        pool := None;
        Mutex.unlock lock;
        shutdown p;
        Mutex.lock lock
    | _ -> ());
    Mutex.unlock lock

  let get_pool () =
    Mutex.lock lock;
    let p =
      match !pool with
      | Some p when size p = jobs () -> p
      | other ->
          (match other with Some stale -> shutdown stale | None -> ());
          let p = create ~size:(jobs ()) () in
          pool := Some p;
          if not !at_exit_registered then begin
            at_exit_registered := true;
            Stdlib.at_exit (fun () ->
                Mutex.lock lock;
                let p = !pool in
                pool := None;
                Mutex.unlock lock;
                Option.iter shutdown p)
          end;
          p
    in
    Mutex.unlock lock;
    p

  let parallel_for count f =
    if count <= 0 then ()
    else if count = 1 || jobs () <= 1 then
      for i = 0 to count - 1 do
        f i
      done
    else ignore (map_array (get_pool ()) ~f (Array.init count Fun.id))
end
