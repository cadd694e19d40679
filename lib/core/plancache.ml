module Prog = Hecate_ir.Prog
module Parser = Hecate_ir.Parser
module Printer = Hecate_ir.Printer
module Json = Hecate_support.Json
module Fileio = Hecate_support.Fileio

(* ------------------------------------------------------------------ *)
(* Entries                                                             *)
(* ------------------------------------------------------------------ *)

type entry = {
  key : string;
  fingerprint : string;
  structure : string;
  scheme : Driver.scheme;
  sf_bits : int;
  waterline_bits : float;
  max_epochs : int;
  strategy : string;
  winner_strategy : string;
  artifact : string;
  params : Paramselect.t;
  estimated_seconds : float;
  plan : int array option;
  keyed_plan : (string * int) list;
  explore_epochs : int;
  explore_plans : int;
  compile_seconds : float;
}

type origin = Cold | Memory | Disk | Joined

let origin_name = function
  | Cold -> "cold"
  | Memory -> "memory"
  | Disk -> "disk"
  | Joined -> "joined"

(* The cache key covers everything that can change the produced artifact:
   the canonical program fingerprint plus the compilation configuration.
   [max_epochs] is part of the key because a budget-truncated climb can
   legitimately produce a different (worse) plan than an unbounded one —
   serving it to a larger-budget client would silently degrade them. *)
let key_of_fingerprint ~strategy ~scheme ~sf_bits ~waterline_bits ~max_epochs fp =
  (* The default strategy keeps the PR 7 key format verbatim, so every
     existing disk entry (and the daemon's committed latency baselines)
     stays addressable; other strategies can produce different winning
     plans, so they get their own key space. *)
  let suffix = if strategy = Explore.default_strategy then "" else "|" ^ strategy in
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "plan-v1|%s|%s|%d|%s|%d%s" fp (Driver.scheme_name scheme) sf_bits
          (Hecate_ir.Hexfloat.to_string waterline_bits) max_epochs suffix))

let key ?(strategy = Explore.default_strategy) ~scheme ~sf_bits ~waterline_bits
    ~max_epochs prog =
  key_of_fingerprint ~strategy ~scheme ~sf_bits ~waterline_bits ~max_epochs
    (Prog.fingerprint prog)

(* ------------------------------------------------------------------ *)
(* On-disk serialization                                               *)
(* ------------------------------------------------------------------ *)

let scheme_of_name = function
  | "EVA" -> Some Driver.Eva
  | "PARS" -> Some Driver.Pars
  | "SMSE" -> Some Driver.Smse
  | "HECATE" -> Some Driver.Hecate
  | _ -> None

(* Version 2 added [digest]: the MD5 of the rendering of every other
   field. A file that still parses as JSON after a flipped byte (a digit
   of a number, a character of the artifact) no longer matches it, so a
   damaged entry is a miss rather than a different answer. Version 1
   entries have no digest and are misses too. *)
let format_version = 2

let fields_digest fields = Digest.to_hex (Digest.string (Json.render (Json.Obj fields)))

let entry_to_json (e : entry) =
  let fields =
    [
      ("version", Json.int format_version);
      ("key", Json.Str e.key);
      ("fingerprint", Json.Str e.fingerprint);
      ("scheme", Json.Str (Driver.scheme_name e.scheme));
      ("sf_bits", Json.int e.sf_bits);
      ("waterline_bits", Json.Num e.waterline_bits);
      ("max_epochs", Json.int e.max_epochs);
      ("artifact", Json.Str e.artifact);
      ( "params",
        Json.Obj
          [
            ("q0_bits", Json.int e.params.Paramselect.q0_bits);
            ("sf_bits", Json.int e.params.Paramselect.sf_bits);
            ("chain_levels", Json.int e.params.Paramselect.chain_levels);
            ("log_q", Json.Num e.params.Paramselect.log_q);
            ("secure_n", Json.int e.params.Paramselect.secure_n);
            ("slot_count", Json.int e.params.Paramselect.slot_count);
          ] );
      ("estimated_seconds", Json.Num e.estimated_seconds);
      ( "plan",
        match e.plan with
        | None -> Json.Null
        | Some p -> Json.Arr (Array.to_list (Array.map Json.int p)) );
      ("explore_epochs", Json.int e.explore_epochs);
      ("explore_plans", Json.int e.explore_plans);
      ("compile_seconds", Json.Num e.compile_seconds);
      (* corpus fields: optional on read (the default strategy and an
         empty portable plan when absent) *)
      ("structure", Json.Str e.structure);
      ("strategy", Json.Str e.strategy);
      ("winner_strategy", Json.Str e.winner_strategy);
      ( "keyed_plan",
        Json.Arr
          (List.map
             (fun (site, degree) ->
               Json.Obj [ ("site", Json.Str site); ("degree", Json.int degree) ])
             e.keyed_plan) );
    ]
  in
  Json.Obj (fields @ [ ("digest", Json.Str (fields_digest fields)) ])

let entry_of_json j =
  let open Json in
  let ( let* ) = Option.bind in
  let* version = to_int (member "version" j) in
  let* digest = to_string (member "digest" j) in
  let intact =
    match j with
    | Obj fields -> fields_digest (List.filter (fun (k, _) -> k <> "digest") fields) = digest
    | _ -> false
  in
  if version <> format_version || not intact then None
  else
    let* key = to_string (member "key" j) in
    let* fingerprint = to_string (member "fingerprint" j) in
    let* scheme = Option.bind (to_string (member "scheme" j)) scheme_of_name in
    let* sf_bits = to_int (member "sf_bits" j) in
    let* waterline_bits = to_float (member "waterline_bits" j) in
    let* max_epochs = to_int (member "max_epochs" j) in
    let* artifact = to_string (member "artifact" j) in
    let pj = member "params" j in
    let* q0_bits = to_int (member "q0_bits" pj) in
    let* psf_bits = to_int (member "sf_bits" pj) in
    let* chain_levels = to_int (member "chain_levels" pj) in
    let* log_q = to_float (member "log_q" pj) in
    let* secure_n = to_int (member "secure_n" pj) in
    let* slot_count = to_int (member "slot_count" pj) in
    let* estimated_seconds = to_float (member "estimated_seconds" j) in
    let plan =
      match member "plan" j with
      | Null -> None
      | Arr items ->
          Some (Array.of_list (List.filter_map to_int items))
      | _ -> None
    in
    let* explore_epochs = to_int (member "explore_epochs" j) in
    let* explore_plans = to_int (member "explore_plans" j) in
    let* compile_seconds = to_float (member "compile_seconds" j) in
    let str_default d m = Option.value ~default:d (to_string (member m j)) in
    let structure = str_default "" "structure" in
    let strategy = str_default Explore.default_strategy "strategy" in
    let winner_strategy = str_default strategy "winner_strategy" in
    let keyed_plan =
      match member "keyed_plan" j with
      | Arr items ->
          List.filter_map
            (fun item ->
              match (to_string (member "site" item), to_int (member "degree" item)) with
              | Some site, Some degree -> Some (site, degree)
              | _ -> None)
            items
      | _ -> []
    in
    Some
      {
        key;
        fingerprint;
        structure;
        scheme;
        sf_bits;
        waterline_bits;
        max_epochs;
        strategy;
        winner_strategy;
        artifact;
        params =
          {
            Paramselect.q0_bits;
            sf_bits = psf_bits;
            chain_levels;
            log_q;
            secure_n;
            slot_count;
          };
        estimated_seconds;
        plan;
        keyed_plan;
        explore_epochs;
        explore_plans;
        compile_seconds;
      }

(* ------------------------------------------------------------------ *)
(* The cache                                                           *)
(* ------------------------------------------------------------------ *)

type stats = {
  mutable hits_memory : int;
  mutable hits_disk : int;
  mutable misses : int;
  mutable joins : int;
  mutable evictions : int;
  mutable index_hits : int;
}

type stats_snapshot = {
  s_hits_memory : int;
  s_hits_disk : int;
  s_misses : int;
  s_joins : int;
  s_evictions : int;
  s_entries : int;
  s_index_hits : int;
  s_index_bytes : int;
}

type node = { entry : entry; mutable last_use : int }

(* A single in-flight computation: the first requester computes, every
   concurrent requester for the same key parks on [cond] and shares the
   one result (or the one failure). *)
type flight = {
  fmutex : Mutex.t;
  fcond : Condition.t;
  mutable outcome : (entry, exn * Printexc.raw_backtrace) result option;
}

type t = {
  dir : string option;
  capacity : int;
  table : (string, node) Hashtbl.t;
  mutable tick : int;
  lock : Mutex.t;
  inflight : (string, flight) Hashtbl.t;
  stats : stats;
  index : (string, string) Hashtbl.t;  (* program text -> its fingerprint *)
  index_order : string Queue.t;  (* the indexed texts, oldest first *)
  mutable index_bytes : int;
}

let default_dir () =
  match Sys.getenv_opt "HECATE_CACHE_DIR" with
  | Some d when d <> "" -> Some d
  | Some _ | None -> (
      let join a b = Filename.concat a b in
      match Sys.getenv_opt "XDG_CACHE_HOME" with
      | Some d when d <> "" -> Some (join d "hecate")
      | _ -> (
          match Sys.getenv_opt "HOME" with
          | Some h when h <> "" -> Some (join (join h ".cache") "hecate")
          | _ -> None))

let rec mkdir_p dir =
  if dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?dir ?(capacity = 128) () =
  if capacity < 1 then invalid_arg "Plancache.create: capacity must be >= 1";
  Option.iter mkdir_p dir;
  {
    dir;
    capacity;
    table = Hashtbl.create 64;
    tick = 0;
    lock = Mutex.create ();
    inflight = Hashtbl.create 8;
    stats =
      { hits_memory = 0; hits_disk = 0; misses = 0; joins = 0; evictions = 0; index_hits = 0 };
    index = Hashtbl.create 64;
    index_order = Queue.create ();
    index_bytes = 0;
  }

let entry_path t key =
  Option.map (fun dir -> Filename.concat dir (key ^ ".json")) t.dir

let memory_size t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.table in
  Mutex.unlock t.lock;
  n

let snapshot t =
  Mutex.lock t.lock;
  let s = t.stats in
  let snap =
    {
      s_hits_memory = s.hits_memory;
      s_hits_disk = s.hits_disk;
      s_misses = s.misses;
      s_joins = s.joins;
      s_evictions = s.evictions;
      s_entries = Hashtbl.length t.table;
      s_index_hits = s.index_hits;
      s_index_bytes = t.index_bytes;
    }
  in
  Mutex.unlock t.lock;
  snap

(* locked: insert into memory, evicting the least-recently-used entries
   beyond capacity. O(capacity) eviction scan — the cache holds at most a
   few hundred entries, and insertions are rare (one per cold compile). *)
let insert_locked t entry =
  t.tick <- t.tick + 1;
  Hashtbl.replace t.table entry.key { entry; last_use = t.tick };
  while Hashtbl.length t.table > t.capacity do
    let victim = ref None in
    Hashtbl.iter
      (fun k node ->
        match !victim with
        | Some (_, lu) when lu <= node.last_use -> ()
        | _ -> victim := Some (k, node.last_use))
      t.table;
    match !victim with
    | Some (k, _) ->
        Hashtbl.remove t.table k;
        t.stats.evictions <- t.stats.evictions + 1
    | None -> ()
  done

let persist t entry =
  match entry_path t entry.key with
  | None -> ()
  | Some path ->
      (* a failed persist must not fail the compilation that produced the
         entry: the disk store is an optimization, stderr-note and move on *)
      (try Fileio.write_atomic ~path (Json.render (entry_to_json entry) ^ "\n")
       with Sys_error msg | Unix.Unix_error (_, msg, _) ->
         Printf.eprintf "hecate: warning: plan cache persist failed: %s\n%!" msg)

let load_disk t key =
  match entry_path t key with
  | None -> None
  | Some path when not (Sys.file_exists path) -> None
  | Some path -> (
      match
        let e = entry_of_json (Json.parse (Fileio.read_file ~path)) in
        match e with
        | Some e when e.key = key -> Some e
        | _ -> None
      with
      | v -> v
      | exception (Sys_error _ | Json.Parse_error _) -> None)

let add t entry =
  Mutex.lock t.lock;
  insert_locked t entry;
  Mutex.unlock t.lock;
  persist t entry

(* locked: the entry for [key] in memory, counted as a memory hit *)
let memory_hit_locked t key =
  match Hashtbl.find_opt t.table key with
  | Some node ->
      t.tick <- t.tick + 1;
      node.last_use <- t.tick;
      t.stats.hits_memory <- t.stats.hits_memory + 1;
      Some node.entry
  | None -> None

let find t key =
  Mutex.lock t.lock;
  match memory_hit_locked t key with
  | Some entry ->
      Mutex.unlock t.lock;
      Some (entry, Memory)
  | None -> (
      Mutex.unlock t.lock;
      (* disk probe outside the lock: file I/O must not serialize other
         requests *)
      match load_disk t key with
      | Some entry ->
          Mutex.lock t.lock;
          insert_locked t entry;
          t.stats.hits_disk <- t.stats.hits_disk + 1;
          Mutex.unlock t.lock;
          Some (entry, Disk)
      | None -> None)

(* ------------------------------------------------------------------ *)
(* Text index                                                          *)
(* ------------------------------------------------------------------ *)

(* The exact program texts parsed and fingerprinted so far, each with its
   fingerprint, so a repeated text goes straight to its key. The table
   compares whole texts on lookup: only the same bytes share an entry. *)
let index_budget = 16 * 1024 * 1024

(* What one indexed text counts against the budget: its bytes, its
   fingerprint's, and about 64 for the table and queue cells and headers. *)
let index_cost text fingerprint = String.length text + String.length fingerprint + 64

let indexed t text =
  Mutex.lock t.lock;
  let found = Hashtbl.mem t.index text in
  Mutex.unlock t.lock;
  found

(* locked: index [text], evicting the oldest texts past the budget. A text
   that alone exceeds it is not indexed. *)
let index_locked t text fingerprint =
  let cost = index_cost text fingerprint in
  if cost <= index_budget && not (Hashtbl.mem t.index text) then begin
    while t.index_bytes + cost > index_budget do
      let old = Queue.pop t.index_order in
      t.index_bytes <- t.index_bytes - index_cost old (Hashtbl.find t.index old);
      Hashtbl.remove t.index old
    done;
    Hashtbl.replace t.index text fingerprint;
    Queue.push text t.index_order;
    t.index_bytes <- t.index_bytes + cost
  end

(* ------------------------------------------------------------------ *)
(* Plan corpus: warm-start seeds                                       *)
(* ------------------------------------------------------------------ *)

(* Portable plans from structurally similar entries, best first. Exact
   fingerprint matches rank ahead of structural-digest matches; within a
   rank, cheaper estimates first, key order as the final deterministic
   tie-break. Scans the in-memory layer only — the disk store feeds it
   through hits and {!preload}. *)
let warm_plans t ?(limit = 4) ~fingerprint ~structure ~scheme ~sf_bits () =
  Mutex.lock t.lock;
  let candidates =
    Hashtbl.fold
      (fun _ node acc ->
        let e = node.entry in
        if e.scheme = scheme && e.sf_bits = sf_bits && e.keyed_plan <> [] then
          if e.fingerprint = fingerprint then (0, e) :: acc
          else if structure <> "" && e.structure = structure then (1, e) :: acc
          else acc
        else acc)
      t.table []
  in
  Mutex.unlock t.lock;
  candidates
  |> List.sort (fun (p1, (e1 : entry)) (p2, e2) ->
         match compare p1 p2 with
         | 0 -> (
             match Float.compare e1.estimated_seconds e2.estimated_seconds with
             | 0 -> String.compare e1.key e2.key
             | d -> d)
         | d -> d)
  |> List.filteri (fun i _ -> i < limit)
  |> List.map (fun (_, e) -> e.keyed_plan)

(* Load every on-disk entry into the in-memory layer (up to capacity, in
   filename order), so [warm_plans] sees the persistent corpus right after
   a restart. Returns the number of entries loaded. *)
let preload t =
  match t.dir with
  | None -> 0
  | Some dir -> (
      match Sys.readdir dir with
      | exception Sys_error _ -> 0
      | files ->
          Array.sort String.compare files;
          let n = ref 0 in
          Array.iter
            (fun f ->
              if Filename.check_suffix f ".json" && !n < t.capacity then
                match load_disk t (Filename.chop_suffix f ".json") with
                | Some e ->
                    Mutex.lock t.lock;
                    insert_locked t e;
                    Mutex.unlock t.lock;
                    incr n
                | None -> ())
            files;
          !n)

(* ------------------------------------------------------------------ *)
(* Single-flight lookup-or-compute                                     *)
(* ------------------------------------------------------------------ *)

let find_or_compute t key ~compute =
  Mutex.lock t.lock;
  match memory_hit_locked t key with
  | Some entry ->
      Mutex.unlock t.lock;
      (entry, Memory)
  | None -> (
      match Hashtbl.find_opt t.inflight key with
      | Some flight ->
          (* someone is already exploring this exact program+config: park
             until their result lands, never start a second exploration *)
          t.stats.joins <- t.stats.joins + 1;
          Mutex.unlock t.lock;
          Mutex.lock flight.fmutex;
          while flight.outcome = None do
            Condition.wait flight.fcond flight.fmutex
          done;
          let outcome = Option.get flight.outcome in
          Mutex.unlock flight.fmutex;
          (match outcome with
          | Ok entry -> (entry, Joined)
          | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
      | None ->
          let flight =
            { fmutex = Mutex.create (); fcond = Condition.create (); outcome = None }
          in
          Hashtbl.replace t.inflight key flight;
          Mutex.unlock t.lock;
          let settle ~store outcome =
            Mutex.lock t.lock;
            Hashtbl.remove t.inflight key;
            (match outcome with
            | Ok entry when store -> insert_locked t entry
            | Ok _ | Error _ -> ());
            Mutex.unlock t.lock;
            Mutex.lock flight.fmutex;
            flight.outcome <- Some outcome;
            Condition.broadcast flight.fcond;
            Mutex.unlock flight.fmutex
          in
          let bump f =
            Mutex.lock t.lock;
            f t.stats;
            Mutex.unlock t.lock
          in
          (* the disk probe rides the flight too: concurrent requesters for
             a disk-resident key do one read, not N *)
          (match load_disk t key with
          | Some entry ->
              bump (fun s -> s.hits_disk <- s.hits_disk + 1);
              settle ~store:true (Ok entry);
              (entry, Disk)
          | None -> (
              bump (fun s -> s.misses <- s.misses + 1);
              match compute () with
              | entry, store ->
                  settle ~store (Ok entry);
                  if store then persist t entry;
                  (entry, Cold)
              | exception e ->
                  let bt = Printexc.get_raw_backtrace () in
                  settle ~store:false (Error (e, bt));
                  Printexc.raise_with_backtrace e bt)))

(* ------------------------------------------------------------------ *)
(* Compilation through the cache                                       *)
(* ------------------------------------------------------------------ *)

(* A request the memory layer could not answer: its key, and what the rest
   of the way needs. [prog] parses the text on demand: only a cold compile
   reads the program. *)
type pending = {
  key : string;
  fingerprint : string;
  prog : unit -> Prog.t;
  strategy : string;
  scheme : Driver.scheme;
  sf_bits : int;
  waterline_bits : float;
  max_epochs : int;
}

type lookup = Memory_hit of entry | Pending of pending

let pending ~strategy ~scheme ~sf_bits ~waterline_bits ~max_epochs ~fingerprint prog =
  {
    key = key_of_fingerprint ~strategy ~scheme ~sf_bits ~waterline_bits ~max_epochs fingerprint;
    fingerprint;
    prog;
    strategy;
    scheme;
    sf_bits;
    waterline_bits;
    max_epochs;
  }

(* The rest of a request the memory layer missed: the disk store, the
   single flight or a cold compile, from the key the lookup derived.
   [find_or_compute] asks the memory layer again, since a compile may
   have landed in between; either way one counter moves per request. *)
let complete t ?pool_size ?(run_cold = fun f -> f ()) ?should_stop ?on_epoch ?budget_seconds
    ?gate (p : pending) =
  let { key = k; fingerprint; strategy; scheme; sf_bits; waterline_bits; max_epochs; _ } = p in
  find_or_compute t k ~compute:(fun () ->
      let prog = p.prog () in
      let gate = Option.map (fun g -> g prog) gate in
      let structure = Prog.structural_digest prog in
      (* A cold compile warm-starts from the plan corpus: portable plans of
         structurally similar entries seed every strategy. The seeds only
         accelerate the search — the result is the same plan a cold run
         finds (or a better one the budget would have missed). *)
      let warm = warm_plans t ~fingerprint ~structure ~scheme ~sf_bits () in
      let t0 = Unix.gettimeofday () in
      (* If the stop signal (cancellation or budget expiry) fires, the
         climb returns its best-so-far — a valid artifact for this
         requester, but a truncated one that must not be cached as the
         canonical answer for the key. *)
      let stopped = ref false in
      let stop () =
        let s =
          (match budget_seconds with
          | Some b -> Unix.gettimeofday () -. t0 > b
          | None -> false)
          || (match should_stop with Some f -> f () | None -> false)
        in
        if s then stopped := true;
        s
      in
      let c =
        run_cold (fun () ->
            Driver.compile ?pool_size ~should_stop:stop ?on_epoch ~max_epochs ~strategy
              ?gate ~warm_plans:warm scheme ~sf_bits ~waterline_bits prog)
      in
      let compile_seconds = Unix.gettimeofday () -. t0 in
      let plan, keyed_plan, explore_epochs, explore_plans, winner_strategy =
        match c.Driver.exploration with
        | None -> (None, [], 0, 0, strategy)
        | Some e ->
            ( Some e.Driver.best_plan,
              e.Driver.keyed_plan,
              e.Driver.epochs,
              e.Driver.plans_explored,
              e.Driver.strategy )
      in
      ( {
          key = k;
          fingerprint;
          structure;
          scheme;
          sf_bits;
          waterline_bits;
          max_epochs;
          strategy;
          winner_strategy;
          artifact = Printer.to_string c.Driver.prog;
          params = c.Driver.params;
          estimated_seconds = c.Driver.estimated_seconds;
          plan;
          keyed_plan;
          explore_epochs;
          explore_plans;
          compile_seconds;
        },
        not !stopped ))

let compile t ?pool_size ?run_cold ?should_stop ?on_epoch ?budget_seconds
    ?(strategy = Explore.default_strategy) ?gate ~scheme ~sf_bits ~waterline_bits
    ?(max_epochs = 100) prog =
  complete t ?pool_size ?run_cold ?should_stop ?on_epoch ?budget_seconds
    ?gate:(Option.map (fun g _ -> g) gate)
    (pending ~strategy ~scheme ~sf_bits ~waterline_bits ~max_epochs
       ~fingerprint:(Prog.fingerprint prog) (fun () -> prog))

(* The text is hashed once: one index lookup gives the fingerprint, or the
   text is parsed, fingerprinted and indexed. *)
let lookup_text t ?(strategy = Explore.default_strategy) ~scheme ~sf_bits ~waterline_bits
    ?(max_epochs = 100) text =
  let pending = pending ~strategy ~scheme ~sf_bits ~waterline_bits ~max_epochs in
  Mutex.lock t.lock;
  let known = Hashtbl.find_opt t.index text in
  if Option.is_some known then t.stats.index_hits <- t.stats.index_hits + 1;
  Mutex.unlock t.lock;
  let p, fresh =
    match known with
    | Some fingerprint -> (pending ~fingerprint (fun () -> Parser.parse text), false)
    | None ->
        let prog = Parser.parse text in
        (pending ~fingerprint:(Prog.fingerprint prog) (fun () -> prog), true)
  in
  Mutex.lock t.lock;
  if fresh then index_locked t text p.fingerprint;
  let hit = memory_hit_locked t p.key in
  Mutex.unlock t.lock;
  match hit with Some entry -> Memory_hit entry | None -> Pending p

let compile_text t ?pool_size ?run_cold ?should_stop ?on_epoch ?budget_seconds ?strategy ?gate
    ~scheme ~sf_bits ~waterline_bits ?max_epochs text =
  match lookup_text t ?strategy ~scheme ~sf_bits ~waterline_bits ?max_epochs text with
  | Memory_hit entry -> (entry, Memory)
  | Pending p -> complete t ?pool_size ?run_cold ?should_stop ?on_epoch ?budget_seconds ?gate p
