(* hecated: the persistent HECATE compilation server.

   Hosts a content-addressed plan cache behind a newline-delimited JSON
   protocol on a Unix-domain socket (or stdin/stdout with --stdio).
   `hecatec compile --remote SOCK file.hec` is the matching client. *)

open Cmdliner
module Plancache = Hecate.Plancache
module Server = Hecate_serve.Server

let default_socket () =
  match Sys.getenv_opt "HECATE_SOCKET" with
  | Some s when s <> "" -> s
  | _ ->
      let dir =
        match Sys.getenv_opt "XDG_RUNTIME_DIR" with
        | Some d when d <> "" -> d
        | _ -> Filename.get_temp_dir_name ()
      in
      Filename.concat dir (Printf.sprintf "hecated-%d.sock" (Unix.getuid ()))

let socket_arg =
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket to listen on. Default: $(b,\\$HECATE_SOCKET), else \
               $(b,hecated-<uid>.sock) under \\$XDG_RUNTIME_DIR or the temp directory.")

let stdio_arg =
  Arg.(value & flag & info [ "stdio" ]
         ~doc:"Serve a single session over stdin/stdout instead of a socket \
               (for tests and piping).")

let cache_dir_arg =
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
         ~doc:"On-disk plan cache root. Default: $(b,\\$HECATE_CACHE_DIR), else \
               $(b,\\$XDG_CACHE_HOME/hecate), else $(b,~/.cache/hecate).")

let no_disk_arg =
  Arg.(value & flag & info [ "no-disk" ]
         ~doc:"Keep the plan cache in memory only; nothing is persisted.")

let capacity_arg =
  Arg.(value & opt int 128 & info [ "capacity" ] ~docv:"N"
         ~doc:"In-memory plan cache capacity (LRU beyond it).")

let workers_arg =
  Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N"
         ~doc:"Concurrent compilation jobs (worker threads).")

let jobs_arg =
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Domains per exploration, the compile's own included: $(docv) - 1 \
               more are spawned per compile, and 1 spawns none (default: available \
               cores - 1). With more than one CPU each compile runs on a domain of \
               its own; on one, on its worker thread.")

let oracle_arg =
  Arg.(value & flag & info [ "oracle" ]
         ~doc:"Re-validate every exploration winner through the differential oracle \
               (typecheck, print/parse round-trip, encrypted execution against the \
               plaintext reference, EVA-baseline agreement) before it is returned or \
               cached. Rejected plans surface as error events with code \
               $(b,oracle-rejected) and never enter the plan cache.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log accepted and finished jobs to stderr.")

let main socket stdio cache_dir no_disk capacity workers jobs oracle verbose =
  let dir = if no_disk then None else
      match cache_dir with Some d -> Some d | None -> Plancache.default_dir ()
  in
  let cache =
    match dir with
    | Some dir -> Plancache.create ~dir ~capacity ()
    | None -> Plancache.create ~capacity ()
  in
  (* Surface the persisted plan corpus so cold compiles of structurally
     similar programs warm-start from previous winners immediately. *)
  let preloaded = Plancache.preload cache in
  if verbose && preloaded > 0 then
    Printf.eprintf "hecated: preloaded %d cached plan(s)\n%!" preloaded;
  let server = Server.create ?pool_size:jobs ~workers ~oracle ~verbose cache in
  if stdio then begin
    Server.serve_stdio server;
    `Ok ()
  end
  else begin
    let socket_path = match socket with Some s -> s | None -> default_socket () in
    match Server.serve server ~socket_path with
    | () -> `Ok ()
    | exception Invalid_argument msg -> `Error (false, msg)
    | exception Unix.Unix_error (err, fn, arg) ->
        `Error
          (false,
           Printf.sprintf "%s: %s%s" fn (Unix.error_message err)
             (if arg = "" then "" else Printf.sprintf " (%s)" arg))
  end

let () =
  let doc = "persistent HECATE compilation server with a content-addressed plan cache" in
  let info_ = Cmd.info "hecated" ~doc in
  let term =
    Term.(ret
            (const main $ socket_arg $ stdio_arg $ cache_dir_arg $ no_disk_arg $ capacity_arg
             $ workers_arg $ jobs_arg $ oracle_arg $ verbose_arg))
  in
  exit (Cmd.eval (Cmd.v info_ term))
