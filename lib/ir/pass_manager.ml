type pass = {
  name : string;
  description : string;
  run : Prog.t -> Prog.t;
}

exception Pass_failed of { pass : string; reason : string }

let () =
  Printexc.register_printer (function
    | Pass_failed { pass; reason } ->
        Some (Printf.sprintf "Pass_failed(pass %S: %s)" pass reason)
    | _ -> None)

let failed pass fmt = Printf.ksprintf (fun reason -> raise (Pass_failed { pass; reason })) fmt

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let registry : (string, pass) Hashtbl.t = Hashtbl.create 16

let valid_name s =
  s <> ""
  && String.for_all (function 'a' .. 'z' | '0' .. '9' | '-' -> true | _ -> false) s
  && s <> "fixpoint"

let register ?(description = "") name run =
  if not (valid_name name) then
    invalid_arg
      (Printf.sprintf
         "Pass_manager.register: %S is not a valid pass name (lowercase alphanumerics and \
          dashes, not \"fixpoint\")"
         name);
  if Hashtbl.mem registry name then
    invalid_arg (Printf.sprintf "Pass_manager.register: pass %S is already registered" name);
  Hashtbl.replace registry name { name; description; run }

let find name = Hashtbl.find_opt registry name

let registered () =
  Hashtbl.fold (fun _ p acc -> p :: acc) registry []
  |> List.sort (fun a b -> compare a.name b.name)

let known_names () = String.concat ", " (List.map (fun p -> p.name) (registered ()))

(* built-in passes *)
let () =
  register "cse" ~description:"common-subexpression elimination by value numbering" Passes.cse;
  register "dce" ~description:"remove operations that never reach an output" Passes.dce;
  register "constant-fold"
    ~description:"evaluate homomorphic operations over all-constant operands" Passes.constant_fold;
  register "fold-rotations"
    ~description:"combine single-use rotation chains; drop full-circle rotations"
    Passes.fold_rotations;
  register "early-modswitch"
    ~description:"absorb a single-use modswitch into its producing operation (EVA)"
    Passes.early_modswitch;
  register "fold-plain-muls"
    ~description:"fuse nested multiplications by constants (batching mask/coefficient chains)"
    Passes.fold_plain_muls;
  register "finalize"
    ~description:"fixpoint(cse,early-modswitch,cse,constant-fold,dce) in one sweep"
    (Passes.finalize ~early_modswitch:true);
  register "finalize-no-ems"
    ~description:"fixpoint(cse,constant-fold,dce) in one sweep (finalize without early-modswitch)"
    (Passes.finalize ~early_modswitch:false)

(* ------------------------------------------------------------------ *)
(* Pipeline AST, spec parser and printer                               *)
(* ------------------------------------------------------------------ *)

type pipeline =
  | Pass of string
  | Seq of pipeline list
  | Fixpoint of pipeline

let rec to_string = function
  | Pass name -> name
  | Seq items -> String.concat "," (List.map to_string items)
  | Fixpoint body -> "fixpoint(" ^ to_string body ^ ")"

(* Hand-rolled recursive-descent over a char cursor; the grammar is one
   production deep so no tokenizer is warranted. *)
let parse spec =
  let n = String.length spec in
  let pos = ref 0 in
  let error fmt = Printf.ksprintf (fun s -> raise (Failure s)) fmt in
  let skip_ws () =
    while !pos < n && (spec.[!pos] = ' ' || spec.[!pos] = '\t' || spec.[!pos] = '\n') do
      incr pos
    done
  in
  let ident () =
    skip_ws ();
    let start = !pos in
    while
      !pos < n && (match spec.[!pos] with 'a' .. 'z' | '0' .. '9' | '-' -> true | _ -> false)
    do
      incr pos
    done;
    if !pos = start then
      error "expected a pass name at position %d%s" start
        (if start < n then Printf.sprintf " (found %C)" spec.[start] else " (end of spec)");
    String.sub spec start (!pos - start)
  in
  let rec pipeline () =
    let first = item () in
    let rec more acc =
      skip_ws ();
      if !pos < n && spec.[!pos] = ',' then begin
        incr pos;
        more (item () :: acc)
      end
      else List.rev acc
    in
    match more [ first ] with [ single ] -> single | items -> Seq items
  and item () =
    let name = ident () in
    skip_ws ();
    if name = "fixpoint" then begin
      if !pos >= n || spec.[!pos] <> '(' then error "expected '(' after fixpoint";
      incr pos;
      let body = pipeline () in
      skip_ws ();
      if !pos >= n || spec.[!pos] <> ')' then error "unclosed fixpoint(...)";
      incr pos;
      Fixpoint body
    end
    else if find name = None then
      error "unknown pass %S (known passes: %s)" name (known_names ())
    else Pass name
  in
  match
    let p = pipeline () in
    skip_ws ();
    if !pos < n then error "trailing input at position %d (%C)" !pos spec.[!pos];
    p
  with
  | p -> Ok p
  | exception Failure msg -> Error (Printf.sprintf "invalid pipeline spec %S: %s" spec msg)

let parse_exn spec =
  match parse spec with Ok p -> p | Error msg -> invalid_arg ("Pass_manager.parse: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)
(* ------------------------------------------------------------------ *)

type timing = { pass : string; runs : int; seconds : float; ops_delta : int }

type stats = {
  mutex : Mutex.t;
  table : (string, timing) Hashtbl.t;
  mutable validate_seconds : float;
}

let create_stats () =
  { mutex = Mutex.create (); table = Hashtbl.create 16; validate_seconds = 0. }

let charge stats ~pass ~seconds ~ops_delta =
  Mutex.lock stats.mutex;
  let t =
    match Hashtbl.find_opt stats.table pass with
    | Some t ->
        { t with runs = t.runs + 1; seconds = t.seconds +. seconds;
          ops_delta = t.ops_delta + ops_delta }
    | None -> { pass; runs = 1; seconds; ops_delta }
  in
  Hashtbl.replace stats.table pass t;
  Mutex.unlock stats.mutex

let charge_validate stats ~seconds =
  Mutex.lock stats.mutex;
  stats.validate_seconds <- stats.validate_seconds +. seconds;
  Mutex.unlock stats.mutex

let timings stats =
  Mutex.lock stats.mutex;
  let l = Hashtbl.fold (fun _ t acc -> t :: acc) stats.table [] in
  Mutex.unlock stats.mutex;
  List.sort (fun a b -> compare (b.seconds, a.pass) (a.seconds, b.pass)) l

let validate_seconds stats =
  Mutex.lock stats.mutex;
  let s = stats.validate_seconds in
  Mutex.unlock stats.mutex;
  s

let pp_timings fmt ts =
  Format.fprintf fmt ";   %-18s %5s %11s %7s@\n" "pass" "runs" "seconds" "ops";
  List.iter
    (fun t ->
      Format.fprintf fmt ";   %-18s %5d %10.6fs %+7d@\n" t.pass t.runs t.seconds t.ops_delta)
    ts

type dump_selector = No_dump | Dump_all | Dump_passes of string list

type instrumentation = {
  verify : bool;
  typecheck : Typing.config option;
  dump_after : dump_selector;
  dump : pass:string -> Prog.t -> unit;
}

let default_dump ~pass p =
  Printf.printf "; IR after %s (%d ops)\n%s" pass (Prog.num_ops p) (Printer.to_string p)

let instrumentation ?(verify = true) ?typecheck ?(dump_after = No_dump) ?(dump = default_dump)
    () =
  { verify; typecheck; dump_after; dump }

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let max_fixpoint_iterations = 64

(* [validated] holds the program this run last validated: a pass that
   returns its input physically (the no-op contract) hands back a program
   already known to be valid, and re-validating it is pure cost. *)
let check_after ?stats instr ~validated name p =
  let known_valid = match !validated with Some q -> q == p | None -> false in
  if instr.verify && not known_valid then begin
    let t0 = Unix.gettimeofday () in
    let r = Prog.validate p in
    Option.iter (fun s -> charge_validate s ~seconds:(Unix.gettimeofday () -. t0)) stats;
    match r with
    | Ok () -> validated := Some p
    | Error msg -> failed name "produced a structurally invalid program: %s" msg
  end;
  (match instr.typecheck with
  | None -> ()
  | Some cfg -> (
      match Typing.check cfg p with
      | Ok () -> ()
      | Error d -> failed name "produced an ill-typed program: %s" (Diagnostic.to_string d)));
  match instr.dump_after with
  | No_dump -> ()
  | Dump_all -> instr.dump ~pass:name p
  | Dump_passes names -> if List.mem name names then instr.dump ~pass:name p

let run_pass ?instr ?stats ~validated { name; run; _ } p =
  let before = Prog.num_ops p in
  let t0 = Unix.gettimeofday () in
  let p' =
    try run p with
    | Pass_failed _ as e -> raise e
    | exn -> failed name "raised %s" (Printexc.to_string exn)
  in
  let seconds = Unix.gettimeofday () -. t0 in
  Option.iter (fun s -> charge s ~pass:name ~seconds ~ops_delta:(Prog.num_ops p' - before)) stats;
  Option.iter (fun i -> check_after ?stats i ~validated name p') instr;
  p'

let run ?instr ?stats pipeline p =
  let validated = ref None in
  let rec go pl p =
    match pl with
    | Pass name -> (
        match find name with
        | Some pass -> run_pass ?instr ?stats ~validated pass p
        | None -> failed name "unknown pass (known passes: %s)" (known_names ()))
    | Seq items -> List.fold_left (fun p item -> go item p) p items
    | Fixpoint body ->
        let rec iterate p k =
          if k = 0 then
            failed (to_string pl) "did not converge within %d iterations" max_fixpoint_iterations
          else
            let p' = go body p in
            if p' == p || Prog.equal p p' then p' else iterate p' (k - 1)
        in
        iterate p max_fixpoint_iterations
  in
  go pipeline p

(* ------------------------------------------------------------------ *)
(* Standard pipelines                                                  *)
(* ------------------------------------------------------------------ *)

let cleanup = parse_exn "cse,constant-fold,fixpoint(fold-rotations,dce)"
let finalize_ems = parse_exn "finalize"
let finalize_no_ems = parse_exn "finalize-no-ems"
let finalize ~early_modswitch = if early_modswitch then finalize_ems else finalize_no_ems
let reference_ems = parse_exn "fixpoint(cse,early-modswitch,cse,constant-fold,dce)"
let reference_no_ems = parse_exn "fixpoint(cse,constant-fold,dce)"

let finalize_reference ~early_modswitch =
  if early_modswitch then reference_ems else reference_no_ems

let default_pipeline p = run cleanup p
