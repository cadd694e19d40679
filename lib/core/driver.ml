module Prog = Hecate_ir.Prog
module Typing = Hecate_ir.Typing
module Passes = Hecate_ir.Passes
module Pass_manager = Hecate_ir.Pass_manager
module Diagnostic = Hecate_ir.Diagnostic
module Parser = Hecate_ir.Parser

type scheme = Eva | Pars | Smse | Hecate

type exploration_stats = {
  units : int;
  smu_edges : int;
  use_def_edges : int;
  epochs : int;
  plans_explored : int;
  cache_hits : int;
  trace : Explore.epoch_trace list;
  elapsed_seconds : float;
  best_plan : Explore.plan;
  strategy : string;
  strategies : Explore.strategy_stats list;
  keyed_plan : (string * int) list;
  seeded : bool;
}

type compiled = {
  prog : Prog.t;
  params : Paramselect.t;
  estimated_seconds : float;
  exploration : exploration_stats option;
  pass_timings : Pass_manager.timing list;
}

let scheme_name = function Eva -> "EVA" | Pars -> "PARS" | Smse -> "SMSE" | Hecate -> "HECATE"
let all_schemes = [ Eva; Pars; Smse; Hecate ]

(* The finalize pipeline and the type check, which leaves every op's type
   on the op; parameters are selected from those by whoever needs them. *)
let finalize_typed ?(early_modswitch = true) ?(passes = Pass_manager.finalize ~early_modswitch)
    ?(instr = Pass_manager.instrumentation ()) ?stats ~cfg prog =
  let prog = Pass_manager.run ~instr ?stats passes prog in
  (match Typing.check cfg prog with Ok () -> () | Error d -> Diagnostic.error d);
  prog

let finalize ?q0_bits ?early_modswitch ?passes ?instr ?stats ~cfg prog =
  let prog = finalize_typed ?early_modswitch ?passes ?instr ?stats ~cfg prog in
  (prog, Paramselect.of_prog ?q0_bits ~sf_bits:(int_of_float cfg.Typing.sf) prog)

(* Canonical per-edge keys: each SMU edge named by the sorted list of its
   (canonical op id, operand) sites. Alpha-equivalent programs assign
   corresponding ops equal canonical ids, so the keys — unlike raw edge
   indices, which follow op order — survive renumbering, and a cached
   plan transports onto any structurally matching program. *)
let edge_keys prog (edges : Smu.edge array) =
  let ids = Prog.canonical_ids prog in
  Array.map
    (fun (e : Smu.edge) ->
      e.Smu.sites
      |> List.map (fun (op, operand) -> Printf.sprintf "%d.%d" ids.(op) operand)
      |> List.sort String.compare
      |> String.concat ",")
    edges

(* Re-key a cached (site key -> degree) plan onto the current program's
   edges; [None] when nothing carries over. *)
let plan_of_keyed keys keyed =
  match keyed with
  | [] -> None
  | _ ->
      let tbl = Hashtbl.create 16 in
      List.iter (fun (k, d) -> Hashtbl.replace tbl k d) keyed;
      let p =
        Array.map (fun k -> Option.value ~default:0 (Hashtbl.find_opt tbl k)) keys
      in
      if Array.exists (fun d -> d > 0) p then Some p else None

let compile ?(model = Costmodel.analytic ()) ?(max_epochs = 100) ?(naive_exploration = false)
    ?q0_bits ?early_modswitch ?(downscale_analysis = true) ?smu_phases
    ?pool_size ?(passes = Pass_manager.cleanup) ?finalize_passes
    ?(instr = Pass_manager.instrumentation ())
    ?(strategy = Explore.default_strategy) ?gate ?(warm_plans = [])
    ?should_stop ?on_epoch scheme ~sf_bits ~waterline_bits prog =
  if not (Explore.known_strategy strategy) then
    invalid_arg
      (Printf.sprintf "Driver.compile: unknown exploration strategy %S (known: %s, %s)"
         strategy
         (String.concat ", " (Explore.strategy_names ()))
         Explore.portfolio_name);
  let cfg = Typing.config ~sf:(float_of_int sf_bits) ~waterline:waterline_bits () in
  let stats = Pass_manager.create_stats () in
  (* Reject managed inputs up front, for every scheme: Codegen would raise
     the same diagnostic for [Eva]/[Pars], but the exploring schemes hit
     [Smu.generate]'s bare [Invalid_argument] first. *)
  (match
     Array.find_opt
       (fun (o : Prog.op) ->
         match o.Prog.kind with
         | Prog.Encode _ | Prog.Rescale | Prog.Modswitch | Prog.Upscale _ | Prog.Downscale _ ->
             true
         | _ -> false)
       prog.Prog.body
   with
  | Some o ->
      Diagnostic.error
        (Diagnostic.at o
           (Diagnostic.v ~code:Diagnostic.Already_managed
              ~hint:
                "the driver inserts all scale management itself; strip the existing \
                 rescale/modswitch/encode operations first"
              "Driver.compile: input program already contains scale-management operations"))
  | None -> ());
  let prog = Pass_manager.run ~instr ~stats passes prog in
  let generator ~hook =
    match scheme with
    | Eva | Smse -> Codegen.waterline cfg ~hook prog
    | Pars | Hecate -> Codegen.pars cfg ~hook ~downscale_analysis prog
  in
  let finalized managed =
    finalize_typed ?early_modswitch ?passes:finalize_passes ~instr ~stats ~cfg managed
  in
  let run_finalized ~hook = finalized (generator ~hook) in
  (* one parameter selection per candidate, from the types finalize left *)
  let params_of p = Paramselect.of_prog ?q0_bits ~sf_bits p in
  let evaluate p =
    let params = params_of p in
    Estimator.estimate ~model ~params ~n:params.Paramselect.secure_n p
  in
  (* A scored candidate is dead once priced, and nothing else holds its
     programs: discard both, so their bodies stop pinning young ops (see
     [Prog.discard]). The finalized program may share op records with
     the generator's output; discarding a body leaves the records alone. *)
  let score ~hook =
    let managed = generator ~hook in
    let p = finalized managed in
    let cost = evaluate p in
    Prog.discard p;
    if p != managed then Prog.discard managed;
    cost
  in
  match scheme with
  | Eva | Pars ->
      let managed = run_finalized ~hook:Codegen.no_hook in
      let params = params_of managed in
      {
        prog = managed;
        params;
        estimated_seconds =
          Estimator.estimate ~model ~params ~n:params.Paramselect.secure_n managed;
        exploration = None;
        pass_timings = Pass_manager.timings stats;
      }
  | Smse | Hecate ->
      let smu = Smu.generate ?phases:smu_phases prog in
      let edges = if naive_exploration then Smu.naive_edges prog else smu.Smu.edges in
      let keys = edge_keys prog edges in
      let warm_starts = List.filter_map (plan_of_keyed keys) warm_plans in
      let strategies =
        if strategy = Explore.portfolio_name then None else Some [ strategy ]
      in
      let t0 = Unix.gettimeofday () in
      let result =
        Explore.portfolio ~codegen:run_finalized ~score ~edges ?strategies
          ~max_epochs ?pool_size ?should_stop ?on_epoch ~warm_starts ?gate ()
      in
      let explore_seconds = Unix.gettimeofday () -. t0 in
      let best = result.Explore.p_best_prog in
      let params = params_of best in
      let winner =
        List.find
          (fun (s : Explore.strategy_stats) -> s.Explore.strategy = result.Explore.p_winner)
          result.Explore.p_strategies
      in
      let best_plan = result.Explore.p_best_plan in
      {
        prog = best;
        params;
        estimated_seconds = result.Explore.p_best_cost;
        exploration =
          Some
            {
              units = Smu.unit_count smu;
              smu_edges = Array.length edges;
              use_def_edges = smu.Smu.use_def_edges;
              epochs = winner.Explore.s_epochs;
              plans_explored = result.Explore.p_plans_explored;
              cache_hits = result.Explore.p_cache_hits;
              trace = winner.Explore.s_trace;
              elapsed_seconds = explore_seconds;
              best_plan;
              strategy = result.Explore.p_winner;
              strategies = result.Explore.p_strategies;
              keyed_plan =
                List.filter_map
                  (fun i ->
                    if best_plan.(i) > 0 then Some (keys.(i), best_plan.(i)) else None)
                  (List.init (Array.length best_plan) Fun.id);
              seeded = result.Explore.p_seeded;
            };
        pass_timings = Pass_manager.timings stats;
      }

let diagnose f =
  match f () with
  | v -> Ok v
  | exception Explore.Cancelled -> raise Explore.Cancelled
  | exception Diagnostic.Error d -> Error d
  | exception Parser.Parse_error { line; message } ->
      Error
        (Diagnostic.v ~code:Diagnostic.Parse_error
           ~hint:"see docs/ARCHITECTURE.md for the textual program grammar"
           (Printf.sprintf "line %d: %s" line message))
  | exception Pass_manager.Pass_failed { pass; reason } ->
      Error
        (Diagnostic.v ~code:Diagnostic.Internal
           ~hint:"this is a compiler bug; re-run with --print-ir-after to bisect the pipeline"
           (Printf.sprintf "pass %s failed: %s" pass reason))
  | exception Invalid_argument msg ->
      Error
        (Diagnostic.v ~code:Diagnostic.Precondition
           ~hint:
             "the configuration cannot accommodate this program; adjust the waterline, \
              rescaling factor or program depth"
           msg)
  | exception Sys_error msg -> Error (Diagnostic.v ~code:Diagnostic.Precondition msg)
  | exception e ->
      Error
        (Diagnostic.v ~code:Diagnostic.Internal ~hint:"this is a compiler bug"
           (Printf.sprintf "uncaught exception: %s" (Printexc.to_string e)))

let estimate_at ?(model = Costmodel.analytic ()) compiled ~n =
  Estimator.estimate ~model ~params:compiled.params ~n compiled.prog
