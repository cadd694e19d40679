(* Differential check of the abstract scorer (Hecate.Scorer) against the
   built scoring path it replaced (Score_ref): for every candidate a
   search scores, the same count matrix and parameters, or both
   infeasible. The search runs on the reference's costs, as Driver.compile
   once ran it, and must score as many plans, and choose the plan and
   estimate, that Driver.compile does with the abstract scorer. *)

module Prog = Hecate_ir.Prog
module Typing = Hecate_ir.Typing
module Diagnostic = Hecate_ir.Diagnostic
module Pass_manager = Hecate_ir.Pass_manager
module Driver = Hecate.Driver
module Explore = Hecate.Explore
module Estimator = Hecate.Estimator
module Paramselect = Hecate.Paramselect
module Scorer = Hecate.Scorer
module Smu = Hecate.Smu
module Score_ref = Score_ref

let sf_bits = 28
let model = Hecate.Costmodel.analytic ()

let generator = function
  | Driver.Eva | Driver.Smse -> Scorer.Waterline
  | Driver.Pars | Driver.Hecate -> Scorer.Pars { downscale_analysis = true }

let verdict f =
  match f () with
  | r -> Ok r
  | exception Invalid_argument m -> Error m
  | exception Diagnostic.Error d -> Error (Diagnostic.to_string d)

let show = function
  | Ok ((p : Paramselect.t), c) ->
      Printf.sprintf "chain %d, n %d: %s" p.Paramselect.chain_levels p.Paramselect.secure_n
        (Estimator.to_string c)
  | Error m -> "infeasible (" ^ m ^ ")"

(* The reference's verdict on one candidate, and the difference, if any. *)
let compare_one ~scorer ~reference ~hook =
  let want = verdict (fun () -> reference ~hook) in
  let got = verdict (fun () -> Scorer.count scorer ~hook) in
  let difference =
    match (want, got) with
    | Ok (p, c), Ok (p', c') when p = p' && Estimator.equal c c' -> None
    | Error _, Error _ -> None
    | _ -> Some (Printf.sprintf "abstract %s, built %s" (show got) (show want))
  in
  (want, difference)

(* The cleaned-up source of a target, as Driver.compile cleans it. *)
let source (t : Modswitch_sweep.target) =
  Pass_manager.run (Option.value t.Modswitch_sweep.cleanup ~default:Pass_manager.cleanup)
    t.Modswitch_sweep.prog

type tally = { candidates : int; infeasible : int }

let bits = Printf.sprintf "%h"

(* Run the search of [t] under [scheme]/[strategy] with both scorers on
   every candidate; [Error] names the first difference. *)
let check_search ?(pool_size = 1) ~early_modswitch (t : Modswitch_sweep.target) (scheme, strategy) =
  let where =
    Printf.sprintf "%s, %s, %s, early-modswitch %b, pool %d" t.Modswitch_sweep.label
      (Driver.scheme_name scheme) strategy early_modswitch pool_size
  in
  let cfg = Typing.config ~sf:(float_of_int sf_bits) ~waterline:t.Modswitch_sweep.waterline () in
  let prog = source t in
  match Scorer.create cfg (generator scheme) ~early_modswitch ~sf_bits prog with
  | None -> Error (where ^ ": the scorer does not model the source")
  | Some scorer -> (
      let lock = Mutex.create () in
      let candidates = ref 0 and infeasible = ref 0 and failure = ref None in
      let reference ~hook = Score_ref.counts ~scheme ~cfg ~early_modswitch ~hook prog in
      let score ~hook =
        let want, difference = compare_one ~scorer ~reference ~hook in
        Mutex.protect lock (fun () ->
            incr candidates;
            (match want with Error _ -> incr infeasible | Ok _ -> ());
            match (difference, !failure) with
            | Some d, None -> failure := Some d
            | _ -> ());
        match want with
        | Ok (params, counts) ->
            Estimator.price ~model ~params ~n:params.Paramselect.secure_n counts
        | Error m -> invalid_arg m
      in
      let codegen ~hook =
        fst (Driver.finalize ~early_modswitch ~cfg (Score_ref.generate ~scheme ~cfg ~hook prog))
      in
      let edges = (Smu.generate prog).Smu.edges in
      let strategies = if strategy = Explore.portfolio_name then None else Some [ strategy ] in
      let r = Explore.portfolio ~codegen ~score ~edges ?strategies ~pool_size () in
      match !failure with
      | Some d -> Error (Printf.sprintf "%s: %s" where d)
      | None ->
          let c =
            Driver.compile ~pool_size ~early_modswitch ?passes:t.Modswitch_sweep.cleanup ~strategy
              scheme ~sf_bits ~waterline_bits:t.Modswitch_sweep.waterline t.Modswitch_sweep.prog
          in
          let e = Option.get c.Driver.exploration in
          if e.Driver.plans_explored <> r.Explore.p_plans_explored then
            Error
              (Printf.sprintf "%s: Driver.compile scored %d plans, the built search %d" where
                 e.Driver.plans_explored r.Explore.p_plans_explored)
          else if e.Driver.best_plan <> r.Explore.p_best_plan then
            Error (where ^ ": Driver.compile chose another plan")
          else if bits c.Driver.estimated_seconds <> bits r.Explore.p_best_cost then
            Error
              (Printf.sprintf "%s: Driver.compile estimates %s, the built search %s" where
                 (bits c.Driver.estimated_seconds) (bits r.Explore.p_best_cost))
          else Ok { candidates = !candidates; infeasible = !infeasible })

(* Every exploring (scheme, strategy) pair, with and without
   early-modswitch. *)
let configurations () =
  List.concat_map
    (fun early_modswitch ->
      List.concat_map
        (fun scheme ->
          List.map (fun s -> (early_modswitch, (scheme, s))) (Explore.strategy_names ()))
        [ Driver.Smse; Driver.Hecate ])
    [ true; false ]

(* Plans on a program's edges: the zero plan, each edge raised by one
   (the first [singles]), and [random] plans of degrees 0 to 3. *)
let plans ~seed ~singles ~random edges =
  let n = Array.length edges in
  let st = Random.State.make [| seed |] in
  (Array.make n 0
  :: List.init (Int.min singles n) (fun i -> Array.init n (fun j -> if j = i then 1 else 0)))
  @ List.init (if n = 0 then 0 else random) (fun _ -> Array.init n (fun _ -> Random.State.int st 4))

(* Both scorers on [plans] of one source: the candidates compared and how
   many of them were infeasible, or the first difference. *)
let check_plans ~where ~scheme ~early_modswitch ~waterline prog plans =
  let cfg = Typing.config ~sf:(float_of_int sf_bits) ~waterline () in
  match Scorer.create cfg (generator scheme) ~early_modswitch ~sf_bits prog with
  | None -> Error (where ^ ": the scorer does not model the source")
  | Some scorer ->
      let edges = (Smu.generate prog).Smu.edges in
      let hook_of = Explore.hook_of_plan edges in
      let reference ~hook = Score_ref.counts ~scheme ~cfg ~early_modswitch ~hook prog in
      List.fold_left
        (fun acc plan ->
          match acc with
          | Error _ -> acc
          | Ok tally -> (
              match compare_one ~scorer ~reference ~hook:(hook_of plan) with
              | want, None ->
                  Ok
                    {
                      candidates = tally.candidates + 1;
                      infeasible =
                        (tally.infeasible + match want with Error _ -> 1 | Ok _ -> 0);
                    }
              | _, Some d ->
                  Error
                    (Printf.sprintf "%s, plan [%s]: %s\n%s" where
                       (String.concat " " (Array.to_list (Array.map string_of_int plan)))
                       d (Hecate_ir.Printer.to_string prog))))
        (Ok { candidates = 0; infeasible = 0 })
        (plans edges)
