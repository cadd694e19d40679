module Driver = Hecate.Driver
module Apps = Hecate_apps.Apps
module Eval = Hecate_ckks.Eval
module Stats = Hecate_support.Stats

let default_waterlines = List.init 36 (fun i -> 10. +. (0.5 *. float_of_int i))

type selection = {
  scheme : Driver.scheme;
  waterline_bits : float;
  compiled : Driver.compiled;
  rmse : float;
  max_abs_error : float;
  actual_seconds : float;
  estimated_seconds_exec : float;
  exec_n : int;
  configs_executed : int;
}

let estimate_only ?(waterlines = default_waterlines) ?(sf_bits = 28) ?(max_epochs = 100) ~scheme
    (bench : Apps.t) =
  let candidates =
    List.filter_map
      (fun wl ->
        match Driver.compile scheme ~max_epochs ~sf_bits ~waterline_bits:wl bench.Apps.prog with
        | compiled -> Some (wl, compiled)
        | exception Invalid_argument _ -> None
        | exception Hecate_ir.Diagnostic.Error _ -> None
        | exception Hecate_ir.Pass_manager.Pass_failed { pass; reason } ->
            (* A pass-manager failure at one waterline is a compiler bug for
               that configuration, not an infeasibility — skip the waterline
               so the rest of the sweep survives, but say so loudly. *)
            Printf.eprintf
              "hecate: warning: %s/%s wl=%g: pass %s failed (%s); waterline skipped\n%!"
              bench.Apps.name (Driver.scheme_name scheme) wl pass reason;
            None)
      waterlines
  in
  List.sort
    (fun (_, a) (_, b) ->
      compare a.Driver.estimated_seconds b.Driver.estimated_seconds)
    candidates

(* Key generation dominates sweep time; contexts are shared across
   configurations with the same chain shape and rotation set. *)
let context_cache : (int * int * int * int * int list, Eval.t) Hashtbl.t = Hashtbl.create 16

(* held while the table is read or filled: concurrent compiles (the oracle
   gate inside hecated) look contexts up from several domains *)
let context_lock = Mutex.create ()

let cached_context ~(params : Hecate.Paramselect.t) ~rotations =
  let min_n =
    let rec up n = if n / 2 >= params.Hecate.Paramselect.slot_count then n else up (2 * n) in
    up 16
  in
  let key =
    ( min_n,
      params.Hecate.Paramselect.q0_bits,
      params.Hecate.Paramselect.sf_bits,
      params.Hecate.Paramselect.chain_levels,
      rotations )
  in
  Mutex.lock context_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock context_lock)
    (fun () ->
      match Hashtbl.find_opt context_cache key with
      | Some eval -> eval
      | None ->
          if Hashtbl.length context_cache > 32 then Hashtbl.reset context_cache;
          let eval = Interp.context ~params ~rotations () in
          Hashtbl.replace context_cache key eval;
          eval)

let execution eval ~waterline_bits prog ~inputs =
  let schedule = Schedule.lower prog in
  let run _ = (Schedule.run eval ~waterline_bits schedule ~inputs).Schedule.elapsed_seconds in
  fun k -> List.fold_left ( +. ) 0. (List.init k run)

let search_rounds = 5

let search ?waterlines ?(error_bound = 0x1p-8) ?(sf_bits = 28) ?(max_epochs = 100)
    ?(use_profiled_model = false) ?(feasible_target = 3) ~scheme (bench : Apps.t) =
  let ranked = estimate_only ?waterlines ~sf_bits ~max_epochs ~scheme bench in
  let executed = ref 0 in
  (* walk configurations fastest-estimated first; keep executing until
     several feasible ones are in hand, then time those in the same rounds
     and report the fastest by median -- the paper's "minimum latency among
     error-bound-satisfying waterlines" *)
  let rec walk found = function
    | [] -> found
    | _ when List.length found >= feasible_target -> found
    | (wl, (compiled : Driver.compiled)) :: rest -> (
        let attempt () =
          incr executed;
          let rotations = Interp.required_rotations compiled.Driver.prog in
          let eval = cached_context ~params:compiled.Driver.params ~rotations in
          let acc =
            Accuracy.measure eval ~waterline_bits:wl compiled.Driver.prog ~inputs:bench.Apps.inputs
              ~valid_slots:bench.Apps.valid_slots
          in
          let exec_n = (Eval.params eval).Hecate_ckks.Params.n in
          let model =
            if use_profiled_model then
              Profile.cached_model ~n:exec_n
                ~levels:compiled.Driver.params.Hecate.Paramselect.chain_levels
                ~q0_bits:compiled.Driver.params.Hecate.Paramselect.q0_bits
                ~sf_bits:compiled.Driver.params.Hecate.Paramselect.sf_bits ()
            else Hecate.Costmodel.analytic ()
          in
          (eval, acc, exec_n, Driver.estimate_at ~model compiled ~n:exec_n)
        in
        match attempt () with
        | eval, acc, exec_n, est when acc.Accuracy.rmse <= error_bound ->
            let sel =
              {
                scheme;
                waterline_bits = wl;
                compiled;
                rmse = acc.Accuracy.rmse;
                max_abs_error = acc.Accuracy.max_abs_error;
                actual_seconds = acc.Accuracy.elapsed_seconds;
                estimated_seconds_exec = est;
                exec_n;
                configs_executed = !executed;
              }
            in
            let run =
              execution eval ~waterline_bits:wl compiled.Driver.prog ~inputs:bench.Apps.inputs
            in
            walk ((sel, run) :: found) rest
        | _ -> walk found rest
        | exception (Invalid_argument _ | Eval.Scale_mismatch _ | Eval.Level_mismatch _) ->
            walk found rest)
  in
  match Array.of_list (List.rev (walk [] ranked)) with
  | [||] -> None
  | feasible ->
      let median = (Stats.interleave ~rounds:search_rounds (Array.map snd feasible)).Stats.median in
      let best = ref 0 in
      Array.iteri (fun i t -> if t < median.(!best) then best := i) median;
      Some { (fst feasible.(!best)) with actual_seconds = median.(!best) }
