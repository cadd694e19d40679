module Pool = Hecate_support.Pool
module Prng = Hecate_support.Prng
module Diagnostic = Hecate_ir.Diagnostic

type plan = int array

type epoch_trace = {
  epoch : int;
  candidates : int;
  cache_hits : int;
  best_cost : float;
  elapsed_seconds : float;
}

(* One slot per (op, operand) site at [2 * op_id + operand]: ops have at
   most two operands. Sites past the last one an edge names, and operands
   other than 0 and 1, answer 0. Where two edges share a site, the later
   one with a non-zero degree wins. *)
let hook_of_plan (edges : Smu.edge array) =
  let size =
    Array.fold_left
      (fun acc (e : Smu.edge) ->
        List.fold_left (fun acc (op, operand) -> Int.max acc ((2 * op) + operand + 1)) acc e.Smu.sites)
      0 edges
  in
  fun (plan : plan) ->
    let degree = Array.make size 0 in
    Array.iteri
      (fun i (e : Smu.edge) ->
        if plan.(i) > 0 then
          List.iter (fun (op, operand) -> degree.((2 * op) + operand) <- plan.(i)) e.Smu.sites)
      edges;
    fun ~op_id ~operand ->
      let k = (2 * op_id) + operand in
      if (operand = 0 || operand = 1) && k >= 0 && k < size then Array.unsafe_get degree k
      else 0

(* Plans keyed by every entry: [Hashtbl.hash] reads only the first ten
   entries of an array, so plans that differ past index 9 would share a
   bucket. The final multiply-xorshift spreads the sum into the low bits
   the table indexes by. *)
let hash_plan (plan : plan) =
  let h = ref (Array.length plan) in
  for i = 0 to Array.length plan - 1 do
    h := (!h * 31) + Array.unsafe_get plan i
  done;
  let h = !h * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

module Plan_table = Hashtbl.Make (struct
  type t = plan

  let equal (a : plan) (b : plan) =
    Array.length a = Array.length b
    &&
    let rec go i = i < 0 || (Array.unsafe_get a i = Array.unsafe_get b i && go (i - 1)) in
    go (Array.length a - 1)

  let hash = hash_plan
end)

(* The ±1 neighbourhood of [plan], in the deterministic tie-break order:
   ascending edge index, the -1 move (where legal) before the +1 move. *)
let moves_of (plan : plan) =
  let acc = ref [] in
  for i = Array.length plan - 1 downto 0 do
    let shift delta =
      let p = Array.copy plan in
      p.(i) <- p.(i) + delta;
      p
    in
    acc := shift 1 :: !acc;
    if plan.(i) > 0 then acc := shift (-1) :: !acc
  done;
  !acc

(* [moves_of] with the (edge, delta) labels kept — the gradient strategy
   needs to know which single move touched which edge. Same order. *)
let labelled_moves_of (plan : plan) =
  let acc = ref [] in
  for i = Array.length plan - 1 downto 0 do
    let shift delta =
      let p = Array.copy plan in
      p.(i) <- p.(i) + delta;
      (i, delta, p)
    in
    acc := shift 1 :: !acc;
    if plan.(i) > 0 then acc := shift (-1) :: !acc
  done;
  !acc

exception Cancelled

(* ------------------------------------------------------------------ *)
(* Shared evaluation context                                           *)
(* ------------------------------------------------------------------ *)

(* Every candidate evaluation — the base plan, warm-start seeds, and each
   strategy's neighbourhoods — flows through one memoized batch evaluator.
   The memo maps plan contents to cost and is read and written by the
   coordinating domain only; it and the pool's worker domains run the
   pure scoring closure. Because costs are a pure function of the
   plan, sharing the memo across portfolio strategies cannot change any
   strategy's trajectory — only the hit/miss accounting. Only costs are
   kept: a scored candidate's program is dead once its score returns. *)
type context = {
  ctx_run : plan -> float;
  ctx_memo : float Plan_table.t;
  ctx_pool : Pool.t;
  mutable ctx_explored : int;
  mutable ctx_hits : int;
}

type batch_eval = plan array -> float array * int

(* Evaluate a batch of plans: split cached from fresh (and fresh
   duplicates within the batch) before dispatch, so hit/miss accounting
   and every downstream winner rule are independent of the pool size. *)
let eval_batch ctx (plans : plan array) : float array * int =
  let n = Array.length plans in
  let hits = ref 0 in
  let seen = Plan_table.create (2 * n) in
  let fresh_rev = ref [] in
  Array.iteri
    (fun i p ->
      if Plan_table.mem ctx.ctx_memo p || Plan_table.mem seen p then
        incr hits (* cached, or a duplicate within the batch *)
      else begin
        Plan_table.replace seen p ();
        fresh_rev := i :: !fresh_rev
      end)
    plans;
  let fresh_idx = Array.of_list (List.rev !fresh_rev) in
  let fresh = Array.map (fun i -> plans.(i)) fresh_idx in
  let costs = Pool.map_array ctx.ctx_pool ~f:ctx.ctx_run fresh in
  Array.iteri (fun k i -> Plan_table.replace ctx.ctx_memo plans.(i) costs.(k)) fresh_idx;
  ctx.ctx_explored <- ctx.ctx_explored + Array.length fresh;
  ctx.ctx_hits <- ctx.ctx_hits + !hits;
  (Array.map (Plan_table.find ctx.ctx_memo) plans, !hits)

(* ------------------------------------------------------------------ *)
(* Strategy registry                                                   *)
(* ------------------------------------------------------------------ *)

type step = {
  step_plan : plan;
  step_cost : float;
  step_candidates : int;
  step_hits : int;
  step_improved : bool;
  step_finished : bool;
}

type stepper = unit -> step

type strategy_params = { beam_width : int; prng_seed : int; anneal_proposals : int }

type strategy_maker =
  params:strategy_params ->
  eval:batch_eval ->
  edges:Smu.edge array ->
  base:plan * float ->
  seeds:(plan * float) list ->
  stepper

(* Best of a non-empty (plan, cost) list, ties to the earliest entry. *)
let best_of first rest =
  List.fold_left
    (fun ((_, bc) as b) ((_, c) as x) -> if c < bc then x else b)
    first rest

(* --- hill-climb: the paper's steepest-ascent baseline ------------------ *)

let make_hill_climb ~params:_ ~eval ~edges:_ ~base ~seeds () =
  let cur_plan, cur_cost = ref (fst base), ref (snd base) in
  let () =
    let p, c = best_of base seeds in
    cur_plan := p;
    cur_cost := c
  in
  fun () ->
    let moves = Array.of_list (moves_of !cur_plan) in
    let res, hits = eval moves in
    (* Deterministic winner: strictly improving, lowest cost; ties fall to
       the earliest move (lowest edge index, -1 before +1). With a warm
       memo a cached candidate can win too — its cost is just as real. *)
    let winner = ref None in
    Array.iteri
      (fun i cost ->
        if cost < !cur_cost then
          match !winner with
          | Some (_, c) when c <= cost -> ()
          | _ -> winner := Some (moves.(i), cost))
      res;
    match !winner with
    | Some (plan, cost) ->
        cur_plan := plan;
        cur_cost := cost;
        {
          step_plan = plan;
          step_cost = cost;
          step_candidates = Array.length moves;
          step_hits = hits;
          step_improved = true;
          step_finished = false;
        }
    | None ->
        {
          step_plan = !cur_plan;
          step_cost = !cur_cost;
          step_candidates = Array.length moves;
          step_hits = hits;
          step_improved = false;
          step_finished = true;
        }

(* --- beam: breadth over the same ±1 move space ------------------------- *)

let plan_compare (a : plan) (b : plan) = Stdlib.compare a b

let make_beam ~params ~eval ~edges:_ ~base ~seeds () =
  let width = max 1 params.beam_width in
  let dedup_sorted entries =
    (* sort by (cost, plan) — a total, pool-size-independent order — and
       drop duplicate plans *)
    let sorted =
      List.sort
        (fun (c1, p1) (c2, p2) ->
          match Float.compare c1 c2 with 0 -> plan_compare p1 p2 | d -> d)
        entries
    in
    let rec uniq = function
      | (_, p1) :: ((_, p2) :: _ as tl) when plan_compare p1 p2 = 0 -> uniq tl
      | x :: tl -> x :: uniq tl
      | [] -> []
    in
    uniq sorted
  in
  let take n l = List.filteri (fun i _ -> i < n) l in
  let beam =
    ref
      (take width
         (dedup_sorted (List.map (fun (p, c) -> (c, p)) (base :: seeds))))
  in
  let best_cost = ref (match !beam with (c, _) :: _ -> c | [] -> infinity) in
  fun () ->
    let expansion =
      Array.of_list (List.concat_map (fun (_, p) -> moves_of p) !beam)
    in
    let res, hits = eval expansion in
    let evaluated =
      Array.to_list (Array.mapi (fun i cost -> (cost, expansion.(i))) res)
    in
    let feasible = List.filter (fun (c, _) -> c < infinity) evaluated in
    let next = take width (dedup_sorted (!beam @ feasible)) in
    let unchanged =
      List.length next = List.length !beam
      && List.for_all2 (fun (_, p1) (_, p2) -> plan_compare p1 p2 = 0) next !beam
    in
    beam := next;
    let head_cost, head_plan =
      match !beam with (c, p) :: _ -> (c, p) | [] -> (infinity, fst base)
    in
    let improved = head_cost < !best_cost in
    if improved then best_cost := head_cost;
    {
      step_plan = head_plan;
      step_cost = head_cost;
      step_candidates = Array.length expansion;
      step_hits = hits;
      step_improved = improved;
      step_finished = unchanged;
    }

(* --- anneal: random-restart simulated annealing ------------------------ *)

let make_anneal ~params ~eval ~edges:_ ~base ~seeds () =
  let g = Prng.create ~seed:params.prng_seed in
  let start_plan, start_cost = best_of base seeds in
  let cur_plan = ref start_plan and cur_cost = ref start_cost in
  let best_plan = ref start_plan and best_cost = ref start_cost in
  let temp0 = Float.max (0.25 *. Float.abs start_cost) 1e-9 in
  let temp = ref temp0 in
  let stagnant = ref 0 and restarts = ref 0 in
  let num_edges = Array.length start_plan in
  let perturb plan =
    let p = Array.copy plan in
    let tweaks = 1 + Prng.int_below g 3 in
    for _ = 1 to tweaks do
      let i = Prng.int_below g num_edges in
      let up = p.(i) = 0 || Prng.int_below g 2 = 0 in
      p.(i) <- (if up then p.(i) + 1 else p.(i) - 1)
    done;
    p
  in
  let random_plan () = Array.init num_edges (fun _ -> Prng.int_below g 3) in
  fun () ->
    let props =
      Array.init (max 1 params.anneal_proposals) (fun _ -> perturb !cur_plan)
    in
    let res, hits = eval props in
    (* Metropolis walk over the batch, in proposal order: strict
       improvements are always taken; uphill moves with probability
       exp(-Δ/T). The PRNG is advanced only on the uphill test, so the
       whole trajectory is a pure function of the seed and the costs. *)
    Array.iteri
      (fun i cost ->
        if cost < !cur_cost then begin
          cur_plan := props.(i);
          cur_cost := cost
        end
        else if cost < infinity then begin
          let u = Prng.float01 g in
          if u < Float.exp (-.(cost -. !cur_cost) /. Float.max !temp 1e-12) then begin
            cur_plan := props.(i);
            cur_cost := cost
          end
        end)
      res;
    let improved = !cur_cost < !best_cost in
    if improved then begin
      best_plan := !cur_plan;
      best_cost := !cur_cost;
      stagnant := 0
    end
    else incr stagnant;
    temp := !temp *. 0.85;
    let finished = ref false in
    let extra_candidates = ref 0 and extra_hits = ref 0 in
    let restart_improved = ref false in
    if !stagnant >= 5 then
      if !restarts >= 3 then finished := true
      else begin
        (* restart from a fresh random plan, evaluated as part of this
           epoch so the trace keeps accounting for every candidate *)
        incr restarts;
        stagnant := 0;
        temp := temp0;
        let p = random_plan () in
        let res1, hits1 = eval [| p |] in
        incr extra_candidates;
        extra_hits := hits1;
        let c = res1.(0) in
        if c < infinity then begin
          cur_plan := p;
          cur_cost := c;
          if c < !best_cost then begin
            best_plan := p;
            best_cost := c;
            restart_improved := true
          end
        end
      end;
    {
      step_plan = !best_plan;
      step_cost = !best_cost;
      step_candidates = Array.length props + !extra_candidates;
      step_hits = hits + !extra_hits;
      step_improved = improved || !restart_improved;
      step_finished = !finished;
    }

(* --- gradient: estimator-gradient-guided composite moves --------------- *)

let make_gradient ~params:_ ~eval ~edges:_ ~base ~seeds () =
  let cur_plan, cur_cost =
    let p, c = best_of base seeds in
    (ref p, ref c)
  in
  fun () ->
    let labelled = Array.of_list (labelled_moves_of !cur_plan) in
    let moves = Array.map (fun (_, _, p) -> p) labelled in
    let res, hits = eval moves in
    (* The ±1 neighbourhood is the discrete gradient of the estimator.
       Take the best improving direction per edge, then also try the
       composite plan that applies all of them at once — a multi-edge
       step along the steepest descent direction. *)
    let num_edges = Array.length !cur_plan in
    let best_delta = Array.make num_edges 0 in
    let best_delta_cost = Array.make num_edges infinity in
    Array.iteri
      (fun i cost ->
        let edge, delta, _ = labelled.(i) in
        if cost < !cur_cost && cost < best_delta_cost.(edge) then begin
          best_delta.(edge) <- delta;
          best_delta_cost.(edge) <- cost
        end)
      res;
    let any = Array.exists (fun d -> d <> 0) best_delta in
    if not any then
      {
        step_plan = !cur_plan;
        step_cost = !cur_cost;
        step_candidates = Array.length moves;
        step_hits = hits;
        step_improved = false;
        step_finished = true;
      }
    else begin
      (* best single move, in move order (ties to the earliest) *)
      let single = ref None in
      Array.iteri
        (fun i cost ->
          if cost < !cur_cost then
            match !single with
            | Some (_, c) when c <= cost -> ()
            | _ -> single := Some (moves.(i), cost))
        res;
      let sp, sc = Option.get !single in
      let composite = Array.copy !cur_plan in
      Array.iteri (fun e d -> composite.(e) <- composite.(e) + d) best_delta;
      let res2, hits2 = eval [| composite |] in
      let cc = res2.(0) in
      let plan, cost = if cc < sc then (composite, cc) else (sp, sc) in
      cur_plan := plan;
      cur_cost := cost;
      {
        step_plan = plan;
        step_cost = cost;
        step_candidates = Array.length moves + 1;
        step_hits = hits + hits2;
        step_improved = true;
        step_finished = false;
      }
    end

let registry : (string, strategy_maker) Hashtbl.t = Hashtbl.create 8

let register_strategy ~name maker = Hashtbl.replace registry name maker

let () =
  register_strategy ~name:"hill-climb" (fun ~params ~eval ~edges ~base ~seeds ->
      make_hill_climb ~params ~eval ~edges ~base ~seeds ());
  register_strategy ~name:"beam" (fun ~params ~eval ~edges ~base ~seeds ->
      make_beam ~params ~eval ~edges ~base ~seeds ());
  register_strategy ~name:"anneal" (fun ~params ~eval ~edges ~base ~seeds ->
      make_anneal ~params ~eval ~edges ~base ~seeds ());
  register_strategy ~name:"gradient" (fun ~params ~eval ~edges ~base ~seeds ->
      make_gradient ~params ~eval ~edges ~base ~seeds ())

let default_strategy = "hill-climb"
let portfolio_name = "portfolio"

let strategy_names () =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) registry [])

let known_strategy name = Hashtbl.mem registry name || name = portfolio_name

(* ------------------------------------------------------------------ *)
(* Oracle gate                                                         *)
(* ------------------------------------------------------------------ *)

type gate_failure = {
  failed_check : string;
  failed_code : string option;
  failed_detail : string;
}

type gate_outcome = Not_gated | Gate_passed | Gate_rejected of gate_failure

type gate = strategy:string -> plan:plan -> Hecate_ir.Prog.t -> (unit, gate_failure) Result.t

(* ------------------------------------------------------------------ *)
(* Portfolio                                                           *)
(* ------------------------------------------------------------------ *)

type strategy_stats = {
  strategy : string;
  s_best_plan : plan;
  s_best_cost : float;
  s_epochs : int;
  s_steps : int;
  s_trace : epoch_trace list;
  s_gate : gate_outcome;
}

type portfolio_result = {
  p_winner : string;
  p_best_plan : plan;
  p_best_prog : Hecate_ir.Prog.t;
  p_best_cost : float;
  p_strategies : strategy_stats list;
  p_plans_explored : int;
  p_cache_hits : int;
  p_seeded : bool;
}

(* Per-strategy bookkeeping owned by the round-robin scheduler. *)
type runner = {
  r_name : string;
  r_step : stepper;
  mutable r_best_plan : plan;
  mutable r_best_cost : float;
  mutable r_epochs : int; (* improving epochs *)
  mutable r_steps : int; (* epochs run *)
  mutable r_finished : bool;
  mutable r_trace_rev : epoch_trace list;
}

let make_context ~score ~hook_of ~should_stop pool =
  let run plan =
    if should_stop () then infinity
    else
      match score ~hook:(hook_of plan) with
      | cost -> cost
      | exception Invalid_argument _ -> infinity
      | exception Hecate_ir.Diagnostic.Error _ -> infinity
  in
  {
    ctx_run = run;
    ctx_memo = Plan_table.create 256;
    ctx_pool = pool;
    ctx_explored = 0;
    ctx_hits = 0;
  }

let portfolio ~codegen ~score ~(edges : Smu.edge array) ?strategies
    ?(beam_width = 4) ?(prng_seed = 0x48454341) ?(anneal_proposals = 8)
    ?(max_epochs = 100) ?budget_seconds ?pool_size
    ?(should_stop = fun () -> false) ?on_epoch ?(warm_starts = [])
    ?(gate : gate option) () =
  let requested =
    match strategies with Some l -> l | None -> strategy_names ()
  in
  let names = List.sort_uniq String.compare requested in
  List.iter
    (fun n ->
      if not (Hashtbl.mem registry n) then
        invalid_arg (Printf.sprintf "Explore.portfolio: unknown strategy %S" n))
    names;
  if names = [] then invalid_arg "Explore.portfolio: empty strategy list";
  if should_stop () then raise Cancelled;
  let t_start = Unix.gettimeofday () in
  let stop () =
    should_stop ()
    || match budget_seconds with
       | Some b -> Unix.gettimeofday () -. t_start >= b
       | None -> false
  in
  let num_edges = Array.length edges in
  Pool.with_pool ?size:pool_size (fun pool ->
      let hook_of = hook_of_plan edges in
      let ctx = make_context ~score ~hook_of ~should_stop pool in
      let eval = eval_batch ctx in
      (* Base plan plus any warm-start seeds are the shared opening batch;
         every strategy starts from the best of them, and the memo already
         holds their costs — a strategy never re-evaluates its own start. *)
      let base_plan = Array.make num_edges 0 in
      let seeds_in =
        List.filter
          (fun p -> Array.length p = num_edges && Array.for_all (fun d -> d >= 0) p)
          warm_starts
      in
      let opening = Array.of_list (base_plan :: seeds_in) in
      let res0, _ = eval opening in
      let base_cost = res0.(0) in
      if base_cost = infinity then
        if should_stop () then raise Cancelled
        else invalid_arg "Explore.portfolio: the unmodified plan failed to compile";
      let seeds =
        List.filteri (fun i _ -> i > 0) (Array.to_list res0)
        |> List.mapi (fun i cost -> (List.nth seeds_in i, cost))
        |> List.filter (fun (_, c) -> c < infinity)
      in
      let seeded = List.exists (fun (_, c) -> c < base_cost) seeds in
      let params = { beam_width; prng_seed; anneal_proposals } in
      let runners =
        List.map
          (fun name ->
            let maker = Hashtbl.find registry name in
            let start_plan, start_cost =
              best_of (base_plan, base_cost) seeds
            in
            {
              r_name = name;
              r_step =
                maker ~params ~eval ~edges ~base:(base_plan, base_cost) ~seeds;
              r_best_plan = start_plan;
              r_best_cost = start_cost;
              r_epochs = 0;
              r_steps = 0;
              r_finished = false;
              r_trace_rev = [];
            })
          names
      in
      let runnable r = (not r.r_finished) && r.r_steps < max_epochs in
      (* Round-robin, one epoch per live strategy per pass, in name order:
         fair under the shared budget and independent of both registration
         order and pool size. The scheduler itself is single-threaded;
         parallelism lives inside the batch evaluator. *)
      let progressed = ref true in
      while !progressed && not (stop ()) do
        progressed := false;
        List.iter
          (fun r ->
            if runnable r && not (stop ()) then begin
              let t0 = Unix.gettimeofday () in
              let s = r.r_step () in
              r.r_steps <- r.r_steps + 1;
              if s.step_improved then r.r_epochs <- r.r_epochs + 1;
              if s.step_cost < r.r_best_cost then begin
                r.r_best_plan <- s.step_plan;
                r.r_best_cost <- s.step_cost
              end;
              if s.step_finished then r.r_finished <- true;
              let record =
                {
                  epoch = r.r_steps;
                  candidates = s.step_candidates;
                  cache_hits = s.step_hits;
                  best_cost = r.r_best_cost;
                  elapsed_seconds = Unix.gettimeofday () -. t0;
                }
              in
              r.r_trace_rev <- record :: r.r_trace_rev;
              Option.iter (fun f -> f ~strategy:r.r_name record) on_epoch;
              if runnable r then progressed := true
            end)
          runners
      done;
      (* A winning plan's program is built once, by [codegen], for the gate
         and the result alike; its cost comes from the memo. *)
      let built : Hecate_ir.Prog.t Plan_table.t = Plan_table.create 8 in
      let prog_of plan =
        match Plan_table.find_opt built plan with
        | Some p -> p
        | None ->
            let p = codegen ~hook:(hook_of plan) in
            Plan_table.replace built plan p;
            p
      in
      (* Gate every strategy's winner (deduplicated by plan — strategies
         that converged to the same plan share one oracle run). *)
      let verdicts : (unit, gate_failure) Result.t Plan_table.t = Plan_table.create 8 in
      let gate_of r =
        match gate with
        | None -> Not_gated
        | Some g -> (
            let v =
              match Plan_table.find_opt verdicts r.r_best_plan with
              | Some v -> v
              | None ->
                  let v = g ~strategy:r.r_name ~plan:r.r_best_plan (prog_of r.r_best_plan) in
                  Plan_table.replace verdicts r.r_best_plan v;
                  v
            in
            match v with Ok () -> Gate_passed | Error f -> Gate_rejected f)
      in
      let stats =
        List.map
          (fun r ->
            {
              strategy = r.r_name;
              s_best_plan = r.r_best_plan;
              s_best_cost = r.r_best_cost;
              s_epochs = r.r_epochs;
              s_steps = r.r_steps;
              s_trace = List.rev r.r_trace_rev;
              s_gate = gate_of r;
            })
          runners
      in
      (* Deterministic winner: lowest cost among strategies whose winner
         passed (or was not) gated, ties to the earliest strategy name. *)
      let ranked =
        List.stable_sort
          (fun a b -> Float.compare a.s_best_cost b.s_best_cost)
          stats
      in
      let winner =
        List.find_opt
          (fun s ->
            match s.s_gate with
            | Not_gated | Gate_passed -> true
            | Gate_rejected _ -> false)
          ranked
      in
      match winner with
      | None ->
          let detail =
            String.concat "; "
              (List.map
                 (fun s ->
                   match s.s_gate with
                   | Gate_rejected f ->
                       Printf.sprintf "%s: %s%s" s.strategy f.failed_check
                         (match f.failed_code with
                         | Some c -> " (" ^ c ^ ")"
                         | None -> "")
                   | _ -> s.strategy ^ ": ?")
                 stats)
          in
          Diagnostic.error
            (Diagnostic.v ~code:Diagnostic.Oracle_rejected
               ~hint:
                 "every strategy's winning plan failed the differential oracle; \
                  this points at a codegen or estimator bug, not at the input \
                  program — re-run with --strategy hill-climb -v and file the \
                  reproducer"
               (Printf.sprintf
                  "Explore.portfolio: all exploration strategies were rejected \
                   by the oracle gate: %s"
                  detail))
      | Some w ->
          {
            p_winner = w.strategy;
            p_best_plan = w.s_best_plan;
            p_best_prog = prog_of w.s_best_plan;
            p_best_cost = w.s_best_cost;
            p_strategies = stats;
            p_plans_explored = ctx.ctx_explored;
            p_cache_hits = ctx.ctx_hits;
            p_seeded = seeded;
          })
