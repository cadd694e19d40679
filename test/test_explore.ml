(* Tests for the exploration portfolio (ISSUE 10): the shared memo never
   re-evaluates an incumbent, the race is deterministic across pool sizes
   and strategy-registration orders on every scheme, warm starts come from
   the plan corpus, and the differential-oracle gate rejects faulty
   strategies without letting their plans reach the caller or the cache. *)

module Prog = Hecate_ir.Prog
module Typing = Hecate_ir.Typing
module Diagnostic = Hecate_ir.Diagnostic
module B = Prog.Builder
module Codegen = Hecate.Codegen
module Smu = Hecate.Smu
module Explore = Hecate.Explore
module Estimator = Hecate.Estimator
module Paramselect = Hecate.Paramselect
module Costmodel = Hecate.Costmodel
module Driver = Hecate.Driver
module Plancache = Hecate.Plancache
module Oracle = Hecate_fuzz.Oracle
module Apps = Hecate_apps.Apps

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let cfg = Typing.config ~sf:28. ~waterline:20. ()
let model = Costmodel.analytic ()

(* the running example of the paper: (x^2 + y^2)^3 *)
let fig2 () =
  let b = B.create ~name:"fig2" ~slot_count:8 () in
  let x = B.input b "x" and y = B.input b "y" in
  let z = B.add b (B.mul b x x) (B.mul b y y) in
  B.output b (B.mul b (B.mul b z z) z);
  B.finish b

(* A deeper fig2 variant, (x^2 + y^2)^7: unlike fig2 itself — whose
   finalization passes already reach the optimum, leaving an all-zero
   explore plan — its winning plan carries nonzero degrees, so the plan
   corpus has something portable to serve. *)
let fig2_pow ?(name = "fig2_pow") ?(x = "x") ?(y = "y") ?(dead = false) () =
  let b = B.create ~name ~slot_count:8 () in
  let x = B.input b x and y = B.input b y in
  if dead then ignore (B.add b x y);
  let z = B.add b (B.mul b x x) (B.mul b y y) in
  let rec pow k = if k = 1 then z else B.mul b (pow (k - 1)) z in
  B.output b (pow 7);
  B.finish b

(* An alpha variant: renamed function and inputs plus a dead derived op —
   same canonical DAG, so it shares [fig2_pow]'s fingerprint. *)
let fig2_pow_alpha () = fig2_pow ~name:"fig2_pow_alpha" ~x:"u" ~y:"v" ~dead:true ()

let fig2_codegen_score () =
  let prog = fig2 () in
  let smu = Smu.generate prog in
  let codegen ~hook = fst (Driver.finalize ~cfg (Codegen.waterline cfg ~hook prog)) in
  let evaluate p =
    Typing.check_exn cfg p;
    let types = Array.map (fun (o : Prog.op) -> o.Prog.ty) p.Prog.body in
    let params = Paramselect.select ~sf_bits:28 ~types ~slot_count:8 () in
    Estimator.estimate ~model ~params ~n:8192 p
  in
  (codegen, (fun ~hook -> evaluate (codegen ~hook)), smu.Smu.edges)

(* ------------------------------------------------------------------ *)
(* Shared memo: the incumbent is never re-evaluated                     *)
(* ------------------------------------------------------------------ *)

(* The synthetic 3-edge space of test_core's backoff test: the climb takes
   000 -> 100 -> 110 -> 111 -> 011 (five epochs, the last improving one a
   -1 move). The fake codegen encodes the plan into the op count
   (k = d0 + 4*d1 + 16*d2 rotations), so [num_ops] identifies the plan. *)
let backoff_edges =
  Array.init 3 (fun i -> { Smu.src = i; Smu.dst = i + 1; Smu.sites = [ (i, 0) ] })

let backoff_codegen ~hook =
  let d i = hook ~op_id:i ~operand:0 in
  let k = d 0 + (4 * d 1) + (16 * d 2) in
  let b = B.create ~slot_count:8 () in
  let x = B.input b "x" in
  let rec chain v j = if j = 0 then v else chain (B.rotate b v 1) (j - 1) in
  B.output b (chain x (k + 1));
  B.finish b

let backoff_cost p =
  match Prog.num_ops p - 2 with
  | 0 -> 10. (* 000 *)
  | 1 -> 9. (* 100 *)
  | 4 | 16 -> 9.5 (* 010, 001 *)
  | 5 -> 8. (* 110 *)
  | 21 -> 7. (* 111 *)
  | 20 -> 6. (* 011: only reachable from 111 by decrementing edge 0 *)
  | _ -> 100.

let test_no_incumbent_reevaluation () =
  (* Regression: with a warm memo, hill-climb used to re-score its own
     incumbent every epoch. Count evaluations per distinct plan — every
     one must be scored exactly once, and the total must equal
     [plans_explored] (every evaluation was fresh). *)
  let counts : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let evaluate p =
    let k = Prog.num_ops p in
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k));
    backoff_cost p
  in
  let r =
    Explore.portfolio ~codegen:backoff_codegen
      ~score:(fun ~hook -> evaluate (backoff_codegen ~hook))
      ~edges:backoff_edges
      ~strategies:[ "hill-climb" ] ()
  in
  check (Alcotest.array Alcotest.int) "search still finds the optimum" [| 0; 1; 1 |]
    r.Explore.p_best_plan;
  Hashtbl.iter
    (fun k n ->
      check Alcotest.int (Printf.sprintf "plan with %d ops evaluated exactly once" k) 1 n)
    counts;
  let total = Hashtbl.fold (fun _ n acc -> n + acc) counts 0 in
  check Alcotest.int "every evaluation was fresh" r.Explore.p_plans_explored total;
  (* Pin the exact count: base (1) plus the fresh part of each visited
     neighbourhood (3+3+3+4+2). The incumbent-re-evaluation bug inflated
     this by one per epoch. *)
  check Alcotest.int "evaluation count pinned" 16 total;
  check Alcotest.bool "revisits served from the memo" true (r.Explore.p_cache_hits > 0)

(* ------------------------------------------------------------------ *)
(* Determinism: pool size and registration order are invisible          *)
(* ------------------------------------------------------------------ *)

(* Deterministic Fisher-Yates on a seeded LCG (no Random state leaks). *)
let shuffle seed l =
  let a = Array.of_list l in
  let state = ref (seed * 2 + 1) in
  let next bound =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound
  in
  for i = Array.length a - 1 downto 1 do
    let j = next (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let portfolio_order_and_pool_invariant =
  let codegen, score, edges = fig2_codegen_score () in
  let run ~strategies ~pool_size =
    Explore.portfolio ~codegen ~score ~edges ~strategies ~max_epochs:8 ~pool_size ()
  in
  let reference = lazy (run ~strategies:(Explore.strategy_names ()) ~pool_size:1) in
  QCheck.Test.make ~count:6
    ~name:"portfolio: any pool size and strategy order matches the serial run"
    QCheck.(pair (int_range 1 4) (int_range 0 10_000))
    (fun (pool_size, perm_seed) ->
      let reference = Lazy.force reference in
      let r = run ~strategies:(shuffle perm_seed (Explore.strategy_names ())) ~pool_size in
      r.Explore.p_winner = reference.Explore.p_winner
      && r.Explore.p_best_cost = reference.Explore.p_best_cost
      && r.Explore.p_best_plan = reference.Explore.p_best_plan
      && r.Explore.p_plans_explored = reference.Explore.p_plans_explored
      && List.map (fun (s : Explore.strategy_stats) -> (s.Explore.strategy, s.Explore.s_best_cost))
           r.Explore.p_strategies
         = List.map (fun (s : Explore.strategy_stats) -> (s.Explore.strategy, s.Explore.s_best_cost))
             reference.Explore.p_strategies)

let portfolio_schemes_invariant =
  (* Driver-level: on all four schemes, a parallel portfolio compile is
     bit-identical to the serial one (Eva/Pars have no exploration — their
     equality is the trivial case the property also covers). *)
  let serial =
    lazy
      (List.map
         (fun scheme ->
           Driver.compile ~pool_size:1 ~strategy:Explore.portfolio_name scheme ~sf_bits:28
             ~waterline_bits:20. (fig2 ()))
         Driver.all_schemes)
  in
  QCheck.Test.make ~count:3 ~name:"portfolio via Driver: parallel = serial on all schemes"
    QCheck.(int_range 2 4)
    (fun pool_size ->
      List.for_all2
        (fun scheme (serial : Driver.compiled) ->
          let par =
            Driver.compile ~pool_size ~strategy:Explore.portfolio_name scheme ~sf_bits:28
              ~waterline_bits:20. (fig2 ())
          in
          serial.Driver.estimated_seconds = par.Driver.estimated_seconds
          && Hecate_ir.Printer.to_string serial.Driver.prog
             = Hecate_ir.Printer.to_string par.Driver.prog
          &&
          match (serial.Driver.exploration, par.Driver.exploration) with
          | None, None -> true
          | Some a, Some b ->
              a.Driver.strategy = b.Driver.strategy
              && a.Driver.best_plan = b.Driver.best_plan
              && a.Driver.plans_explored = b.Driver.plans_explored
          | _ -> false)
        Driver.all_schemes (Lazy.force serial))

(* ------------------------------------------------------------------ *)
(* Warm start from the plan corpus                                      *)
(* ------------------------------------------------------------------ *)

let test_warm_start_from_plan_corpus () =
  let cache = Plancache.create () in
  (* Seed the corpus: a default-strategy (hill-climb) compile. *)
  let entry_a, origin_a =
    Plancache.compile cache ~scheme:Driver.Hecate ~sf_bits:28 ~waterline_bits:20.
      (fig2_pow ())
  in
  check Alcotest.string "seed compile is cold" "cold" (Plancache.origin_name origin_a);
  check Alcotest.bool "seed entry carries a portable plan" true
    (entry_a.Plancache.keyed_plan <> []);
  check Alcotest.string "the alpha variant shares the seed's fingerprint"
    entry_a.Plancache.fingerprint
    (Prog.fingerprint
       (Hecate_ir.Pass_manager.run Hecate_ir.Pass_manager.cleanup (fig2_pow_alpha ())));
  (* Driver-level evidence: handed the corpus plan, the portfolio starts
     from it — the opening batch, not any epoch, already beats the
     all-zero waterline base plan. *)
  let warm =
    Plancache.warm_plans cache ~fingerprint:entry_a.Plancache.fingerprint
      ~structure:entry_a.Plancache.structure ~scheme:Driver.Hecate ~sf_bits:28 ()
  in
  check Alcotest.bool "the corpus serves the seed plan" true (warm <> []);
  let warmed =
    Driver.compile ~strategy:Explore.portfolio_name ~warm_plans:warm Driver.Hecate ~sf_bits:28
      ~waterline_bits:20. (fig2_pow_alpha ())
  in
  let e = Option.get warmed.Driver.exploration in
  check Alcotest.bool "warm start beat the waterline base plan" true e.Driver.seeded;
  (* Cache-level evidence: a warm-started portfolio compile of the alpha
     variant produces the byte-identical artifact of a cold one, and its
     first epoch already reports the seeded cost. *)
  let first_cost r ~strategy:_ (t : Explore.epoch_trace) =
    if !r = None then r := Some t.Explore.best_cost
  in
  let warm_first = ref None in
  let entry_b, origin_b =
    Plancache.compile cache ~on_epoch:(first_cost warm_first)
      ~strategy:Explore.portfolio_name ~scheme:Driver.Hecate ~sf_bits:28 ~waterline_bits:20.
      (fig2_pow_alpha ())
  in
  check Alcotest.string "portfolio key is distinct from the seed's" "cold"
    (Plancache.origin_name origin_b);
  let cold_first = ref None in
  let entry_c, _ =
    Plancache.compile (Plancache.create ()) ~on_epoch:(first_cost cold_first)
      ~strategy:Explore.portfolio_name ~scheme:Driver.Hecate ~sf_bits:28 ~waterline_bits:20.
      (fig2_pow_alpha ())
  in
  check Alcotest.string "byte-identical final artifact" entry_c.Plancache.artifact
    entry_b.Plancache.artifact;
  check Alcotest.bool "first epoch starts at or below the cold run's" true
    (Option.get !warm_first <= Option.get !cold_first)

(* ------------------------------------------------------------------ *)
(* Oracle gate                                                          *)
(* ------------------------------------------------------------------ *)

let test_gate_passes_honest_portfolio () =
  let prog = fig2 () in
  let gate = Oracle.explorer_gate ~sf_bits:28 ~waterline_bits:20. prog in
  let c =
    Driver.compile ~strategy:Explore.portfolio_name ~gate Driver.Hecate ~sf_bits:28
      ~waterline_bits:20. prog
  in
  let e = Option.get c.Driver.exploration in
  List.iter
    (fun (s : Explore.strategy_stats) ->
      match s.Explore.s_gate with
      | Explore.Gate_passed -> ()
      | Explore.Not_gated -> Alcotest.failf "%s was not gated" s.Explore.strategy
      | Explore.Gate_rejected f ->
          Alcotest.failf "%s rejected at %s: %s" s.Explore.strategy f.Explore.failed_check
            f.Explore.failed_detail)
    e.Driver.strategies

let test_gate_rejects_everything () =
  (* A gate that rejects every plan: the portfolio must raise a
     diagnostic with code oracle-rejected, and nothing may be cached. *)
  let reject ~strategy:_ ~plan:_ _ =
    Error
      {
        Explore.failed_check = "accuracy";
        failed_code = None;
        failed_detail = "synthetic rejection";
      }
  in
  let cache = Plancache.create () in
  (match
     Plancache.compile cache ~gate:reject ~scheme:Driver.Hecate ~sf_bits:28
       ~waterline_bits:20. (fig2 ())
   with
  | _ -> Alcotest.fail "expected Diagnostic.Error Oracle_rejected"
  | exception Diagnostic.Error d ->
      check Alcotest.string "diagnostic code" "oracle-rejected"
        (Diagnostic.code_name d.Diagnostic.code));
  check Alcotest.int "nothing the oracle rejected entered the cache" 0
    (Plancache.memory_size cache)

(* A strategy that lies: it claims an unbeatable cost for the all-zero
   plan, so absent the gate it would win the race. The oracle transform
   hook then corrupts exactly this strategy's winner into a mis-scaled
   program (an add of unequal scales, the C3 violation), so the portfolio
   must reject it, fall back to the best honest strategy, and record the
   diagnostic. Registered under a name sorting last so every other
   strategy keeps its usual trace order. *)
let liar = "zz-liar"

let register_liar () =
  Explore.register_strategy ~name:liar
    (fun ~params:_ ~eval:_ ~edges ~base:_ ~seeds:_ () ->
      {
        (* all-ones: distinct from every honest winner (fig2's is the
           all-zero plan), so the verdict is not shared via the
           per-plan dedup *)
        Explore.step_plan = Array.make (Array.length edges) 1;
        step_cost = 0.;
        step_candidates = 0;
        step_hits = 0;
        step_improved = true;
        step_finished = true;
      })

(* scale(x*x) = 56 <> scale(x) = 28: Typing rejects the add (C3). *)
let mis_scaled () =
  let b = B.create ~name:"mis_scaled" ~slot_count:8 () in
  let x = B.input b "x" in
  B.output b (B.add b (B.mul b x x) x);
  B.finish b

let test_gate_rejects_faulty_strategy () =
  register_liar ();
  let prog = fig2 () in
  let transform ~strategy p = if strategy = liar then mis_scaled () else p in
  let gate = Oracle.explorer_gate ~transform ~sf_bits:28 ~waterline_bits:20. prog in
  let codegen, score, edges = fig2_codegen_score () in
  let r =
    Explore.portfolio ~codegen ~score ~edges
      ~strategies:(liar :: Explore.strategy_names ())
      ~max_epochs:8 ~gate ()
  in
  check Alcotest.bool "the liar did not win" true (r.Explore.p_winner <> liar);
  let stats name =
    List.find (fun (s : Explore.strategy_stats) -> s.Explore.strategy = name)
      r.Explore.p_strategies
  in
  (match (stats liar).Explore.s_gate with
  | Explore.Gate_rejected f ->
      check Alcotest.bool "the failed check is recorded" true (f.Explore.failed_check <> "");
      check Alcotest.bool "the diagnostic code is recorded" true
        (f.Explore.failed_code <> None)
  | Explore.Gate_passed | Explore.Not_gated ->
      Alcotest.fail "the liar's corrupted winner passed the gate");
  (match (stats r.Explore.p_winner).Explore.s_gate with
  | Explore.Gate_passed -> ()
  | _ -> Alcotest.fail "the fallback winner did not pass the gate");
  (* and absent the gate, the liar's claimed cost would have won *)
  let ungated =
    Explore.portfolio ~codegen ~score ~edges
      ~strategies:(liar :: Explore.strategy_names ())
      ~max_epochs:8 ()
  in
  check Alcotest.string "without the gate the liar wins the race" liar
    ungated.Explore.p_winner

(* The search itself is pinned: a change that makes candidates cheaper
   must not change which candidates the hill climber scores. SF, HCD and
   MLP at the waterlines of the repository benchmark's one-shot
   requests. *)
let test_search_pinned () =
  List.iter
    (fun (name, wl, plans, hits, epochs) ->
      let app = List.find (fun (a : Apps.t) -> a.Apps.name = name) (Apps.reduced_suite ()) in
      let c =
        Driver.compile ~pool_size:1 Driver.Hecate ~sf_bits:28 ~waterline_bits:wl app.Apps.prog
      in
      let e = Option.get c.Driver.exploration in
      check Alcotest.int (name ^ " plans explored") plans e.Driver.plans_explored;
      check Alcotest.int (name ^ " cache hits") hits e.Driver.cache_hits;
      check Alcotest.int (name ^ " epochs") epochs e.Driver.epochs)
    [ ("SF", 24., 19, 0, 0); ("HCD", 22., 256, 11, 6); ("MLP", 15., 67, 1, 1) ]

(* ------------------------------------------------------------------ *)
(* Candidates die young                                                 *)
(* ------------------------------------------------------------------ *)

(* The explorer keeps costs, not programs, and Driver discards every
   program it scores: a candidate's ops must not outlive it in the major
   heap. One compile of each after a warm-up; the parent of this guard
   promoted 422k (HCD) and 452k (MLP) words per compile. *)
let test_candidates_die_young () =
  let compile name wl =
    let app = List.find (fun (a : Apps.t) -> a.Apps.name = name) (Apps.reduced_suite ()) in
    fun () ->
      ignore (Driver.compile ~pool_size:1 Driver.Hecate ~sf_bits:28 ~waterline_bits:wl app.Apps.prog)
  in
  let hcd = compile "HCD" 22. and mlp = compile "MLP" 15. in
  hcd ();
  List.iter
    (fun (name, f) ->
      Gc.minor ();
      let before = (Gc.quick_stat ()).Gc.promoted_words in
      f ();
      Gc.minor ();
      let promoted = (Gc.quick_stat ()).Gc.promoted_words -. before in
      check Alcotest.bool
        (Printf.sprintf "%s compile promotes %.0f words, under 150000" name promoted)
        true (promoted < 150_000.))
    [ ("HCD", hcd); ("MLP", mlp) ]

(* No program the gate or the caller receives was ever discarded. The
   gate counts and validates every program reaching it; the winner is
   checked against a fresh build of its plan. *)
let test_winners_never_discarded () =
  let prog = fig2_pow () in
  let seen = ref 0 and invalid = ref [] in
  let gate ~strategy ~plan:_ p =
    incr seen;
    (match Prog.validate p with Ok () -> () | Error m -> invalid := (strategy ^ ": " ^ m) :: !invalid);
    Ok ()
  in
  let c =
    Driver.compile ~pool_size:1 ~strategy:Explore.portfolio_name ~gate Driver.Hecate ~sf_bits:28
      ~waterline_bits:20. prog
  in
  let e = Option.get c.Driver.exploration in
  check Alcotest.bool "the gate saw every distinct winner" true
    (!seen >= 1 && !seen <= List.length e.Driver.strategies);
  check Alcotest.(list string) "every gated program validates" [] !invalid;
  check Alcotest.(result unit string) "the compiled program validates" (Ok ())
    (Prog.validate c.Driver.prog);
  let again =
    Driver.compile ~pool_size:1 ~strategy:Explore.portfolio_name Driver.Hecate ~sf_bits:28
      ~waterline_bits:20. prog
  in
  check Alcotest.string "the winner prints as an ungated compile's"
    (Hecate_ir.Printer.to_string again.Driver.prog)
    (Hecate_ir.Printer.to_string c.Driver.prog)

(* Discarding a codegen output leaves the finalized program valid and
   printing the same, where finalize carried op records over from it. *)
let test_discard_codegen_output () =
  let app = List.find (fun (a : Apps.t) -> a.Apps.name = "HCD") (Apps.reduced_suite ()) in
  let cfg = Typing.config ~sf:28. ~waterline:22. () in
  let prog = Hecate_ir.Pass_manager.run Hecate_ir.Pass_manager.cleanup app.Apps.prog in
  let edges = (Smu.generate prog).Smu.edges in
  let hook_of = Explore.hook_of_plan edges in
  let sharing = ref 0 in
  List.iter
    (fun plan ->
      let managed = Codegen.pars cfg ~hook:(hook_of plan) prog in
      let p, _ = Driver.finalize ~cfg managed in
      check Alcotest.bool "finalize returned another program" true (p != managed);
      if Array.exists (fun o -> Array.memq o managed.Prog.body) p.Prog.body then incr sharing;
      let before = Hecate_ir.Printer.to_string p in
      Prog.discard managed;
      check Alcotest.(result unit string) "finalized program still valid" (Ok ())
        (Prog.validate p);
      check Alcotest.string "and prints the same" before (Hecate_ir.Printer.to_string p))
    (List.init (Array.length edges + 1) (fun k ->
         Array.init (Array.length edges) (fun i -> if i = k then 1 else 0)));
  check Alcotest.bool
    (Printf.sprintf "%d finalized programs share op records with their input" !sharing)
    true (!sharing > 0)

(* ------------------------------------------------------------------ *)
(* Memo hash: every entry of a plan counts                              *)
(* ------------------------------------------------------------------ *)

(* [Hashtbl.hash] reads only the first ten entries of an array: a 35-entry
   zero plan and the same plan with entry 20 set hash alike under it. *)
let test_hash_reads_every_entry () =
  let zero = Array.make 35 0 in
  for i = 10 to 34 do
    let p = Array.copy zero in
    p.(i) <- 1;
    check Alcotest.bool
      (Printf.sprintf "entry %d changes the hash" i)
      true
      (Explore.hash_plan p <> Explore.hash_plan zero)
  done;
  let t = Explore.Plan_table.create 8 in
  Explore.Plan_table.replace t zero 1.;
  let p = Array.copy zero in
  p.(20) <- 1;
  check Alcotest.bool "a plan differing at entry 20 is another key" false
    (Explore.Plan_table.mem t p)

(* HCD's hill climb at the one-shot waterline, plan by plan: every scored
   plan read back through its hook, one site per edge. In a table of the
   memo's initial size they spread over the buckets. *)
let test_hcd_memo_buckets () =
  let app = List.find (fun (a : Apps.t) -> a.Apps.name = "HCD") (Apps.reduced_suite ()) in
  let cfg = Typing.config ~sf:28. ~waterline:22. () in
  let prog = Hecate_ir.Pass_manager.run Hecate_ir.Pass_manager.cleanup app.Apps.prog in
  let edges = (Smu.generate prog).Smu.edges in
  let plans = ref [] in
  let codegen ~hook = fst (Driver.finalize ~cfg (Codegen.pars cfg ~hook prog)) in
  let score ~hook =
    plans :=
      Array.map
        (fun (e : Smu.edge) ->
          let op_id, operand = List.hd e.Smu.sites in
          hook ~op_id ~operand)
        edges
      :: !plans;
    let p = codegen ~hook in
    let params = Paramselect.of_prog ~sf_bits:28 p in
    Estimator.estimate ~model ~params ~n:params.Paramselect.secure_n p
  in
  let r =
    Explore.portfolio ~codegen ~score ~edges ~strategies:[ Explore.default_strategy ]
      ~pool_size:1 ()
  in
  check Alcotest.int "plans scored" 256 r.Explore.p_plans_explored;
  let memo = Explore.Plan_table.create 256 in
  List.iter (fun p -> Explore.Plan_table.replace memo p ()) !plans;
  check Alcotest.int "distinct plans" 256 (Explore.Plan_table.length memo);
  let stats = Explore.Plan_table.stats memo in
  check Alcotest.bool
    (Printf.sprintf "largest bucket holds %d plans" stats.Hashtbl.max_bucket_length)
    true
    (stats.Hashtbl.max_bucket_length <= 8)

let () =
  Alcotest.run "explore"
    [
      ( "memo",
        [ Alcotest.test_case "incumbent never re-evaluated" `Quick
            test_no_incumbent_reevaluation ] );
      ( "determinism",
        [ qtest portfolio_order_and_pool_invariant; qtest portfolio_schemes_invariant ] );
      ("search", [ Alcotest.test_case "SF/HCD/MLP search pinned" `Quick test_search_pinned ]);
      ( "lifecycle",
        [
          Alcotest.test_case "HCD and MLP candidates die young" `Quick test_candidates_die_young;
          Alcotest.test_case "gate and winner get undiscarded programs" `Quick
            test_winners_never_discarded;
          Alcotest.test_case "discarding a codegen output" `Quick test_discard_codegen_output;
        ] );
      ( "memo-hash",
        [
          Alcotest.test_case "every plan entry counts" `Quick test_hash_reads_every_entry;
          Alcotest.test_case "HCD memo buckets" `Quick test_hcd_memo_buckets;
        ] );
      ( "warm-start",
        [ Alcotest.test_case "portfolio warm-starts from the plan corpus" `Quick
            test_warm_start_from_plan_corpus ] );
      ( "oracle-gate",
        [
          Alcotest.test_case "honest winners pass" `Quick test_gate_passes_honest_portfolio;
          Alcotest.test_case "all-rejected raises and caches nothing" `Quick
            test_gate_rejects_everything;
          Alcotest.test_case "faulty strategy rejected, fallback recorded" `Quick
            test_gate_rejects_faulty_strategy;
        ] );
    ]
