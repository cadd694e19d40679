(* Fuzzer self-tests: generator determinism/validity, oracle smoke run,
   fault injection caught and shrunk (with the reproducer header recording
   the structured failure class), checked-in corpus replay, and the
   waterline property (EVA code generation always typechecks). *)

module Prog = Hecate_ir.Prog
module Typing = Hecate_ir.Typing
module Diagnostic = Hecate_ir.Diagnostic
module Driver = Hecate.Driver
module Codegen = Hecate.Codegen
module Gen = Hecate_fuzz.Gen
module Oracle = Hecate_fuzz.Oracle
module Shrink = Hecate_fuzz.Shrink
module Campaign = Hecate_fuzz.Campaign
module Pass_manager = Hecate_ir.Pass_manager
module Apps = Hecate_apps.Apps

let test_generate_deterministic () =
  let a = Gen.generate ~seed:7 () and b = Gen.generate ~seed:7 () in
  Alcotest.(check bool) "same program" true (Prog.equal a.Gen.prog b.Gen.prog);
  Alcotest.(check bool) "same inputs" true (a.Gen.inputs = b.Gen.inputs)

let test_generate_seeds_differ () =
  let a = Gen.generate ~seed:1 () and b = Gen.generate ~seed:2 () in
  Alcotest.(check bool) "different programs" false (Prog.equal a.Gen.prog b.Gen.prog)

let test_generate_valid () =
  for seed = 0 to 63 do
    let case = Gen.generate ~seed () in
    (match Prog.validate case.Gen.prog with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "seed %d generates an invalid program: %s" seed msg);
    List.iter
      (fun (name, v) ->
        if Array.length v <> case.Gen.prog.Prog.slot_count then
          Alcotest.failf "seed %d input %s is not full-width" seed name)
      case.Gen.inputs
  done

let test_inputs_rederivable () =
  let case = Gen.generate ~seed:11 () in
  Alcotest.(check bool) "inputs_for matches generate" true
    (Gen.inputs_for ~seed:11 case.Gen.prog = case.Gen.inputs)

let test_smoke_campaign () =
  let report = Campaign.run ~seed:42 ~count:30 () in
  match report.Campaign.failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "case %d (seed %d): %s" f.Campaign.index f.Campaign.case_seed
        (Oracle.describe f.Campaign.failure)

let test_shrink_reaches_minimum () =
  (* With a predicate that accepts any structurally valid program, shrinking
     must reach a fixpoint that is still valid and no larger. *)
  let p = (Gen.generate ~seed:3 ()).Gen.prog in
  let s = Shrink.shrink ~keep:(fun q -> Prog.validate q = Ok ()) p in
  Alcotest.(check bool) "still valid" true (Prog.validate s = Ok ());
  Alcotest.(check bool) "not larger" true (Prog.num_ops s <= Prog.num_ops p);
  Alcotest.(check int) "single output" 1 (List.length s.Prog.outputs)

(* Fault injection: delete the first [rescale] from EVA's compiled output.
   The oracle must flag the program (typecheck constraint C1/C2, or the
   accuracy/cross-scheme comparison for shallow programs) and the shrinker
   must cut the witness down to a handful of ops. *)
let drop_first_rescale p =
  let found = ref None in
  Prog.iter
    (fun (o : Prog.op) -> if !found = None && o.Prog.kind = Prog.Rescale then found := Some o)
    p;
  match !found with
  | None -> p
  | Some o -> (
      match Shrink.substitute p ~value:o.Prog.id ~by:o.Prog.args.(0) with
      | Some p' -> p'
      | None -> p)

let inject scheme p = if scheme = Driver.Eva then drop_first_rescale p else p

let test_injected_bug_caught_and_shrunk () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "hecate_fuzz_repro_test" in
  let report = Campaign.run ~transform:inject ~seed:42 ~count:10 ~out_dir:dir () in
  (match report.Campaign.failures with
  | [] -> Alcotest.fail "injected rescale deletion was not caught by any oracle check"
  | _ -> ());
  List.iter
    (fun (f : Campaign.case_failure) ->
      if Prog.num_ops f.Campaign.shrunk > 10 then
        Alcotest.failf "case %d shrunk only to %d ops (> 10): %s" f.Campaign.index
          (Prog.num_ops f.Campaign.shrunk)
          (Oracle.describe f.Campaign.failure);
      (* the reproducer header records the structured failure class, and a
         replay reproduces exactly that class, not just any failure *)
      match f.Campaign.repro_path with
      | None -> Alcotest.fail "reproducer was not written despite out_dir"
      | Some path ->
          let check, code = Campaign.recorded_class path in
          Alcotest.(check bool) "header check matches" true
            (check = f.Campaign.failure.Oracle.check);
          Alcotest.(check bool) "header code matches" true
            (code = f.Campaign.failure.Oracle.code);
          (match Campaign.replay ~transform:inject path with
          | Ok () -> Alcotest.failf "%s: reproducer no longer fails under replay" path
          | Error replayed ->
              Alcotest.(check bool) "replay failure class matches the header" true
                (Oracle.same_class replayed f.Campaign.failure)))
    report.Campaign.failures

(* Waterline property: on any generated surface program, EVA code       *)
(* generation places scale management that the typing rules accept.    *)
(* ------------------------------------------------------------------ *)

let prop_waterline_always_typechecks =
  QCheck.Test.make ~name:"waterline output passes Typing.check" ~count:64
    QCheck.(int_bound 100_000)
    (fun seed ->
      let prog = (Gen.generate ~seed ()).Gen.prog in
      let cfg = Typing.config ~sf:28. ~waterline:20. () in
      match Typing.check cfg (Codegen.waterline cfg prog) with
      | Ok _ -> true
      | Error d ->
          QCheck.Test.fail_reportf "seed %d: waterline placement ill-typed: %s" seed
            (Diagnostic.to_string d))

(* ------------------------------------------------------------------ *)
(* Pass no-op contract: on managed programs, every registered pass      *)
(* returns its own output physically ([run (run p) == run p]), which is  *)
(* what lets the pass manager's fixpoint stop without a structural       *)
(* comparison.                                                           *)
(* ------------------------------------------------------------------ *)

let pars_cfg = Typing.config ~sf:28. ~waterline:20. ()

let noop_violations prog =
  List.filter_map
    (fun (pass : Pass_manager.pass) ->
      let once = pass.Pass_manager.run prog in
      if pass.Pass_manager.run once == once then None else Some pass.Pass_manager.name)
    (Pass_manager.registered ())

(* the code generator's output, and what finalization makes of it *)
let managed_forms prog =
  let managed = Codegen.pars pars_cfg prog in
  [ ("pars", managed); ("finalized", fst (Driver.finalize ~cfg:pars_cfg managed)) ]

let prop_passes_noop_on_own_output =
  QCheck.Test.make ~name:"every pass returns its own output physically" ~count:64
    QCheck.(int_bound 100_000)
    (fun seed ->
      List.for_all
        (fun (form, p) ->
          match noop_violations p with
          | [] -> true
          | names ->
              QCheck.Test.fail_reportf "seed %d (%s): %s changed its own output" seed form
                (String.concat ", " names))
        (managed_forms (Gen.generate ~seed ()).Gen.prog))

let test_passes_noop_on_apps () =
  List.iter
    (fun (a : Apps.t) ->
      List.iter
        (fun (form, p) ->
          match noop_violations p with
          | [] -> ()
          | names ->
              Alcotest.failf "%s (%s): %s changed its own output" a.Apps.name form
                (String.concat ", " names))
        (managed_forms a.Apps.prog))
    (Apps.reduced_suite ())

(* Every early-modswitch call of a compile, under each scheme, against the
   sweep the pass replaced (test/oracle): same program, same provenance,
   and the input handed back physically exactly when the sweep does. The
   compile finalizes through the reference pipeline, whose
   early-modswitch calls the recorder sees; the fused finalize makes
   none. *)
let prop_early_modswitch_matches_sweep =
  QCheck.Test.make ~name:"early-modswitch matches the sweep on every call of a compile"
    ~count:200
    QCheck.(int_bound 100_000)
    (fun seed ->
      let prog = (Gen.generate ~seed ()).Gen.prog in
      List.for_all
        (fun scheme ->
          let instr, tally = Modswitch_sweep.recorder () in
          ignore
            (Driver.compile ~pool_size:1 ~instr
               ~finalize_passes:(Pass_manager.finalize_reference ~early_modswitch:true)
               scheme ~sf_bits:28 ~waterline_bits:20. prog);
          match tally.Modswitch_sweep.failure with
          | None -> true
          | Some msg ->
              QCheck.Test.fail_reportf "seed %d (%s): %s" seed (Driver.scheme_name scheme) msg)
        Driver.all_schemes)

let corpus_dir = "corpus"

let corpus_files () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".hec")
  |> List.sort compare

let test_corpus_nonempty () =
  Alcotest.(check bool) "at least one reproducer checked in" true (corpus_files () <> [])

let test_corpus_replays () =
  List.iter
    (fun f ->
      match Campaign.replay (Filename.concat corpus_dir f) with
      | Ok () -> ()
      | Error failure ->
          Alcotest.failf "%s regressed: %s" f (Oracle.describe failure))
    (corpus_files ())

(* The explorer gate runs inside concurrent compiles. Gating the same
   programs from two domains at once must give each domain the verdicts a
   fresh gate gives one after the other: the context table is locked, and
   each check encrypts from its own stream. The gates with tight bounds
   fail every program with a detail quoting its measured error, so the
   verdicts compare the decrypted outputs too. *)
let test_gate_concurrent () =
  let prog = (Gen.generate ~seed:7 ()).Gen.prog in
  let programs =
    List.filter_map
      (fun scheme ->
        match Driver.compile scheme ~sf_bits:28 ~waterline_bits:20. prog with
        | c -> Some c.Driver.prog
        | exception _ -> None)
      Driver.all_schemes
  in
  let gates () =
    [
      Oracle.explorer_gate ~sf_bits:28 ~waterline_bits:20. prog;
      Oracle.explorer_gate ~rmse_bound:1e-30 ~sf_bits:28 ~waterline_bits:20. prog;
      Oracle.explorer_gate ~cross_bound:0. ~sf_bits:28 ~waterline_bits:20. prog;
    ]
  in
  let verdicts gates =
    List.concat_map
      (fun (gate : Hecate.Explore.gate) ->
        List.map
          (fun p ->
            match gate ~strategy:"hill-climb" ~plan:[||] p with
            | Ok () -> "ok"
            | Error f -> f.Hecate.Explore.failed_check ^ ": " ^ f.Hecate.Explore.failed_detail)
          programs)
      gates
  in
  let sequential = verdicts (gates ()) in
  let shared = gates () in
  let other = Domain.spawn (fun () -> verdicts shared) in
  let here = verdicts shared in
  let there = Domain.join other in
  Alcotest.(check int) "programs" 4 (List.length programs);
  Alcotest.(check bool) "some verdicts fail" true (List.exists (fun v -> v <> "ok") sequential);
  Alcotest.(check (list string)) "this domain" sequential here;
  Alcotest.(check (list string)) "the other domain" sequential there

let () =
  Alcotest.run "hecate_fuzz"
    [
      ( "generator",
        [
          Alcotest.test_case "deterministic in seed" `Quick test_generate_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_generate_seeds_differ;
          Alcotest.test_case "valid by construction" `Quick test_generate_valid;
          Alcotest.test_case "inputs re-derivable" `Quick test_inputs_rederivable;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "smoke campaign clean" `Slow test_smoke_campaign;
          Alcotest.test_case "injected bug caught and shrunk" `Slow
            test_injected_bug_caught_and_shrunk;
          Alcotest.test_case "gate verdicts under concurrency" `Quick test_gate_concurrent;
        ] );
      ("shrinker", [ Alcotest.test_case "reaches minimum" `Quick test_shrink_reaches_minimum ]);
      ("waterline", [ QCheck_alcotest.to_alcotest prop_waterline_always_typechecks ]);
      ( "passes",
        [
          QCheck_alcotest.to_alcotest prop_passes_noop_on_own_output;
          QCheck_alcotest.to_alcotest prop_early_modswitch_matches_sweep;
          Alcotest.test_case "no-op on every app" `Quick test_passes_noop_on_apps;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "non-empty" `Quick test_corpus_nonempty;
          Alcotest.test_case "replays clean" `Slow test_corpus_replays;
        ] );
    ]
