(* Differential test of Passes.early_modswitch against the sweep it
   replaced, on every call a real compile makes: SF, HCD, MLP and the
   lowered batch matvec under all four schemes and every registered
   exploration strategy, and PR E2 under the HECATE hill-climb.
   LeNet-r, PR E2 and LR E2 under every strategy take minutes; the
   nightly CI job runs them through modswitch_diff.exe. *)

module Driver = Hecate.Driver
module Explore = Hecate.Explore

let compiles targets =
  let calls = ref 0 in
  List.iter
    (fun (t, conf) ->
      match Modswitch_sweep.check_compile t conf with
      | Ok tally -> calls := !calls + tally.Modswitch_sweep.calls
      | Error msg -> Alcotest.fail msg)
    targets;
  !calls

(* The call count pins what the check covers: a change to the searches
   that reaches fewer inputs shows up here. *)
let test_oneshot_programs () =
  let targets =
    List.concat_map
      (fun name ->
        let t = Modswitch_sweep.standard name in
        List.map (fun conf -> (t, conf)) (Modswitch_sweep.configurations ()))
      [ "SF"; "HCD"; "MLP"; "matvec" ]
  in
  Alcotest.(check int) "early-modswitch calls checked" 9617 (compiles targets)

let test_pr_e2_hill_climb () =
  let calls =
    compiles [ (Modswitch_sweep.standard "PR E2", (Driver.Hecate, Explore.default_strategy)) ]
  in
  Alcotest.(check int) "early-modswitch calls checked" 7962 calls

let () =
  Alcotest.run "early_modswitch"
    [
      ( "sweep oracle",
        [
          Alcotest.test_case "SF/HCD/MLP/matvec, every scheme and strategy" `Quick
            test_oneshot_programs;
          Alcotest.test_case "PR E2 HECATE hill-climb" `Quick test_pr_e2_hill_climb;
        ] );
    ]
