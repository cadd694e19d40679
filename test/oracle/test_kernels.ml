(* Whole-program differential test of the fast kernels: the one-shot
   programs (SF, HCD, MLP and the lowered batch matvec) at their HECATE
   plans, executed from the same seed under fast and under reference
   kernels, decrypt to the same bits. LeNet-r's and PR E2's PARS plans
   take longer; the nightly CI job runs them through kernels_diff.exe. *)

let test_oneshot_programs () =
  List.iter
    (fun name ->
      List.iter
        (fun seed ->
          match Kernel_check.check_program ~seed Hecate.Driver.Hecate name with
          | Ok outputs -> Alcotest.(check bool) (name ^ " has outputs") true (outputs > 0)
          | Error msg -> Alcotest.fail msg)
        [ 1; 0x5EED ])
    [ "SF"; "HCD"; "MLP"; "matvec" ]

let () =
  Alcotest.run "fast_kernels"
    [ ("whole program", [ Alcotest.test_case "oneshot programs" `Quick test_oneshot_programs ]) ]
