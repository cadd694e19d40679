(* Differential test of Passes.finalize against the pass pipeline it
   fuses, on every candidate a real compile finalizes: SF, HCD, MLP, the
   lowered batch matvec and PR E2 under all four schemes and every
   registered exploration strategy, each candidate with and without
   early-modswitch; on generated programs; and on hand-written ones that
   take the paths searches never reach. LeNet-r and LR E2 take minutes;
   the nightly CI job runs them through finalize_diff.exe. *)

module Prog = Hecate_ir.Prog
module Parser = Hecate_ir.Parser
module Typing = Hecate_ir.Typing
module Codegen = Hecate.Codegen
module Gen = Hecate_fuzz.Gen

let compiles names =
  List.fold_left
    (fun (candidates, calls) name ->
      let t = Modswitch_sweep.standard name in
      List.fold_left
        (fun (candidates, calls) conf ->
          match Finalize_check.check_compile t conf with
          | Ok tally ->
              ( candidates + tally.Finalize_check.candidates,
                calls + tally.Finalize_check.sweep.Modswitch_sweep.calls )
          | Error msg -> Alcotest.fail msg)
        (candidates, calls) (Modswitch_sweep.configurations ()))
    (0, 0) names

(* The counts pin what the check covers: a change to the searches that
   reaches fewer candidates shows up here. *)
let test_searches names ~candidates ~calls () =
  let c, k = compiles names in
  Alcotest.(check int) "candidates checked" candidates c;
  Alcotest.(check int) "reference early-modswitch calls checked" calls k

let check_both p =
  List.iter
    (fun early_modswitch ->
      match Finalize_check.check ~early_modswitch p with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail msg)
    [ true; false ]

(* a generated program as written, and as each code generator manages it *)
let forms prog =
  let cfg = Typing.config ~sf:28. ~waterline:20. () in
  [ ("raw", prog); ("pars", Codegen.pars cfg prog); ("eva", Codegen.waterline cfg prog) ]

let prop_generated =
  QCheck.Test.make ~name:"generated programs" ~count:200
    QCheck.(int_bound 100_000)
    (fun seed ->
      List.for_all
        (fun (form, p) ->
          List.for_all
            (fun early_modswitch ->
              match Finalize_check.check ~early_modswitch p with
              | Ok _ -> true
              | Error msg -> QCheck.Test.fail_reportf "seed %d (%s): %s" seed form msg)
            [ true; false ])
        (forms (Gen.generate ~seed ()).Gen.prog))

(* 200 adds under one modswitch: deeper than the fixpoint's 64-iteration
   budget if modswitches moved one op per iteration *)
let test_deep_chain () =
  let depth = 200 in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "func f(%0: cipher \"x\") slots=4 {\n";
  for i = 1 to depth do
    Buffer.add_string buf (Printf.sprintf "  %%%d = add %%%d, %%%d\n" i (i - 1) (i - 1))
  done;
  Buffer.add_string buf (Printf.sprintf "  %%%d = modswitch %%%d\n" (depth + 1) depth);
  Buffer.add_string buf (Printf.sprintf "  return %%%d\n}\n" (depth + 1));
  check_both (Parser.parse (Buffer.contents buf))

(* Paths no search takes: constants to fold (after which the next round
   numbers values again), duplicates and dead ops left beside them, and
   duplicates that only appear once early-modswitch has moved a layer. *)
let test_hand_written () =
  List.iter
    (fun src -> check_both (Parser.parse src))
    [
      {|func f(%0: cipher "x") slots=4 {
  %1 = const 2.
  %2 = const 3.
  %3 = add %1, %2
  %4 = mul %1, %2
  %5 = add %3, %4
  %6 = encode %5, scale=20, level=0
  %7 = mul %0, %6
  %8 = mul %0, %6
  %9 = negate %0
  %10 = add %7, %8
  return %10
}|};
      {|func f(%0: cipher "x", %1: cipher "y") slots=4 {
  %2 = modswitch %0
  %3 = add %2, %1
  %4 = modswitch %3
  %5 = modswitch %0
  %6 = modswitch %5
  %7 = modswitch %1
  %8 = add %6, %7
  %9 = add %4, %8
  return %9
}|};
      {|func f(%0: cipher "x") slots=4 {
  %1 = negate %0
  %2 = modswitch %1
  %3 = negate %0
  %4 = modswitch %3
  %5 = add %2, %4
  %6 = rotate %0, 1
  return %5
}|};
      (* %3 absorbs the modswitch %4 and becomes %7, with %9 dead or not *)
      {|func f(%0: cipher "x", %1: cipher "z") slots=4 {
  %2 = modswitch %0
  %3 = add %2, %1
  %4 = modswitch %3
  %5 = modswitch %2
  %6 = modswitch %1
  %7 = add %5, %6
  %8 = add %4, %7
  %9 = negate %0
  return %8
}|};
      {|func f(%0: cipher "x", %1: cipher "z") slots=4 {
  %2 = modswitch %0
  %3 = add %2, %1
  %4 = modswitch %3
  %5 = modswitch %2
  %6 = modswitch %1
  %7 = add %5, %6
  %8 = add %4, %7
  return %8
}|};
    ]

let () =
  Alcotest.run "finalize"
    [
      ( "fused sweep",
        [
          Alcotest.test_case "SF/HCD/MLP/matvec searches" `Quick
            (test_searches [ "SF"; "HCD"; "MLP"; "matvec" ] ~candidates:4993 ~calls:9617);
          Alcotest.test_case "PR E2 searches" `Quick
            (test_searches [ "PR E2" ] ~candidates:35832 ~calls:71664);
          QCheck_alcotest.to_alcotest prop_generated;
          Alcotest.test_case "200-deep chain" `Quick test_deep_chain;
          Alcotest.test_case "folds, duplicates, dead ops" `Quick test_hand_written;
        ] );
    ]
