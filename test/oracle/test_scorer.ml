(* Differential test of the abstract scorer against the built scoring path
   (Score_check): every candidate of the SF, HCD, MLP, lowered matvec and
   PR E2 searches under SMSE and HECATE, every strategy, with and without
   early-modswitch; 300 [Gen] programs on plans of their own edges; and a
   search on two domains against one. *)

module Driver = Hecate.Driver
module Prog = Hecate_ir.Prog
module B = Hecate_ir.Prog.Builder
module Types = Hecate_ir.Types
module Typing = Hecate_ir.Typing
module Smu = Hecate.Smu
module Explore = Hecate.Explore
module Codegen = Hecate.Codegen
module Apps = Hecate_apps.Apps
module Score_ref = Score_check.Score_ref

let check = Alcotest.check

let check_searches names () =
  List.iter
    (fun name ->
      let t = Modswitch_sweep.standard name in
      List.iter
        (fun (early_modswitch, conf) ->
          match Score_check.check_search ~early_modswitch t conf with
          | Ok tally ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: %d candidates, %d infeasible" name
                   tally.Score_check.candidates tally.Score_check.infeasible)
                true
                (tally.Score_check.candidates > 0)
          | Error msg -> Alcotest.fail msg)
        (Score_check.configurations ()))
    names

let test_generated () =
  let compared = ref 0 and infeasible = ref 0 in
  for seed = 0 to 299 do
    let case = Hecate_fuzz.Gen.generate ~seed () in
    let prog =
      Hecate_ir.Pass_manager.run Hecate_ir.Pass_manager.cleanup case.Hecate_fuzz.Gen.prog
    in
    List.iter
      (fun (early_modswitch, scheme) ->
        let where =
          Printf.sprintf "Gen seed %d, %s, early-modswitch %b" seed (Driver.scheme_name scheme)
            early_modswitch
        in
        match
          Score_check.check_plans ~where ~scheme ~early_modswitch ~waterline:20. prog
            (Score_check.plans ~seed ~singles:8 ~random:4)
        with
        | Ok t ->
            compared := !compared + t.Score_check.candidates;
            infeasible := !infeasible + t.Score_check.infeasible
        | Error msg -> Alcotest.fail msg)
      [ (true, Driver.Smse); (true, Driver.Hecate); (false, Driver.Smse); (false, Driver.Hecate) ]
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d candidates compared, %d infeasible" !compared !infeasible)
    true (!compared > 0)

(* Two domains score the same candidates as one, and each agrees with the
   built reference. *)
let test_pool () =
  let t = Modswitch_sweep.standard "HCD" in
  List.iter
    (fun scheme ->
      let one =
        Score_check.check_search ~pool_size:1 ~early_modswitch:true t
          (scheme, Hecate.Explore.portfolio_name)
      and two =
        Score_check.check_search ~pool_size:2 ~early_modswitch:true t
          (scheme, Hecate.Explore.portfolio_name)
      in
      match (one, two) with
      | Ok a, Ok b ->
          Alcotest.(check int)
            (Driver.scheme_name scheme ^ ": candidates on two domains")
            a.Score_check.candidates b.Score_check.candidates
      | Error msg, _ | _, Error msg -> Alcotest.fail msg)
    [ Driver.Smse; Driver.Hecate ]

(* Sources every plan of which is infeasible, both ways: an output that is
   not a ciphertext (the type check), and operands [Select] will not place
   (a product of two plaintexts; the negation of a plaintext). Left raw:
   the cleanup would fold the constant arithmetic. *)
let test_infeasible () =
  let source name f =
    let b = B.create ~name ~slot_count:8 () in
    let x = B.input b "x" in
    f b x;
    B.finish b
  in
  let sources =
    [
      source "const output" (fun b x ->
          B.output b (B.mul b x x);
          B.output b (B.const_scalar b 0.5));
      source "plaintext product" (fun b x ->
          B.output b (B.add b x (B.mul b (B.const_scalar b 2.) (B.const_scalar b 3.))));
      source "plaintext negation" (fun b x ->
          B.output b (B.add b (B.mul b x x) (B.negate b (B.const_scalar b 2.))));
    ]
  in
  List.iter
    (fun prog ->
      List.iter
        (fun (early_modswitch, scheme) ->
          let where =
            Printf.sprintf "%s, %s, early-modswitch %b" prog.Prog.name (Driver.scheme_name scheme)
              early_modswitch
          in
          match
            Score_check.check_plans ~where ~scheme ~early_modswitch ~waterline:20. prog
              (Score_check.plans ~seed:1 ~singles:4 ~random:4)
          with
          | Ok t ->
              check Alcotest.int (where ^ ": every plan infeasible") t.Score_check.candidates
                t.Score_check.infeasible
          | Error msg -> Alcotest.fail msg)
        [
          (true, Driver.Smse); (true, Driver.Hecate); (false, Driver.Smse); (false, Driver.Hecate);
        ])
    sources

(* [Score_ref.discard] empties the body and nothing else: a program
   sharing the op records keeps them, types included. *)
let test_discard () =
  let p =
    let b = B.create ~name:"t" ~slot_count:16 () in
    let x = B.input b "x" in
    let y = B.input b "y" in
    B.output b (B.add b (B.mul b x y) (B.const_scalar b 2.));
    B.finish b
  in
  let cipher = Types.Cipher { Types.scale = 20.; level = 3 } in
  (Prog.op p 3).Prog.ty <- cipher;
  let q = { p with Prog.body = Array.copy p.Prog.body } in
  let before = Hecate_ir.Printer.to_string q in
  Score_ref.discard p;
  check Alcotest.bool "every slot holds the placeholder" true
    (Array.for_all (fun o -> o == Prog.placeholder) p.Prog.body);
  check Alcotest.int "body length kept" (Prog.num_ops q) (Prog.num_ops p);
  check Alcotest.bool "the discarded program is invalid" true (Result.is_error (Prog.validate p));
  check Alcotest.(result unit string) "the sharer stays valid" (Ok ()) (Prog.validate q);
  check Alcotest.string "the sharer prints the same" before (Hecate_ir.Printer.to_string q);
  check Alcotest.bool "types on shared ops kept" true (Types.equal cipher (Prog.op q 3).Prog.ty)

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
      Score_ref.discard managed;
      check Alcotest.(result unit string) "finalized program still valid" (Ok ())
        (Prog.validate p);
      check Alcotest.string "and prints the same" before (Hecate_ir.Printer.to_string p))
    (List.init (Array.length edges + 1) (fun k ->
         Array.init (Array.length edges) (fun i -> if i = k then 1 else 0)));
  check Alcotest.bool
    (Printf.sprintf "%d finalized programs share op records with their input" !sharing)
    true (!sharing > 0)

let () =
  Alcotest.run "scorer"
    [
      ( "abstract against built",
        [
          Alcotest.test_case "SF/HCD/MLP/matvec searches" `Quick
            (check_searches [ "SF"; "HCD"; "MLP"; "matvec" ]);
          Alcotest.test_case "PR E2 searches" `Quick (check_searches [ "PR E2" ]);
          Alcotest.test_case "generated programs" `Quick test_generated;
          Alcotest.test_case "pool size 2 against 1" `Quick test_pool;
          Alcotest.test_case "infeasible sources" `Quick test_infeasible;
        ] );
      ( "built reference",
        [
          Alcotest.test_case "discard" `Quick test_discard;
          Alcotest.test_case "discarding a codegen output" `Quick test_discard_codegen_output;
        ] );
    ]
