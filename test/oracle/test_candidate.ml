(* Differential test of the candidate path's rewrites against the code
   they replaced, kept in Candidate_ref: every candidate a compile of SF,
   HCD, MLP or the lowered batch matvec scores, under all four schemes and
   every registered exploration strategy, gets the same use counts,
   validation, types, fusion roles and parameters and estimates equal to
   the last bit from both, and so do 300 [Gen] programs, raw and managed;
   [Prog.validate] gives the old message for every rule a crafted program
   breaks; and the array hook answers like the Hashtbl hook for every site
   of random plans over the four programs' edges. *)

module Prog = Hecate_ir.Prog
module Typing = Hecate_ir.Typing
module Passes = Hecate_ir.Passes
module Pass_manager = Hecate_ir.Pass_manager
module Fusion = Hecate_ir.Fusion
module Smu = Hecate.Smu
module Explore = Hecate.Explore
module Driver = Hecate.Driver
module Estimator = Hecate.Estimator
module Paramselect = Hecate.Paramselect
module Costmodel = Hecate.Costmodel

(* Every finalized candidate of the compile running now, newest first.
   [Driver.compile] discards a candidate's body once it is scored, so each
   is recorded with a body of its own; the op records, which carry the
   types its type check leaves, are shared. *)
let recorded : Prog.t list ref = ref []

let () =
  Pass_manager.register "finalize-record"
    ~description:"finalize, recording every candidate (test/oracle)" (fun p ->
      let q = Passes.finalize ~early_modswitch:true p in
      recorded := { q with Prog.body = Array.copy q.Prog.body } :: !recorded;
      q)

let record_pipeline = Pass_manager.parse_exn "finalize-record"

let role_name = function
  | Fusion.Single -> "single"
  | Fusion.Fused_mul -> "fused mul"
  | Fusion.Fused_rescale -> "fused rescale"
  | Fusion.Fan_head l -> "fan head " ^ String.concat "," (List.map string_of_int l)
  | Fusion.Fan_member -> "fan member"

let ref_role_name = function
  | Candidate_ref.Fusion.Single -> "single"
  | Candidate_ref.Fusion.Fused_mul -> "fused mul"
  | Candidate_ref.Fusion.Fused_rescale -> "fused rescale"
  | Candidate_ref.Fusion.Fan_head l -> "fan head " ^ String.concat "," (List.map string_of_int l)
  | Candidate_ref.Fusion.Fan_member -> "fan member"

(* an estimate or the message it failed with, to the last bit *)
let bits f = match f () with x -> Printf.sprintf "%h" x | exception Invalid_argument m -> m

let types_string = function
  | Ok tys -> String.concat " " (Array.to_list (Array.map Hecate_ir.Types.to_string tys))
  | Error d ->
      Printf.sprintf "%s [%s] (%s)" (Hecate_ir.Diagnostic.to_string d)
        (String.concat ", " (List.map Hecate_ir.Types.to_string d.Hecate_ir.Diagnostic.operand_types))
        (Option.value ~default:"" d.Hecate_ir.Diagnostic.op_kind)

(* [None] when the checks agree on [p] under [cfg], or the difference. The
   reference types go on the ops first, so [Typing.check] starts from them. *)
let check_difference ~where cfg p =
  let fail fmt =
    Printf.ksprintf
      (fun msg -> Some (Printf.sprintf "%s: %s\n%s" where msg (Hecate_ir.Printer.to_string p)))
      fmt
  in
  let want = types_string (Candidate_ref.Typing_ref.check cfg p) in
  let got =
    match Typing.check cfg p with
    | Ok () -> types_string (Ok (Array.map (fun (o : Prog.op) -> o.Prog.ty) p.Prog.body))
    | Error d -> types_string (Error d)
  in
  if Prog.use_counts p <> Candidate_ref.Prog_ref.use_counts p then fail "use counts differ"
  else if Prog.validate p <> Candidate_ref.Prog_ref.validate p then fail "validation differs"
  else if got <> want then fail "types: %s, reference %s" got want
  else None

(* [None] when both agree on the typed candidate [p], or the difference. *)
let difference ~where p =
  let model = Costmodel.analytic () in
  let roles = Array.map role_name (Fusion.analyze p)
  and ref_roles = Array.map ref_role_name (Candidate_ref.Fusion.analyze p) in
  let types = Array.map (fun (o : Prog.op) -> o.Prog.ty) p.Prog.body in
  let params = Paramselect.select ~sf_bits:28 ~types ~slot_count:p.Prog.slot_count () in
  let fail fmt =
    Printf.ksprintf
      (fun msg -> Some (Printf.sprintf "%s: %s\n%s" where msg (Hecate_ir.Printer.to_string p)))
      fmt
  in
  if roles <> ref_roles then fail "fusion roles differ"
  else if Paramselect.of_prog ~sf_bits:28 p <> params then fail "of_prog differs from select"
  else
    List.fold_left
      (fun acc n ->
        match acc with
        | Some _ -> acc
        | None -> (
            let got = bits (fun () -> Estimator.estimate ~model ~params ~n p)
            and want = bits (fun () -> Candidate_ref.Estimator.estimate ~model ~params ~n p) in
            if got <> want then fail "estimate at n=%d: %s, reference %s" n got want
            else None))
      None
      [ params.Paramselect.secure_n; 4096 ]

type tally = { mutable candidates : int; mutable typed : int }

let check_compile tally (t : Modswitch_sweep.target) (scheme, strategy) =
  recorded := [];
  ignore
    (Driver.compile ~pool_size:1 ?passes:t.Modswitch_sweep.cleanup
       ~finalize_passes:record_pipeline ~strategy scheme ~sf_bits:28
       ~waterline_bits:t.Modswitch_sweep.waterline t.Modswitch_sweep.prog);
  let cfg = Typing.config ~sf:28. ~waterline:t.Modswitch_sweep.waterline () in
  let where =
    Printf.sprintf "%s, %s, %s" t.Modswitch_sweep.label (Driver.scheme_name scheme) strategy
  in
  List.iter
    (fun p ->
      tally.candidates <- tally.candidates + 1;
      Option.iter Alcotest.fail (check_difference ~where cfg p);
      match Typing.check cfg p with
      | Error _ -> ()
      | Ok _ -> (
          tally.typed <- tally.typed + 1;
          match difference ~where p with None -> () | Some msg -> Alcotest.fail msg))
    (List.rev !recorded)

(* The counts pin what the check covers: a change to the searches that
   reaches fewer candidates shows up here. *)
let test_estimates () =
  let tally = { candidates = 0; typed = 0 } in
  List.iter
    (fun name ->
      let t = Modswitch_sweep.standard name in
      List.iter (check_compile tally t) (Modswitch_sweep.configurations ()))
    [ "SF"; "HCD"; "MLP"; "matvec" ];
  Alcotest.(check int) "candidates checked" 4993 tally.candidates;
  Alcotest.(check int) "of which typed" 4993 tally.typed

(* Random programs, raw (whose type check fails) and managed by both code
   generators, before and after finalize. *)
let test_gen () =
  for seed = 1 to 300 do
    let case = Hecate_fuzz.Gen.generate ~seed () in
    let raw = case.Hecate_fuzz.Gen.prog in
    let cfg = Typing.config ~sf:28. ~waterline:20. () in
    let where what = Printf.sprintf "Gen seed %d, %s" seed what in
    Option.iter Alcotest.fail (check_difference ~where:(where "raw") cfg raw);
    List.iter
      (fun (what, managed) ->
        match managed () with
        | exception (Invalid_argument _ | Hecate_ir.Diagnostic.Error _) -> ()
        | p ->
            Option.iter Alcotest.fail (check_difference ~where:(where what) cfg p);
            let q = Passes.finalize ~early_modswitch:true p in
            Option.iter Alcotest.fail (check_difference ~where:(where (what ^ ", finalized")) cfg q);
            if Result.is_ok (Typing.check cfg q) then
              Option.iter Alcotest.fail (difference ~where:(where (what ^ ", estimate")) q))
      [
        ("waterline", fun () -> Hecate.Codegen.waterline cfg raw);
        ("pars", fun () -> Hecate.Codegen.pars cfg raw);
      ]
  done

(* One program per rule [validate] checks, each also breaking every rule
   checked after it, so the message shows which rule comes first. *)
let test_validate_errors () =
  let op id kind args = { Prog.id; kind; args; ty = Hecate_ir.Types.Free; prov = None } in
  let x = Prog.Input { name = "x" } in
  let prog ?(inputs = [ 0 ]) ?(outputs = [ 1 ]) body =
    { Prog.name = "f"; slot_count = 4; body = Array.of_list body; inputs; outputs }
  in
  let cases =
    [
      ("wrong id", prog ~outputs:[ 9 ] [ op 0 x [||]; op 5 Prog.Negate [| 0 |] ]);
      ("wrong arity", prog ~outputs:[] [ op 0 x [||]; op 1 Prog.Add [| 0 |] ]);
      ("operand after use", prog ~outputs:[ -1 ] [ op 0 x [||]; op 1 Prog.Negate [| 1 |] ]);
      ("negative operand", prog [ op 0 x [||]; op 1 Prog.Negate [| -3 |] ]);
      ("output out of range", prog ~outputs:[ 1; 2 ] ~inputs:[ 1 ] [ op 0 x [||]; op 1 Prog.Negate [| 0 |] ]);
      ("no outputs", prog ~outputs:[] ~inputs:[ 0; 0; 7 ] [ op 0 x [||]; op 1 Prog.Negate [| 0 |] ]);
      ("input not an input op", prog ~inputs:[ 0; 1; 0 ] [ op 0 x [||]; op 1 Prog.Negate [| 0 |] ]);
      ("input out of range", prog ~inputs:[ 0; 0; -1 ] [ op 0 x [||]; op 1 Prog.Negate [| 0 |] ]);
      ( "duplicate input",
        prog ~inputs:[ 0; 0 ] [ op 0 x [||]; op 1 Prog.Negate [| 0 |]; op 2 (Prog.Input { name = "y" }) [||] ] );
      ( "undeclared input",
        prog [ op 0 x [||]; op 1 Prog.Negate [| 0 |]; op 2 (Prog.Input { name = "y" }) [||];
               op 3 (Prog.Input { name = "z" }) [||] ] );
      ("valid", prog [ op 0 x [||]; op 1 Prog.Negate [| 0 |] ]);
    ]
  in
  let show = function Ok () -> "ok" | Error m -> m in
  List.iter
    (fun (name, p) ->
      Alcotest.(check string) name (show (Candidate_ref.Prog_ref.validate p)) (show (Prog.validate p)))
    cases;
  (* the messages themselves, so a reference that drifted shows too *)
  Alcotest.(check (list string))
    "messages"
    [
      "op at index 1 has id 5";
      "op 1 (add): expected 2 operands, got 1";
      "op 1 (negate): operand does not precede use";
      "op 1 (negate): operand does not precede use";
      "output id out of range";
      "program has no outputs";
      "input list does not point at input ops";
      "input list does not point at input ops";
      "input list contains duplicates";
      "input op 2 is not in the input list";
      "ok";
    ]
    (List.map (fun (_, p) -> show (Prog.validate p)) cases)

(* The SMU and use-def edges of the four programs, as Driver.compile
   builds them, with the op count of the program they index. *)
let edge_sets =
  lazy
    (List.concat_map
       (fun name ->
         let t = Modswitch_sweep.standard name in
         let prog =
           Pass_manager.run
             (Option.value ~default:Pass_manager.cleanup t.Modswitch_sweep.cleanup)
             t.Modswitch_sweep.prog
         in
         let n = Prog.num_ops prog in
         [ (name, n, (Smu.generate prog).Smu.edges); (name ^ " naive", n, Smu.naive_edges prog) ])
       [ "SF"; "HCD"; "MLP"; "matvec" ])

(* Random plans, half their entries zero; every (op, operand) asked,
   including ops past the program and operands no op has. *)
let prop_hook =
  QCheck.Test.make ~name:"array hook answers like the Hashtbl hook" ~count:200
    QCheck.(pair (int_bound 7) (int_bound 1_000_000))
    (fun (which, seed) ->
      let sets = Lazy.force edge_sets in
      let name, n, edges = List.nth sets (which mod List.length sets) in
      let g = Random.State.make [| seed |] in
      let plan =
        Array.init (Array.length edges) (fun _ ->
            if Random.State.bool g then 0 else Random.State.int g 4)
      in
      let hook = Explore.hook_of_plan edges plan
      and reference = Candidate_ref.hook_of_plan edges plan in
      for op_id = -2 to n + 2 do
        for operand = -1 to 2 do
          let got = hook ~op_id ~operand and want = reference ~op_id ~operand in
          if got <> want then
            QCheck.Test.fail_reportf "%s, seed %d: site (%d, %d) answers %d, reference %d" name
              seed op_id operand got want
        done
      done;
      true)

let () =
  Alcotest.run "candidate"
    [
      ( "flat arrays",
        [
          Alcotest.test_case "SF/HCD/MLP/matvec candidates: roles and estimates" `Quick
            test_estimates;
          Alcotest.test_case "Gen programs: checks, roles and estimates" `Quick test_gen;
          Alcotest.test_case "validate: every error, in the old precedence" `Quick
            test_validate_errors;
          QCheck_alcotest.to_alcotest prop_hook;
        ] );
    ]
