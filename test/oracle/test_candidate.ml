(* Differential test of the candidate path's flat-array rewrites against
   the code they replaced, kept in Candidate_ref: every candidate a compile
   of SF, HCD, MLP or the lowered batch matvec scores, under all four
   schemes and every registered exploration strategy, gets the same fusion
   roles, the same parameters and estimates equal to the last bit from
   both; and the array hook answers like the Hashtbl hook for every site of
   random plans over the four programs' edges. *)

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

(* Every finalized candidate of the compile running now, newest first. *)
let recorded : Prog.t list ref = ref []

let () =
  Pass_manager.register "finalize-record"
    ~description:"finalize, recording every candidate (test/oracle)" (fun p ->
      let q = Passes.finalize ~early_modswitch:true p in
      recorded := q :: !recorded;
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
  Alcotest.(check int) "candidates checked" 4963 tally.candidates;
  Alcotest.(check int) "of which typed" 4963 tally.typed

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
          QCheck_alcotest.to_alcotest prop_hook;
        ] );
    ]
