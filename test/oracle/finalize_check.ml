(* Differential check of Passes.finalize against the pass pipeline it
   fuses, Pass_manager.finalize_reference: on one program, or on every
   candidate a compile finalizes. Both must return the same program under
   Prog.equal, the same provenance on every op, and the input itself in
   the same cases. The reference runs under the early-modswitch sweep
   recorder, so each of its early-modswitch calls is also checked against
   the sweep that pass replaced. *)

module Prog = Hecate_ir.Prog
module Passes = Hecate_ir.Passes
module Pass_manager = Hecate_ir.Pass_manager

(* [check ?instr ~early_modswitch p]: [Ok fused], or [Error] naming the
   difference. [instr] instruments the reference run. *)
let check ?instr ~early_modswitch p =
  let fused = Passes.finalize ~early_modswitch p in
  let reference = Pass_manager.run ?instr (Pass_manager.finalize_reference ~early_modswitch) p in
  match Modswitch_sweep.compare ~input:p ~expected:reference ~actual:fused with
  | None -> Ok fused
  | Some msg ->
      Error
        (Printf.sprintf "%s (early_modswitch %b)\n; input:\n%s" msg early_modswitch
           (Hecate_ir.Printer.to_string p))

type tally = {
  mutable candidates : int;  (** finalize calls checked *)
  mutable unchanged : int;  (** of which returned their input physically *)
  mutable failure : string option;
  sweep : Modswitch_sweep.tally;  (** the reference's early-modswitch calls *)
}

(* The finalization every candidate of a compile goes through while a
   check runs: both variants compared, the early-modswitch one returned.
   One compile at a time, on one domain ([~pool_size:1]). *)
let current : (tally * Pass_manager.instrumentation) option ref = ref None

let () =
  Pass_manager.register "finalize-diff"
    ~description:"finalize, checked against finalize_reference (test/oracle)" (fun p ->
      match !current with
      | None -> Passes.finalize ~early_modswitch:true p
      | Some (tally, instr) -> (
          tally.candidates <- tally.candidates + 1;
          let record = function
            | Ok fused -> fused
            | Error msg ->
                if tally.failure = None then tally.failure <- Some msg;
                Passes.finalize ~early_modswitch:true p
          in
          ignore (record (check ~early_modswitch:false p));
          let fused = record (check ~instr ~early_modswitch:true p) in
          if fused == p then tally.unchanged <- tally.unchanged + 1;
          fused))

let diff_pipeline = Pass_manager.parse_exn "finalize-diff"

(* Compile [t] under [scheme]/[strategy] with every candidate checked;
   [Error] names the first difference, from either oracle. *)
let check_compile (t : Modswitch_sweep.target) (scheme, strategy) =
  let instr, sweep = Modswitch_sweep.recorder () in
  let tally = { candidates = 0; unchanged = 0; failure = None; sweep } in
  current := Some (tally, instr);
  Fun.protect
    ~finally:(fun () -> current := None)
    (fun () ->
      ignore
        (Hecate.Driver.compile ~pool_size:1 ?passes:t.Modswitch_sweep.cleanup
           ~finalize_passes:diff_pipeline ~strategy scheme ~sf_bits:28
           ~waterline_bits:t.Modswitch_sweep.waterline t.Modswitch_sweep.prog));
  let where =
    Printf.sprintf "%s, %s, %s" t.Modswitch_sweep.label (Hecate.Driver.scheme_name scheme)
      strategy
  in
  match (tally.failure, sweep.Modswitch_sweep.failure) with
  | Some msg, _ -> Error (Printf.sprintf "%s: finalize: %s" where msg)
  | None, Some msg -> Error (Printf.sprintf "%s: early-modswitch: %s" where msg)
  | None, None -> Ok tally
