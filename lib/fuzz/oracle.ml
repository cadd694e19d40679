module Prog = Hecate_ir.Prog
module Typing = Hecate_ir.Typing
module Printer = Hecate_ir.Printer
module Parser = Hecate_ir.Parser
module Diagnostic = Hecate_ir.Diagnostic
module Driver = Hecate.Driver
module Explore = Hecate.Explore
module Paramselect = Hecate.Paramselect
module Estimator = Hecate.Estimator
module Costmodel = Hecate.Costmodel
module Interp = Hecate_backend.Interp
module Accuracy = Hecate_backend.Accuracy
module Harness = Hecate_backend.Harness
module Eval = Hecate_ckks.Eval

type check = Compile | Validate | Typecheck | Roundtrip | Estimate | Accuracy | Cross_scheme

type failure = {
  check : check;
  scheme : Driver.scheme option;
  detail : string;
  code : Diagnostic.code option;
}

let same_class a b = a.check = b.check && a.code = b.code

let check_name = function
  | Compile -> "compile"
  | Validate -> "validate"
  | Typecheck -> "typecheck"
  | Roundtrip -> "roundtrip"
  | Estimate -> "estimate"
  | Accuracy -> "accuracy"
  | Cross_scheme -> "cross-scheme"

let check_of_name = function
  | "compile" -> Some Compile
  | "validate" -> Some Validate
  | "typecheck" -> Some Typecheck
  | "roundtrip" -> Some Roundtrip
  | "estimate" -> Some Estimate
  | "accuracy" -> Some Accuracy
  | "cross-scheme" -> Some Cross_scheme
  | _ -> None

let describe f =
  Printf.sprintf "%s[%s]%s: %s" (check_name f.check)
    (match f.scheme with Some s -> Driver.scheme_name s | None -> "all")
    (match f.code with Some c -> Printf.sprintf "{%s}" (Diagnostic.code_name c) | None -> "")
    f.detail

type config = {
  sf_bits : int;
  waterline_bits : float;
  rmse_bound : float;
  cross_bound : float;
  max_epochs : int;
  schemes : Driver.scheme list;
}

let default_config =
  {
    sf_bits = 28;
    waterline_bits = 20.;
    rmse_bound = 0x1p-7;
    cross_bound = 0x1p-6;
    max_epochs = 40;
    schemes = Driver.all_schemes;
  }

let exn_text e = Printexc.to_string e

(* The checks every compiled (managed) program must pass, shared by the
   per-scheme differential oracle and the explorer gate: structural
   validity, the C1-C3 type system, print->parse round-trip, a finite
   non-negative cost estimate, and encrypted execution within [rmse_bound]
   of the exact plaintext reference. Returns the decrypted outputs so the
   caller can run agreement checks across schemes or against a baseline.
   [params]/[estimate] default to being recomputed from the program's
   types (the gate has no compiled record in hand). *)
let check_managed ?scheme ?params ?estimate ~sf_bits ~waterline_bits ~rmse_bound ~inputs
    ~valid_slots p =
  let fail ?code check detail = Error { check; scheme; detail; code } in
  match Prog.validate p with
  | Error msg -> fail ~code:Diagnostic.Invalid_program Validate msg
  | Ok () -> (
      let tcfg = Typing.config ~sf:(float_of_int sf_bits) ~waterline:waterline_bits () in
      match Typing.check tcfg p with
      | Error d -> fail ~code:d.Diagnostic.code Typecheck (Diagnostic.to_string d)
      | Ok () -> (
          match Parser.parse (Printer.to_string p) with
          | exception e -> fail Roundtrip ("re-parse raised: " ^ exn_text e)
          | p' when not (Prog.equal p p') ->
              fail Roundtrip "printed program re-parses to a different program"
          | _ -> (
              match
                match params with
                | Some ps -> ps
                | None -> Paramselect.of_prog ~sf_bits p
              with
              | exception e -> fail Estimate ("parameter selection raised: " ^ exn_text e)
              | params ->
                  let est =
                    match estimate with
                    | Some e -> e
                    | None ->
                        Estimator.estimate ~model:(Costmodel.analytic ()) ~params
                          ~n:params.Paramselect.secure_n p
                  in
                  if not (Float.is_finite est && est >= 0.) then
                    fail Estimate (Printf.sprintf "estimated cost %g" est)
                  else (
                    match
                      let rotations = Interp.required_rotations p in
                      (* its own encryption stream, from the context's seed:
                         the verdict does not depend on which checks ran
                         before, here or on another domain *)
                      let eval =
                        Eval.restart_encryption (Harness.cached_context ~params ~rotations)
                      in
                      Accuracy.measure eval ~waterline_bits p ~inputs ~valid_slots
                    with
                    | exception e -> fail Accuracy ("execution raised: " ^ exn_text e)
                    | acc ->
                        if not (acc.Accuracy.rmse <= rmse_bound) then
                          fail Accuracy
                            (Printf.sprintf "rmse %.3e exceeds bound %.3e (max abs %.3e)"
                               acc.Accuracy.rmse rmse_bound acc.Accuracy.max_abs_error)
                        else Ok acc.Accuracy.outputs))))

(* One scheme: compile, then run the per-scheme checks. Returns the decrypted
   outputs for the cross-scheme comparison. *)
let run_scheme ~transform cfg scheme prog ~inputs =
  let fail ?code check detail = Error { check; scheme = Some scheme; detail; code } in
  match
    Driver.compile ~max_epochs:cfg.max_epochs scheme ~sf_bits:cfg.sf_bits
      ~waterline_bits:cfg.waterline_bits prog
  with
  | exception Diagnostic.Error d -> fail ~code:d.Diagnostic.code Compile (Diagnostic.to_string d)
  | exception e -> fail Compile (exn_text e)
  | compiled ->
      check_managed ~scheme ~params:compiled.Driver.params
        ~estimate:compiled.Driver.estimated_seconds ~sf_bits:cfg.sf_bits
        ~waterline_bits:cfg.waterline_bits ~rmse_bound:cfg.rmse_bound ~inputs
        ~valid_slots:prog.Prog.slot_count
        (transform scheme compiled.Driver.prog)

let max_abs_deviation outs_a outs_b =
  List.fold_left2
    (fun acc a b ->
      let m = ref acc in
      Array.iteri (fun i x -> m := Float.max !m (Float.abs (x -. b.(i)))) a;
      !m)
    0. outs_a outs_b

let run ?(transform = fun _ p -> p) cfg prog ~inputs =
  let rec per_scheme acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest -> (
        match run_scheme ~transform cfg s prog ~inputs with
        | Error f -> Error f
        | Ok outs -> per_scheme ((s, outs) :: acc) rest)
  in
  match per_scheme [] cfg.schemes with
  | Error f -> Error f
  | Ok results -> (
      (* metamorphic check: every pair of schemes must agree *)
      let rec pairs = function
        | [] | [ _ ] -> Ok ()
        | (sa, a) :: rest ->
            let rec against = function
              | [] -> pairs rest
              | (sb, b) :: more ->
                  let dev = max_abs_deviation a b in
                  if dev > cfg.cross_bound then
                    Error
                      {
                        check = Cross_scheme;
                        scheme = None;
                        detail =
                          Printf.sprintf "%s vs %s deviate by %.3e (bound %.3e)"
                            (Driver.scheme_name sa) (Driver.scheme_name sb) dev
                            cfg.cross_bound;
                        code = None;
                      }
                  else against more
            in
            against rest
      in
      match results with [] -> Ok () | _ -> pairs results)

(* ------------------------------------------------------------------ *)
(* Explorer gate                                                        *)
(* ------------------------------------------------------------------ *)

let gate_failure_of f =
  {
    Explore.failed_check = check_name f.check;
    failed_code = Option.map Diagnostic.code_name f.code;
    failed_detail = f.detail;
  }

let explorer_gate ?(seed = 0) ?rmse_bound ?cross_bound
    ?(transform = fun ~strategy:_ p -> p) ~sf_bits ~waterline_bits prog =
  (* The fuzz bounds are tuned for fuzz-sized circuits. Rescaling noise
     accumulates roughly as a random walk over the ops of the circuit, so
     real applications (sobel, regressions) sit legitimately above the
     fuzz floor: scale the default bounds by sqrt(#ops). Explicit bounds
     always win. *)
  let size_scale = sqrt (float_of_int (max 1 (Prog.num_ops prog))) in
  let rmse_bound =
    match rmse_bound with Some b -> b | None -> default_config.rmse_bound *. size_scale
  in
  let cross_bound =
    match cross_bound with Some b -> b | None -> default_config.cross_bound *. size_scale
  in
  let inputs = Gen.inputs_for ~seed prog in
  let valid_slots = prog.Prog.slot_count in
  (* The agreement reference: EVA's waterline codegen with no exploration,
     compiled and executed once, on demand. When the baseline itself cannot
     be built (or fails its own checks) the agreement check is skipped —
     the gate must not reject a candidate for the baseline's sins. *)
  let baseline =
    lazy
      (match Driver.compile Driver.Eva ~sf_bits ~waterline_bits prog with
      | exception _ -> None
      | compiled -> (
          match
            check_managed ~scheme:Driver.Eva ~params:compiled.Driver.params
              ~estimate:compiled.Driver.estimated_seconds ~sf_bits ~waterline_bits
              ~rmse_bound ~inputs ~valid_slots compiled.Driver.prog
          with
          | Ok outs -> Some outs
          | Error _ -> None))
  in
  let baseline_lock = Mutex.create () in
  fun ~strategy ~plan:_ p ->
    let p = transform ~strategy p in
    match check_managed ~sf_bits ~waterline_bits ~rmse_bound ~inputs ~valid_slots p with
    | Error f -> Error (gate_failure_of f)
    | Ok outs -> (
        (* forcing a lazy value from two domains at once raises *)
        Mutex.lock baseline_lock;
        let baseline =
          Fun.protect ~finally:(fun () -> Mutex.unlock baseline_lock) (fun () ->
              Lazy.force baseline)
        in
        match baseline with
        | None -> Ok ()
        | Some ref_outs ->
            let dev = max_abs_deviation outs ref_outs in
            if dev > cross_bound then
              Error
                {
                  Explore.failed_check = check_name Cross_scheme;
                  failed_code = None;
                  failed_detail =
                    Printf.sprintf "deviates from the EVA baseline by %.3e (bound %.3e)" dev
                      cross_bound;
                }
            else Ok ())
