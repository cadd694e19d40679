(* Tests for the backend: reference interpreter, CKKS interpreter (compiled
   programs execute to the right values under every scheme), profiling and
   the waterline-search harness. *)

module Prog = Hecate_ir.Prog
module B = Prog.Builder
module Driver = Hecate.Driver
module Costmodel = Hecate.Costmodel
module Interp = Hecate_backend.Interp
module Reference = Hecate_backend.Reference
module Accuracy = Hecate_backend.Accuracy
module Profile = Hecate_backend.Profile
module Harness = Hecate_backend.Harness
module Apps = Hecate_apps.Apps
module Batch_apps = Hecate_apps.Batch_apps
module Lower = Hecate_batch.Lower
module Prng = Hecate_support.Prng
module Stats = Hecate_support.Stats

let check = Alcotest.check

let fig2 () =
  let b = B.create ~name:"fig2" ~slot_count:64 () in
  let x = B.input b "x" and y = B.input b "y" in
  let z = B.add b (B.mul b x x) (B.mul b y y) in
  B.output b (B.mul b (B.mul b z z) z);
  B.finish b

let fig2_inputs =
  let g = Prng.create ~seed:0xF162 in
  [
    ("x", Array.init 64 (fun _ -> Prng.float01 g -. 0.5));
    ("y", Array.init 64 (fun _ -> Prng.float01 g -. 0.5));
  ]

(* ------------------------------------------------------------------ *)
(* Reference interpreter                                                *)
(* ------------------------------------------------------------------ *)

let test_reference_fig2 () =
  let out = List.hd (Reference.execute (fig2 ()) ~inputs:fig2_inputs) in
  let x = List.assoc "x" fig2_inputs and y = List.assoc "y" fig2_inputs in
  for i = 0 to 63 do
    let z = (x.(i) *. x.(i)) +. (y.(i) *. y.(i)) in
    check (Alcotest.float 1e-12) "cube" (z *. z *. z) out.(i)
  done

let test_reference_opaque_ops_transparent () =
  (* scale management ops must not affect reference semantics *)
  let p =
    Hecate_ir.Parser.parse
      {|
func f(%0: cipher "x") slots=4 {
  %1 = mul %0, %0
  %2 = rescale %1
  %3 = modswitch %2
  %4 = upscale %3, 40
  %5 = downscale %4, 20
  return %5
}
|}
  in
  let out = List.hd (Reference.execute p ~inputs:[ ("x", [| 3.; -2.; 0.5; 0. |]) ]) in
  check Alcotest.(array (float 1e-12)) "squares" [| 9.; 4.; 0.25; 0. |] out

let test_reference_missing_input () =
  match Reference.execute (fig2 ()) ~inputs:[ ("x", [| 1. |]) ] with
  | _ -> Alcotest.fail "expected missing input error"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* CKKS interpreter on compiled programs                                *)
(* ------------------------------------------------------------------ *)

let run_scheme scheme =
  let c = Driver.compile scheme ~sf_bits:28 ~waterline_bits:20. (fig2 ()) in
  let eval =
    Interp.context ~params:c.Driver.params
      ~rotations:(Interp.required_rotations c.Driver.prog) ()
  in
  Accuracy.measure eval ~waterline_bits:20. c.Driver.prog ~inputs:fig2_inputs ~valid_slots:64

let test_execute_all_schemes_accurate () =
  List.iter
    (fun scheme ->
      let acc = run_scheme scheme in
      check Alcotest.bool
        (Driver.scheme_name scheme ^ " under error bound")
        true
        (acc.Accuracy.rmse < 0x1p-8))
    Driver.all_schemes

let test_execute_reports_classes () =
  let c = Driver.compile Driver.Hecate ~sf_bits:28 ~waterline_bits:20. (fig2 ()) in
  let eval =
    Interp.context ~params:c.Driver.params
      ~rotations:(Interp.required_rotations c.Driver.prog) ()
  in
  let r = Interp.execute eval ~waterline_bits:20. c.Driver.prog ~inputs:fig2_inputs in
  check Alcotest.bool "timed" true (r.Interp.elapsed_seconds > 0.);
  check Alcotest.bool "mul class present" true
    (List.mem_assoc Costmodel.Cipher_mul r.Interp.per_class);
  check Alcotest.bool "liveness bounded" true (r.Interp.peak_live <= Prog.num_ops c.Driver.prog)

let test_rotation_program_executes () =
  let b = B.create ~name:"rot" ~slot_count:64 () in
  let x = B.input b "x" in
  B.output b (B.mul b (B.add b x (B.rotate b x 3)) x);
  let p = B.finish b in
  let c = Driver.compile Driver.Pars ~sf_bits:28 ~waterline_bits:20. p in
  check Alcotest.(list int) "rotations detected" [ 3 ]
    (Interp.required_rotations c.Driver.prog);
  let eval = Interp.context ~params:c.Driver.params ~rotations:[ 3 ] () in
  let inputs = [ ("x", Array.init 64 (fun i -> 0.01 *. float_of_int i)) ] in
  let acc = Accuracy.measure eval ~waterline_bits:20. c.Driver.prog ~inputs ~valid_slots:64 in
  check Alcotest.bool "accurate" true (acc.Accuracy.rmse < 1e-2)

let test_context_degree_check () =
  let types = [| Hecate_ir.Types.Cipher { Hecate_ir.Types.scale = 20.; level = 0 } |] in
  let params = Hecate.Paramselect.select ~sf_bits:28 ~types ~slot_count:1024 () in
  match Interp.context ~exec_n:512 ~params ~rotations:[] () with
  | _ -> Alcotest.fail "expected degree rejection"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Profiling                                                            *)
(* ------------------------------------------------------------------ *)

let test_profile_shape () =
  let model = Profile.cached_model ~reps:2 ~n:512 ~levels:2 ~q0_bits:30 ~sf_bits:28 () in
  (* measured model must preserve the level-speedup shape *)
  let l0 = model.Costmodel.cost Costmodel.Cipher_mul ~num_primes:3 ~n:512 in
  let l2 = model.Costmodel.cost Costmodel.Cipher_mul ~num_primes:1 ~n:512 in
  check Alcotest.bool "positive" true (l0 > 0. && l2 > 0.);
  check Alcotest.bool "fewer primes faster" true (l2 < l0)

let test_profile_cache_reused () =
  let m1 = Profile.cached_model ~reps:2 ~n:512 ~levels:2 ~q0_bits:30 ~sf_bits:28 () in
  let m2 = Profile.cached_model ~reps:2 ~n:512 ~levels:2 ~q0_bits:30 ~sf_bits:28 () in
  check Alcotest.bool "same model object" true (m1 == m2)

let test_profile_cache_two_domains () =
  (* a shape no other test asks for, so the two domains race to fill it *)
  let ask () = Profile.cached_model ~reps:1 ~n:256 ~levels:1 ~q0_bits:30 ~sf_bits:28 () in
  let d1 = Domain.spawn ask and d2 = Domain.spawn ask in
  let m1 = Domain.join d1 and m2 = Domain.join d2 in
  check Alcotest.bool "same model object" true (m1 == m2)

(* ------------------------------------------------------------------ *)
(* Harness                                                              *)
(* ------------------------------------------------------------------ *)

let test_harness_waterlines () =
  check Alcotest.int "36 waterlines" 36 (List.length Harness.default_waterlines);
  check (Alcotest.float 1e-9) "low end" 10. (List.hd Harness.default_waterlines);
  check (Alcotest.float 1e-9) "high end" 27.5
    (List.nth Harness.default_waterlines 35)

let test_harness_estimate_ranking () =
  let bench = Apps.sobel ~size:8 () in
  let ranked = Harness.estimate_only ~waterlines:[ 18.; 20.; 22. ] ~scheme:Driver.Eva bench in
  check Alcotest.bool "candidates compiled" true (List.length ranked >= 2);
  let costs = List.map (fun (_, c) -> c.Driver.estimated_seconds) ranked in
  check Alcotest.bool "sorted ascending" true (List.sort compare costs = costs)

let test_harness_search_finds_feasible () =
  let bench = Apps.sobel ~size:8 () in
  match Harness.search ~waterlines:[ 16.; 20.; 24. ] ~scheme:Driver.Hecate bench with
  | None -> Alcotest.fail "expected a feasible configuration"
  | Some s ->
      check Alcotest.bool "meets bound" true (s.Harness.rmse <= 0x1p-8);
      check Alcotest.bool "timed" true (s.Harness.actual_seconds > 0.)

let test_harness_impossible_bound () =
  let bench = Apps.sobel ~size:8 () in
  match Harness.search ~waterlines:[ 16. ] ~error_bound:1e-300 ~scheme:Driver.Eva bench with
  | None -> ()
  | Some _ -> Alcotest.fail "expected infeasibility"

(* ------------------------------------------------------------------ *)
(* Estimator-vs-actual sanity (the Fig. 8 property, one data point)     *)
(* ------------------------------------------------------------------ *)

let test_estimator_tracks_actual () =
  (* size 16 -> millisecond-scale execution, where wall-clock noise does not
     swamp the comparison *)
  let bench = Apps.sobel ~size:16 () in
  match Harness.search ~waterlines:[ 20.; 22. ] ~scheme:Driver.Eva bench with
  | None -> Alcotest.fail "expected feasible config"
  | Some s ->
      (* The profile's probes and the selected configuration's runs are
         timed in the same rounds, so a slow spell of a loaded host lands
         on both sides; the estimate is priced from those probes. *)
      let c = s.Harness.compiled in
      let eval =
        Harness.cached_context ~params:c.Driver.params
          ~rotations:(Interp.required_rotations c.Driver.prog)
      in
      let probes = Profile.probes (Hecate_ckks.Eval.params eval) in
      let run =
        Harness.execution eval ~waterline_bits:s.Harness.waterline_bits c.Driver.prog
          ~inputs:bench.Apps.inputs
      in
      let timing =
        Stats.interleave ~min_sample_s:1e-4 ~rounds:11
          (Array.append (Array.map (fun p -> Stats.calls p.Profile.call) probes) [| run |])
      in
      let model =
        Costmodel.of_table (Profile.table probes timing) ~fallback:(Costmodel.analytic ())
      in
      let estimate = Driver.estimate_at ~model c ~n:s.Harness.exec_n in
      let actual = timing.Stats.median.(Array.length probes) in
      let rel = Stats.relative_error ~actual ~estimate in
      check Alcotest.bool
        (Printf.sprintf "estimate %.3f ms, actual %.3f ms: relative error %.1f%% within 50%%"
           (estimate *. 1e3) (actual *. 1e3) (100. *. rel))
        true (rel < 0.5)

(* ------------------------------------------------------------------ *)
(* Schedule lowering (the SEAL dialect)                                *)
(* ------------------------------------------------------------------ *)

module Schedule = Hecate_backend.Schedule
module Fusion = Hecate_ir.Fusion
module Liveness = Hecate_ir.Liveness

let test_schedule_lowering_shape () =
  let c = Driver.compile Driver.Hecate ~sf_bits:28 ~waterline_bits:20. (fig2 ()) in
  let s = Schedule.lower c.Driver.prog in
  (* one instruction per op, except constants (immediates), multiplies that
     run fused at their Rescale and fan members computed at the fan's head;
     plus one per output *)
  let roles = Fusion.analyze c.Driver.prog in
  let expected = ref (List.length c.Driver.prog.Prog.outputs) in
  Prog.iter
    (fun (o : Prog.op) ->
      match (o.Prog.kind, roles.(o.Prog.id)) with
      | Prog.Const _, _ | _, (Fusion.Fused_mul | Fusion.Fan_member) -> ()
      | _ -> incr expected)
    c.Driver.prog;
  check Alcotest.int "instruction count" !expected (Array.length s.Schedule.instructions);
  check Alcotest.bool "buffers fewer than ops" true
    (s.Schedule.cipher_buffers < Prog.num_ops c.Driver.prog);
  check Alcotest.int "one output" 1 s.Schedule.output_count;
  (* the listing mentions the downscale lowering *)
  let text = Format.asprintf "%a" Schedule.pp s in
  check Alcotest.bool "downscale listed" true
    (Astring.String.is_infix ~affix:"downscale" text)

(* Decrypted outputs agree with the plaintext reference on the declared
   slots (execution may use a wider register). *)
let check_reference p ~inputs outputs =
  List.iter2
    (fun got want ->
      let got = Array.sub got 0 (Array.length want) in
      check Alcotest.bool
        (Printf.sprintf "matches reference (max err %.2e)" (Stats.max_abs_diff got want))
        true
        (Stats.max_abs_diff got want < 1e-2))
    outputs (Reference.execute p ~inputs)

let test_schedule_matches_reference () =
  List.iter
    (fun scheme ->
      let c = Driver.compile scheme ~sf_bits:28 ~waterline_bits:20. (fig2 ()) in
      let eval =
        Interp.context ~params:c.Driver.params
          ~rotations:(Interp.required_rotations c.Driver.prog) ()
      in
      let r = Schedule.run eval ~waterline_bits:20. (Schedule.lower c.Driver.prog) ~inputs:fig2_inputs in
      check_reference (fig2 ()) ~inputs:fig2_inputs r.Schedule.outputs)
    Driver.all_schemes

(* A hand-written scale-managed program at sf = waterline = 2^25 (one
   rescale returns a product to the waterline), typed, lowered and run. *)
let run_managed ?exec_n text ~inputs =
  let p = Hecate_ir.Parser.parse text in
  Hecate_ir.Typing.check_exn (Hecate_ir.Typing.config ~sf:25. ~waterline:25. ()) p;
  let types = Array.map (fun (o : Prog.op) -> o.Prog.ty) p.Prog.body in
  let params = Hecate.Paramselect.select ~sf_bits:25 ~types ~slot_count:p.Prog.slot_count () in
  let eval = Interp.context ?exec_n ~params ~rotations:(Interp.required_rotations p) () in
  let s = Schedule.lower p in
  (p, s, Schedule.run eval ~waterline_bits:25. s ~inputs)

let ramp name n = (name, Array.init n (fun i -> 0.05 *. float_of_int (i + 1)))

let test_schedule_fan_gap () =
  (* %2 and %3 run between the fan's members; by IR liveness %3 takes the
     buffer %4 will get, but the fan writes %4 at its head (%1) *)
  let text =
    {|
func fan_gap(%0: cipher "x") slots=16 {
  %1 = rotate %0, 1
  %2 = add %0, %1
  %3 = add %2, %0
  %4 = rotate %0, 2
  %5 = add %3, %4
  return %5
}
|}
  in
  let inputs = [ ramp "x" 16 ] in
  let p, s, r = run_managed text ~inputs in
  let ir = Liveness.analyze p in
  check Alcotest.bool "an op between the members takes a member's IR buffer" true
    (ir.Liveness.buffer_of.(2) = ir.Liveness.buffer_of.(4));
  check Alcotest.bool "lowered to a fan" true
    (Array.exists (function Hecate.Select.Rotate_fan _ -> true | _ -> false) s.Schedule.instructions);
  check_reference p ~inputs r.Schedule.outputs

let test_schedule_fused_operand_gap () =
  (* %2 dies at the fused multiply %3; by IR liveness %4 reuses its buffer
     before the Rescale %5, where the fused multiply reads %2 *)
  let text =
    {|
func fused_gap(%0: cipher "x", %1: cipher "y") slots=16 {
  %2 = add %0, %1
  %3 = mul %2, %2
  %4 = add %0, %0
  %5 = rescale %3
  %6 = modswitch %4
  %7 = add %5, %6
  return %7
}
|}
  in
  let inputs = [ ramp "x" 16; ("y", Array.init 16 (fun i -> 0.03 *. float_of_int (16 - i))) ] in
  let p, s, r = run_managed text ~inputs in
  let ir = Liveness.analyze p in
  check Alcotest.bool "an op before the Rescale takes the operand's IR buffer" true
    (ir.Liveness.buffer_of.(2) = ir.Liveness.buffer_of.(4));
  check Alcotest.bool "lowered to a fused multiply" true
    (Array.exists (function Hecate.Select.Mul_rescale _ -> true | _ -> false) s.Schedule.instructions);
  check_reference p ~inputs r.Schedule.outputs

let test_schedule_replicates_inputs () =
  (* a 4-slot rotate at n = 16: the 8-slot register must hold two copies of
     the vector, or the rotation wraps a zero into slot 3 *)
  let text =
    {|
func wrap(%0: cipher "x") slots=4 {
  %1 = rotate %0, 1
  %2 = add %0, %1
  return %2
}
|}
  in
  let inputs = [ ("x", [| 0.1; 0.2; 0.3; 0.4 |]) ] in
  let p, _, r = run_managed ~exec_n:16 text ~inputs in
  check_reference p ~inputs r.Schedule.outputs

let test_schedule_reports_what_ran () =
  (* one fan of two distinct amounts (%6 repeats %1 and reads the fan's
     result) and one fused multiply *)
  let text =
    {|
func fused_fan(%0: cipher "x") slots=16 {
  %1 = rotate %0, 1
  %2 = rotate %0, 2
  %3 = add %1, %2
  %4 = mul %3, %3
  %5 = rescale %4
  %6 = rotate %0, 1
  %7 = modswitch %6
  %8 = add %5, %7
  return %8
}
|}
  in
  let inputs = [ ramp "x" 16 ] in
  let p, _, r = run_managed text ~inputs in
  check_reference p ~inputs r.Schedule.outputs;
  let count cls =
    match List.assoc_opt cls r.Schedule.per_class with
    | Some st -> st.Schedule.count
    | None -> 0
  in
  check Alcotest.int "fused multiply" 1 (count Costmodel.Mul_rescale);
  check Alcotest.int "no separate multiply" 0 (count Costmodel.Cipher_mul);
  check Alcotest.int "no separate rescale" 0 (count Costmodel.Rescale);
  (* the fan computes 1 and 2: one rotation, and one hoisted rotation for
     the further amount; %6's repeat of 1 runs nothing *)
  check Alcotest.int "the fan's first rotation" 1 (count Costmodel.Rotate);
  check Alcotest.int "one hoisted count per further amount" 1 (count Costmodel.Rotate_hoisted);
  let total = List.fold_left (fun a (_, st) -> a +. st.Schedule.seconds) 0. r.Schedule.per_class in
  check (Alcotest.float 1e-9) "classes sum to the elapsed time" r.Schedule.elapsed_seconds total

(* The estimate prices the instructions that run: the matrix of (class,
   level) runs the estimator counts for a compiled program is the one the
   executor counts from the instructions it ran, for every scheme, and
   under a unit model (cost 1 for one class, 0 for the others) the
   estimate is the executed report's count of that class. *)
let check_counts_match ?passes label ~waterline_bits ~inputs prog =
  List.iter
    (fun scheme ->
      let c = Driver.compile ?passes scheme ~sf_bits:28 ~waterline_bits prog in
      let eval =
        Interp.context ~params:c.Driver.params
          ~rotations:(Interp.required_rotations c.Driver.prog) ()
      in
      let r = Interp.execute eval ~waterline_bits c.Driver.prog ~inputs in
      let where = Printf.sprintf "%s, %s" label (Driver.scheme_name scheme) in
      check Alcotest.string (where ^ ": count matrix")
        (Hecate.Estimator.to_string r.Interp.counts)
        (Hecate.Estimator.to_string (Hecate.Estimator.counts ~params:c.Driver.params c.Driver.prog));
      check Alcotest.bool (where ^ ": count matrices equal") true
        (Hecate.Estimator.equal r.Interp.counts
           (Hecate.Estimator.counts ~params:c.Driver.params c.Driver.prog));
      List.iter
        (fun cls ->
          let unit_model =
            { Costmodel.cost = (fun c ~num_primes:_ ~n:_ -> if c = cls then 1. else 0.) }
          in
          let ran =
            match List.assoc_opt cls r.Interp.per_class with Some st -> st.Interp.count | None -> 0
          in
          check (Alcotest.float 0.)
            (Printf.sprintf "%s: %s" where (Costmodel.class_name cls))
            (float_of_int ran)
            (Driver.estimate_at ~model:unit_model c ~n:c.Driver.params.Hecate.Paramselect.secure_n))
        Costmodel.classes)
    Driver.all_schemes

let reduced_apps =
  [ ("SF", 24.); ("HCD", 22.); ("MLP", 15.); ("LeNet-r", 18.); ("LR E2", 20.); ("PR E2", 25.) ]

let test_estimate_counts_what_runs () =
  check_counts_match "fig2" ~waterline_bits:20. ~inputs:fig2_inputs (fig2 ());
  List.iter
    (fun (name, waterline_bits) ->
      let a = List.find (fun (a : Apps.t) -> a.Apps.name = name) (Apps.reduced_suite ()) in
      check_counts_match name ~waterline_bits ~inputs:a.Apps.inputs a.Apps.prog)
    reduced_apps;
  List.iter
    (fun (app : Batch_apps.t) ->
      match Lower.lower ~spec:Lower.Auto app.Batch_apps.surface with
      | Error d -> Alcotest.fail (Hecate_ir.Diagnostic.to_string d)
      | Ok l ->
          let inputs =
            List.map (fun (n, d) -> (n, Lower.pack_input l n d)) app.Batch_apps.inputs
          in
          check_counts_match app.Batch_apps.name
            ~passes:(Hecate_ir.Pass_manager.parse_exn Lower.pipeline)
            ~waterline_bits:20. ~inputs l.Lower.prog)
    (Batch_apps.suite ())

let test_schedule_buffer_reuse () =
  (* a long multiply chain must run in a handful of buffers *)
  let b = B.create ~name:"chain" ~slot_count:64 () in
  let x = B.input b "x" in
  let rec chain v i = if i = 0 then v else chain (B.mul b v v) (i - 1) in
  B.output b (chain x 6);
  let c = Driver.compile Driver.Eva ~sf_bits:28 ~waterline_bits:20. (B.finish b) in
  let s = Schedule.lower c.Driver.prog in
  check Alcotest.bool "constant-size pool" true (s.Schedule.cipher_buffers <= 4)

(* Plaintext slots are planned like ciphertext buffers: MLP's plaintext
   multiplies each read an immediate once, so a handful of slots serve
   every one of them. *)
let test_schedule_plaintext_pool () =
  let app = List.find (fun (a : Apps.t) -> a.Apps.name = "MLP") (Apps.reduced_suite ()) in
  let c = Driver.compile Driver.Hecate ~sf_bits:28 ~waterline_bits:15. app.Apps.prog in
  let selected = (Hecate.Select.select c.Driver.prog).Hecate.Select.plaintexts in
  let s = Schedule.lower c.Driver.prog in
  check Alcotest.bool
    (Printf.sprintf "%d slots for %d plaintexts" s.Schedule.plain_slots selected)
    true
    (selected > 10 && s.Schedule.plain_slots <= 2)

(* One evaluator, two domains executing at once: each run owns its
   registers and scratch, and each encrypts from its own stream
   ([Eval.restart_encryption]), so both decrypt to the bits of the
   sequential runs. HCD runs key switching and rotation fans. *)
let test_schedule_shared_evaluator () =
  let app = List.find (fun (a : Apps.t) -> a.Apps.name = "HCD") (Apps.reduced_suite ()) in
  let c = Driver.compile Driver.Hecate ~sf_bits:28 ~waterline_bits:22. app.Apps.prog in
  let rotations = Interp.required_rotations c.Driver.prog in
  let eval = Interp.context ~params:c.Driver.params ~rotations () in
  let run () =
    (Interp.execute (Hecate_ckks.Eval.restart_encryption eval) ~waterline_bits:22. c.Driver.prog
       ~inputs:app.Apps.inputs)
      .Interp.outputs
  in
  let bits outputs = List.map (Array.map Int64.bits_of_float) outputs in
  let sequential = bits (run ()) in
  check Alcotest.bool "sequential runs agree" true (bits (run ()) = sequential);
  for _ = 1 to 3 do
    let other = Domain.spawn (fun () -> bits (run ())) in
    let here = bits (run ()) in
    check Alcotest.bool "this domain" true (here = sequential);
    check Alcotest.bool "the other domain" true (Domain.join other = sequential)
  done

(* ------------------------------------------------------------------ *)
(* Noise model                                                         *)
(* ------------------------------------------------------------------ *)

module Noisemodel = Hecate.Noisemodel

let test_noise_model_predicts_measurement () =
  (* predicted output error within a moderate factor of the measured RMSE
     on the running example under EVA (no downscales: the model's
     worst-case multiplier-rounding term does not apply, so the comparison
     is tight) *)
  let c = Driver.compile Driver.Eva ~sf_bits:28 ~waterline_bits:20. (fig2 ()) in
  let acc = run_scheme Driver.Eva in
  let ncfg = Noisemodel.default_config ~n:128 in
  let predicted = (Noisemodel.analyze ncfg c.Driver.prog).Noisemodel.predicted_rmse in
  let ratio = predicted /. acc.Accuracy.rmse in
  check Alcotest.bool
    (Printf.sprintf "prediction within 30x (ratio %.2f)" ratio)
    true
    (ratio > 1. /. 30. && ratio < 30.)

let test_noise_model_waterline_monotone () =
  (* over the noise-dominated range, higher waterline -> lower predicted
     error for the same program shape *)
  let pred wl =
    let c = Driver.compile Driver.Eva ~sf_bits:28 ~waterline_bits:wl (fig2 ()) in
    (Noisemodel.analyze (Noisemodel.default_config ~n:1024) c.Driver.prog)
      .Noisemodel.predicted_rmse
  in
  check Alcotest.bool "16 < 12" true (pred 16. < pred 12.);
  check Alcotest.bool "20 < 16" true (pred 20. < pred 16.)

(* ------------------------------------------------------------------ *)
(* Ablation flags                                                      *)
(* ------------------------------------------------------------------ *)

let test_ablate_downscale_analysis () =
  (* the trigger program from test_core: step (e) disabled must produce no
     pre-multiplication downscale *)
  let b = B.create ~slot_count:8 () in
  let x = B.input b "x" and y = B.input b "y" in
  let xy = B.mul b x y in
  B.output b (B.mul b xy xy);
  let prog = B.finish b in
  let count_downscales (c : Driver.compiled) =
    Array.fold_left
      (fun n (o : Prog.op) -> match o.Prog.kind with Prog.Downscale _ -> n + 1 | _ -> n)
      0 c.Driver.prog.Prog.body
  in
  let with_e = Driver.compile Driver.Pars ~sf_bits:28 ~waterline_bits:20. prog in
  let without_e =
    Driver.compile ~downscale_analysis:false Driver.Pars ~sf_bits:28 ~waterline_bits:20. prog
  in
  check Alcotest.bool "step (e) downscales" true (count_downscales with_e > 0);
  check Alcotest.int "ablated: none" 0 (count_downscales without_e)

let test_ablate_smu_phases () =
  let prog = (Hecate_apps.Apps.sobel ~size:8 ()).Hecate_apps.Apps.prog in
  let units n = Hecate.Smu.unit_count (Hecate.Smu.generate ~phases:n prog) in
  check Alcotest.bool "phase 2 refines phase 1" true (units 2 >= units 1);
  check Alcotest.bool "phase 3 refines phase 2" true (units 3 >= units 2)

let test_ablate_early_modswitch () =
  let p =
    Hecate_ir.Parser.parse
      {|
func f(%0: cipher "x", %1: cipher "y") slots=4 {
  %2 = mul %0, %1
  %3 = modswitch %2
  %4 = mul %3, %3
  return %4
}
|}
  in
  let cfg = Hecate_ir.Typing.config ~sf:28. ~waterline:20. () in
  ignore (Hecate_ir.Typing.check_exn cfg p);
  let hoisted, _ = Driver.finalize ~cfg p in
  let kept, _ = Driver.finalize ~early_modswitch:false ~cfg p in
  let first_consumer_kind (q : Prog.t) =
    Prog.kind_name (Prog.op q 2).Prog.kind
  in
  check Alcotest.string "hoisted" "modswitch" (first_consumer_kind hoisted);
  check Alcotest.string "kept in place" "mul" (first_consumer_kind kept)

(* ------------------------------------------------------------------ *)
(* Property: compilation preserves plaintext semantics                 *)
(* ------------------------------------------------------------------ *)

(* Random DAG programs over two inputs: the reference semantics of the
   compiled program (where scale management is transparent) must equal the
   reference semantics of the source, for every scheme. *)
let random_program seed =
  let g = Prng.create ~seed in
  let b = B.create ~name:"rand" ~slot_count:16 () in
  let x = B.input b "x" and y = B.input b "y" in
  let pool = ref [ (x, 0); (y, 0) ] in
  (* track multiplicative budget so chains stay shallow *)
  let pick () = List.nth !pool (Prng.int_below g (List.length !pool)) in
  let n_ops = 3 + Prng.int_below g 12 in
  for _ = 1 to n_ops do
    let v, depth = pick () in
    let w, depth' = pick () in
    let node =
      match Prng.int_below g 6 with
      | 0 -> (B.add b v w, max depth depth')
      | 1 -> (B.sub b v w, max depth depth')
      | 2 when depth + depth' <= 3 -> (B.mul b v w, depth + depth' + 1)
      | 2 -> (B.add b v w, max depth depth')
      | 3 -> (B.negate b v, depth)
      | 4 -> (B.rotate b v (1 + Prng.int_below g 15), depth)
      | _ -> (B.mul b v (B.const_scalar b (0.25 +. Prng.float01 g)), depth)
    in
    pool := node :: !pool
  done;
  let out, _ = List.hd !pool in
  B.output b out;
  B.finish b

let prop_compile_preserves_semantics =
  QCheck.Test.make ~name:"compilation preserves plaintext semantics" ~count:40
    QCheck.(int_bound 10000)
    (fun seed ->
      let prog = random_program seed in
      let inputs =
        let g = Prng.create ~seed:(seed + 1) in
        [
          ("x", Array.init 16 (fun _ -> Prng.float01 g -. 0.5));
          ("y", Array.init 16 (fun _ -> Prng.float01 g -. 0.5));
        ]
      in
      let expected = Reference.execute prog ~inputs in
      List.for_all
        (fun scheme ->
          let c = Driver.compile scheme ~sf_bits:28 ~waterline_bits:20. prog in
          let got = Reference.execute c.Driver.prog ~inputs in
          List.for_all2 (fun a b -> Stats.max_abs_diff a b < 1e-9) expected got)
        Driver.all_schemes)

let prop_compiled_random_runs_on_ckks =
  (* a smaller sample actually executes under encryption *)
  QCheck.Test.make ~name:"random programs execute accurately on CKKS" ~count:5
    QCheck.(int_bound 1000)
    (fun seed ->
      let prog = random_program seed in
      let inputs =
        let g = Prng.create ~seed:(seed + 1) in
        [
          ("x", Array.init 16 (fun _ -> Prng.float01 g -. 0.5));
          ("y", Array.init 16 (fun _ -> Prng.float01 g -. 0.5));
        ]
      in
      let c = Driver.compile Driver.Hecate ~sf_bits:28 ~waterline_bits:24. prog in
      let eval =
        Interp.context ~params:c.Driver.params
          ~rotations:(Interp.required_rotations c.Driver.prog) ()
      in
      let acc =
        Accuracy.measure eval ~waterline_bits:24. c.Driver.prog ~inputs ~valid_slots:16
      in
      acc.Accuracy.rmse < 1e-2)

let prop_print_parse_roundtrip =
  (* textual IR round-trips for arbitrary compiled programs, including every
     scale-management op and hex-float attributes *)
  QCheck.Test.make ~name:"print/parse roundtrip on compiled programs" ~count:25
    QCheck.(int_bound 10000)
    (fun seed ->
      let prog = random_program seed in
      let c = Driver.compile Driver.Hecate ~sf_bits:28 ~waterline_bits:20. prog in
      let text = Hecate_ir.Printer.to_string c.Driver.prog in
      let parsed = Hecate_ir.Parser.parse text in
      let cfg = Hecate_ir.Typing.config ~sf:28. ~waterline:20. () in
      ignore (Hecate_ir.Typing.check_exn cfg parsed);
      Prog.num_ops parsed = Prog.num_ops c.Driver.prog
      && Hecate_ir.Printer.to_string parsed = text)

(* Peak liveness of a buffer-addressed stream, read off the stream itself:
   each write starts a value that lives until the last read of its buffer
   before the buffer's next write. *)
let stream_peak (s : Schedule.t) =
  let n = Array.length s.Schedule.instructions in
  let opened = Hashtbl.create 8 and delta = Array.make (n + 1) 0 in
  let close b =
    match Hashtbl.find_opt opened b with
    | Some (start, last) ->
        delta.(start) <- delta.(start) + 1;
        delta.(last + 1) <- delta.(last + 1) - 1
    | None -> ()
  in
  Array.iteri
    (fun i instr ->
      let reads, writes = Schedule.regs instr in
      List.iter
        (fun b -> Option.iter (fun (start, _) -> Hashtbl.replace opened b (start, i)) (Hashtbl.find_opt opened b))
        reads;
      List.iter
        (fun b ->
          close b;
          Hashtbl.replace opened b (i, i))
        writes)
    s.Schedule.instructions;
  Hashtbl.iter (fun b _ -> close b) (Hashtbl.copy opened);
  let live = ref 0 and peak = ref 0 in
  Array.iter
    (fun d ->
      live := !live + d;
      peak := max !peak !live)
    delta;
  !peak

let prop_schedule_buffers_bounded =
  QCheck.Test.make ~name:"schedule buffer pool bounded by peak liveness" ~count:25
    QCheck.(int_bound 10000)
    (fun seed ->
      let prog = random_program seed in
      let c = Driver.compile Driver.Eva ~sf_bits:28 ~waterline_bits:20. prog in
      let s = Schedule.lower c.Driver.prog in
      s.Schedule.cipher_buffers <= max 1 (stream_peak s))

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "hecate_backend"
    [
      ( "reference",
        [
          Alcotest.test_case "fig2 semantics" `Quick test_reference_fig2;
          Alcotest.test_case "opaque ops transparent" `Quick test_reference_opaque_ops_transparent;
          Alcotest.test_case "missing input" `Quick test_reference_missing_input;
        ] );
      ( "interp",
        [
          Alcotest.test_case "all schemes accurate" `Quick test_execute_all_schemes_accurate;
          Alcotest.test_case "class stats" `Quick test_execute_reports_classes;
          Alcotest.test_case "rotations" `Quick test_rotation_program_executes;
          Alcotest.test_case "degree check" `Quick test_context_degree_check;
        ] );
      ( "profile",
        [
          Alcotest.test_case "shape" `Quick test_profile_shape;
          Alcotest.test_case "cache" `Quick test_profile_cache_reused;
          Alcotest.test_case "cache, two domains" `Quick test_profile_cache_two_domains;
        ] );
      ( "harness",
        [
          Alcotest.test_case "waterline grid" `Quick test_harness_waterlines;
          Alcotest.test_case "estimate ranking" `Quick test_harness_estimate_ranking;
          Alcotest.test_case "search feasible" `Quick test_harness_search_finds_feasible;
          Alcotest.test_case "impossible bound" `Quick test_harness_impossible_bound;
          Alcotest.test_case "estimator tracks actual" `Slow test_estimator_tracks_actual;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "lowering shape" `Quick test_schedule_lowering_shape;
          Alcotest.test_case "matches reference" `Quick test_schedule_matches_reference;
          Alcotest.test_case "buffer reuse" `Quick test_schedule_buffer_reuse;
          Alcotest.test_case "fan gap" `Quick test_schedule_fan_gap;
          Alcotest.test_case "fused operand gap" `Quick test_schedule_fused_operand_gap;
          Alcotest.test_case "replicates inputs" `Quick test_schedule_replicates_inputs;
          Alcotest.test_case "reports what ran" `Quick test_schedule_reports_what_ran;
          Alcotest.test_case "estimate counts what runs" `Quick test_estimate_counts_what_runs;
          Alcotest.test_case "plaintext pool" `Quick test_schedule_plaintext_pool;
          Alcotest.test_case "shared evaluator, two domains" `Quick test_schedule_shared_evaluator;
        ] );
      ( "noise",
        [
          Alcotest.test_case "predicts measurement" `Quick test_noise_model_predicts_measurement;
          Alcotest.test_case "waterline monotone" `Quick test_noise_model_waterline_monotone;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "downscale analysis" `Quick test_ablate_downscale_analysis;
          Alcotest.test_case "smu phases" `Quick test_ablate_smu_phases;
          Alcotest.test_case "early modswitch" `Quick test_ablate_early_modswitch;
        ] );
      ( "properties",
        [
          qtest prop_compile_preserves_semantics;
          qtest prop_compiled_random_runs_on_ckks;
          qtest prop_print_parse_roundtrip;
          qtest prop_schedule_buffers_bounded;
        ] );
    ]
