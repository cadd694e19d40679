(* Tests for the SIMD batching frontend (lib/batch): scalar surface IR
   semantics, layout assignment, rotation-network lowering against the
   exact scalar reference, golden pins for the packed workloads under
   every scheme, and plan-cache addressing of batched programs. *)

module Surface = Hecate_batch.Surface
module Batch_dsl = Hecate_batch.Batch_dsl
module Layout = Hecate_batch.Layout
module Lower = Hecate_batch.Lower
module Batch_apps = Hecate_apps.Batch_apps
module Prog = Hecate_ir.Prog
module Printer = Hecate_ir.Printer
module Pass_manager = Hecate_ir.Pass_manager
module Diagnostic = Hecate_ir.Diagnostic
module Typing = Hecate_ir.Typing
module Driver = Hecate.Driver
module Plancache = Hecate.Plancache
module Reference = Hecate_backend.Reference
module Interp = Hecate_backend.Interp
module Prng = Hecate_support.Prng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let close = Alcotest.float 1e-9

let lower_exn ?slot_count spec surface =
  match Lower.lower ?slot_count ~spec surface with
  | Ok l -> l
  | Error d -> Alcotest.failf "lowering failed: %s" (Diagnostic.to_string d)

let cleanup prog = Pass_manager.run (Pass_manager.parse_exn Lower.pipeline) prog

(* Lower under [spec], clean with the batching pipeline, execute the vector
   program on the plaintext reference backend with packed inputs, decode the
   outputs, and return the RMSE against exact scalar execution. *)
let lowering_rmse ?slot_count spec surface inputs =
  let l = lower_exn ?slot_count spec surface in
  let packed = List.map (fun (n, d) -> (n, Lower.pack_input l n d)) inputs in
  let outs = Reference.execute (cleanup l.Lower.prog) ~inputs:packed in
  let refs = Surface.execute surface ~inputs in
  let err2 = ref 0. and count = ref 0 in
  List.iter2
    (fun (name, expect) packed_out ->
      let got = Lower.decode_output l name packed_out in
      check Alcotest.int (name ^ " length") (Array.length expect) (Array.length got);
      Array.iteri
        (fun i x ->
          let e = got.(i) -. x in
          err2 := !err2 +. (e *. e);
          incr count)
        expect)
    refs outs;
  sqrt (!err2 /. float_of_int (max 1 !count))

let all_specs =
  [ Lower.Naive; Lower.Fixed Layout.Row; Lower.Fixed Layout.Col; Lower.Fixed Layout.Diag;
    Lower.Auto ]

(* ------------------------------------------------------------------ *)
(* Surface IR: semantics, printing, parsing, validation                 *)
(* ------------------------------------------------------------------ *)

let test_surface_execute_semantics () =
  (* stores overwrite, accumulates add, lets bind, unwritten elements are 0 *)
  let b = Batch_dsl.create ~name:"sem" () in
  let x = Batch_dsl.input b "x" [ 4 ] in
  let y = Batch_dsl.output_array b "y" [ 4 ] in
  Batch_dsl.(
    for_ b "i" ~lo:0 ~hi:2 (fun i ->
        let t = let_ b "t" (add (load x [ i ]) (lit 1.)) in
        store b y [ i ] (mul t (lit 2.));
        accum b y [ i ] (neg (load x [ i ]))));
  let s = Batch_dsl.finish b in
  let out = Surface.execute s ~inputs:[ ("x", [| 1.; 2.; 3.; 4. |]) ] in
  let y_out = List.assoc "y" out in
  (* y[i] = 2(x[i]+1) - x[i] = x[i] + 2 for i < 3; y[3] never written *)
  check close "y0" 3. y_out.(0);
  check close "y1" 4. y_out.(1);
  check close "y2" 5. y_out.(2);
  check close "y3 unwritten" 0. y_out.(3)

let test_surface_print_parse_roundtrip () =
  List.iter
    (fun (app : Batch_apps.t) ->
      let text = Surface.to_string app.Batch_apps.surface in
      let reparsed = Surface.parse text in
      check Alcotest.string (app.Batch_apps.name ^ " fixpoint") text
        (Surface.to_string reparsed);
      (* and the reparsed program computes the same outputs *)
      List.iter2
        (fun (n1, (a : float array)) (n2, b) ->
          check Alcotest.string "output name" n1 n2;
          Array.iteri (fun i x -> check close (n1 ^ " elem") x b.(i)) a)
        (Surface.execute app.Batch_apps.surface ~inputs:app.Batch_apps.inputs)
        (Surface.execute reparsed ~inputs:app.Batch_apps.inputs))
    (Batch_apps.suite ())

let expect_invalid name build =
  let b = Batch_dsl.create ~name () in
  match build b with
  | exception Diagnostic.Error d ->
      check
        (Alcotest.testable (Fmt.of_to_string Diagnostic.code_name) ( = ))
        (name ^ " code") Diagnostic.Precondition d.Diagnostic.code
  | _ -> Alcotest.failf "%s: expected a Precondition diagnostic" name

let test_surface_validation () =
  expect_invalid "unknown array" (fun b ->
      let _ = Batch_dsl.input b "x" [ 4 ] in
      let y = Batch_dsl.output_array b "y" [ 4 ] in
      Batch_dsl.(store b y [ c 0 ] (load "nope" [ c 0 ]));
      Batch_dsl.finish b);
  expect_invalid "rank mismatch" (fun b ->
      let x = Batch_dsl.input b "x" [ 2; 2 ] in
      let y = Batch_dsl.output_array b "y" [ 4 ] in
      Batch_dsl.(store b y [ c 0 ] (load x [ c 0 ]));
      Batch_dsl.finish b);
  expect_invalid "out of bounds" (fun b ->
      let x = Batch_dsl.input b "x" [ 4 ] in
      let y = Batch_dsl.output_array b "y" [ 4 ] in
      Batch_dsl.(
        for_ b "i" ~lo:0 ~hi:3 (fun i -> store b y [ i ] (load x [ i +$ c 1 ])));
      Batch_dsl.finish b);
  expect_invalid "unbound loop variable" (fun b ->
      let x = Batch_dsl.input b "x" [ 4 ] in
      let y = Batch_dsl.output_array b "y" [ 4 ] in
      Batch_dsl.(store b y [ i "k" ] (load x [ c 0 ]));
      Batch_dsl.finish b)

let test_surface_parse_error_line () =
  (* parsing is syntax-only; the undeclared store target is caught by the
     separate validation stage, with a Precondition diagnostic *)
  let p = Surface.parse "batch p {\n  input x[4];\n  y[0] = x[0];\n}" in
  match Surface.validate p with
  | Ok () -> Alcotest.fail "expected validation to reject the undeclared store target"
  | Error d ->
      check
        (Alcotest.testable (Fmt.of_to_string Diagnostic.code_name) ( = ))
        "code" Diagnostic.Precondition d.Diagnostic.code

let test_surface_parse_rejects_garbage () =
  match Surface.parse "batch p {\n  input x[4;\n}" with
  | _ -> Alcotest.fail "expected a parse error"
  | exception Hecate_ir.Parser.Parse_error { line; _ } ->
      check Alcotest.int "error on the malformed line" 2 line

(* ------------------------------------------------------------------ *)
(* Layout math                                                          *)
(* ------------------------------------------------------------------ *)

let test_layout_slots () =
  check Alcotest.int "row" ((1 * 4) + 2) (Layout.slot Layout.Row ~dims:[ 3; 4 ] [ 1; 2 ]);
  (* column-major: slot = j * rows + i *)
  check Alcotest.int "col" ((2 * 3) + 1) (Layout.slot Layout.Col ~dims:[ 3; 4 ] [ 1; 2 ]);
  (* Halevi-Shoup diagonal: slot = ((j - i) mod cols) * rows + i *)
  check Alcotest.int "diag" ((((2 - 1) mod 4) * 3) + 1) (Layout.slot Layout.Diag ~dims:[ 3; 4 ] [ 1; 2 ]);
  check Alcotest.int "diag wraps" ((((0 - 2 + 4) mod 4) * 3) + 2)
    (Layout.slot Layout.Diag ~dims:[ 3; 4 ] [ 2; 0 ])

let test_layout_bijective () =
  (* every 2D layout is a permutation of the r*c slots *)
  List.iter
    (fun kind ->
      List.iter
        (fun (r, c) ->
          let seen = Hashtbl.create 16 in
          for i = 0 to r - 1 do
            for j = 0 to c - 1 do
              let s = Layout.slot kind ~dims:[ r; c ] [ i; j ] in
              check Alcotest.bool "slot in range" true (s >= 0 && s < r * c);
              if Hashtbl.mem seen s then
                Alcotest.failf "%s %dx%d: slot %d hit twice" (Layout.kind_to_string kind) r c s;
              Hashtbl.add seen s ()
            done
          done)
        [ (4, 4); (3, 5); (1, 7) ])
    [ Layout.Row; Layout.Col; Layout.Diag ]

(* ------------------------------------------------------------------ *)
(* Lowering correctness                                                 *)
(* ------------------------------------------------------------------ *)

let test_apps_all_layouts_match_reference () =
  List.iter
    (fun (app : Batch_apps.t) ->
      List.iter
        (fun spec ->
          let rmse = lowering_rmse spec app.Batch_apps.surface app.Batch_apps.inputs in
          check Alcotest.bool
            (Printf.sprintf "%s/%s rmse %.3e" app.Batch_apps.name (Lower.spec_to_string spec)
               rmse)
            true (rmse < 1e-9))
        all_specs)
    (Batch_apps.suite ())

let test_matvec_diag_beats_naive_rotations () =
  (* acceptance bar: the auto layout emits at least 2x fewer rotations than
     the one-slot naive lowering on matvec *)
  let app = Batch_apps.matvec () in
  let naive = lower_exn Lower.Naive app.Batch_apps.surface in
  let auto = lower_exn Lower.Auto app.Batch_apps.surface in
  check Alcotest.bool
    (Printf.sprintf "auto %d <= naive %d / 2" auto.Lower.rotations naive.Lower.rotations)
    true
    (2 * auto.Lower.rotations <= naive.Lower.rotations);
  (* and auto picked the diagonal layout for the matrix *)
  check Alcotest.bool "w packed diagonally" true
    (List.assoc_opt "w" auto.Lower.assignment = Some Layout.Diag)

let test_rotation_count_matches_ir () =
  (* the [rotations] statistic is the count of distinct rotate ops in the
     emitted program, which is what rotation-key provisioning pays for *)
  List.iter
    (fun (app : Batch_apps.t) ->
      let l = lower_exn Lower.Auto app.Batch_apps.surface in
      check Alcotest.int
        (app.Batch_apps.name ^ " rotation stat")
        (Lower.count_rotations l.Lower.prog)
        l.Lower.rotations)
    (Batch_apps.suite ())

let test_loop_carried_dependency_rejected () =
  (* a recurrence cannot be batched: every iteration reads the previous
     iteration's write of the same site *)
  let b = Batch_dsl.create ~name:"scan" () in
  let x = Batch_dsl.input b "x" [ 8 ] in
  let y = Batch_dsl.output_array b "y" [ 8 ] in
  Batch_dsl.(
    store b y [ c 0 ] (load x [ c 0 ]);
    for_ b "i" ~lo:1 ~hi:7 (fun i ->
        store b y [ i ] (add (load y [ i -$ c 1 ]) (load x [ i ]))));
  let s = Batch_dsl.finish b in
  (* the scalar semantics are fine... *)
  let out = Surface.execute s ~inputs:[ ("x", Array.make 8 1.) ] in
  check close "prefix sum" 8. (List.assoc "y" out).(7);
  (* ...but lowering must reject it with a diagnostic, not a wrong answer *)
  match Lower.lower ~spec:Lower.Auto s with
  | Ok _ -> Alcotest.fail "expected the loop-carried dependency to be rejected"
  | Error d ->
      check
        (Alcotest.testable (Fmt.of_to_string Diagnostic.code_name) ( = ))
        "code" Diagnostic.Precondition d.Diagnostic.code

let test_read_after_full_write_is_legal () =
  (* two statements: fill z, then consume it — legal because every write
     precedes every read both in time and in statement order *)
  let b = Batch_dsl.create ~name:"staged" () in
  let x = Batch_dsl.input b "x" [ 8 ] in
  let z = Batch_dsl.local b "z" [ 8 ] in
  let y = Batch_dsl.output_array b "y" [ 8 ] in
  Batch_dsl.(
    for_ b "i" ~lo:0 ~hi:7 (fun i -> store b z [ i ] (mul (load x [ i ]) (load x [ i ])));
    for_ b "i" ~lo:0 ~hi:7 (fun i -> store b y [ i ] (add (load z [ i ]) (lit 1.))));
  let s = Batch_dsl.finish b in
  let g = Prng.create ~seed:7 in
  let inputs = [ ("x", Array.init 8 (fun _ -> Prng.float01 g)) ] in
  let rmse = lowering_rmse Lower.Auto s inputs in
  check Alcotest.bool "staged rmse" true (rmse < 1e-12)

(* Random loop programs: four parametric shapes x five layout specs, all
   must agree with exact scalar execution after lowering and cleanup. *)
let prop_random_loops_match_reference =
  QCheck.Test.make ~name:"lowered vector IR = scalar reference" ~count:40
    QCheck.(quad (int_range 0 3) (int_range 1 5) (int_range 1 5) (int_range 0 4))
    (fun (template, p, q, spec_idx) ->
      let spec = List.nth all_specs spec_idx in
      let seed = 0x5EED + template + (31 * p) + (997 * q) + (7919 * spec_idx) in
      let g = Prng.create ~seed in
      let rand k = Array.init k (fun _ -> Prng.float01 g -. 0.5) in
      let surface, inputs =
        match template with
        | 0 ->
            let app = Batch_apps.matvec ~rows:p ~cols:q () in
            (app.Batch_apps.surface, app.Batch_apps.inputs)
        | 1 ->
            (* elementwise with a shifted read, staged through a local *)
            let n = p + q + 2 in
            let s = q mod n in
            let b = Batch_dsl.create ~name:"shift" () in
            let a = Batch_dsl.input b "a" [ n ] in
            let z = Batch_dsl.local b "z" [ n ] in
            let y = Batch_dsl.output_array b "y" [ n ] in
            Batch_dsl.(
              for_ b "i" ~lo:0 ~hi:(n - 1 - s) (fun i ->
                  store b z [ i ] (mul (load a [ i +$ c s ]) (load a [ i ])));
              for_ b "i" ~lo:0 ~hi:(n - 1) (fun i ->
                  store b y [ i ] (sub (load z [ i ]) (load a [ i ]))));
            (Batch_dsl.finish b, [ ("a", rand n) ])
        | 2 ->
            (* 1D convolution with plaintext taps *)
            let n = p + 4 in
            let k = 1 + (q mod 3) in
            let taps = Array.init k (fun d -> 0.25 +. (0.5 *. float_of_int d)) in
            let b = Batch_dsl.create ~name:"conv1d" () in
            let x = Batch_dsl.input b "x" [ n ] in
            let kk = Batch_dsl.plain b "k" [ k ] taps in
            let y = Batch_dsl.output_array b "y" [ n ] in
            Batch_dsl.(
              for_ b "i" ~lo:0 ~hi:(n - k) (fun i ->
                  for_ b "d" ~lo:0 ~hi:(k - 1) (fun d ->
                      accum b y [ i ] (mul (load kk [ d ]) (load x [ i +$ d ])))));
            (Batch_dsl.finish b, [ ("x", rand n) ])
        | _ ->
            let app = Batch_apps.group_by ~rows:(4 * p) ~groups:(1 + (q mod 3)) () in
            (app.Batch_apps.surface, app.Batch_apps.inputs)
      in
      let rmse = lowering_rmse spec surface inputs in
      if rmse >= 1e-9 then
        QCheck.Test.fail_reportf "template %d p=%d q=%d %s: rmse %.3e" template p q
          (Lower.spec_to_string spec) rmse;
      true)

(* ------------------------------------------------------------------ *)
(* Scale management over batched programs                               *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let golden_key (app : Batch_apps.t) =
  String.map (fun c -> if c = '-' then '_' else c)
    (Astring.String.with_range ~first:6 app.Batch_apps.name)

let compile_batched scheme (l : Lower.lowered) =
  Driver.compile ~passes:(Pass_manager.parse_exn Lower.pipeline) scheme ~sf_bits:28
    ~waterline_bits:20. l.Lower.prog

let test_golden_all_schemes () =
  (* byte-for-byte pins of the managed IR for every app x scheme: scale
     management over batched programs must stay deterministic *)
  List.iter
    (fun (app : Batch_apps.t) ->
      let l = lower_exn Lower.Auto app.Batch_apps.surface in
      List.iter
        (fun scheme ->
          let path =
            Printf.sprintf "golden/batch_%s_%s.ir" (golden_key app)
              (String.lowercase_ascii (Driver.scheme_name scheme))
          in
          let c = compile_batched scheme l in
          check Alcotest.string path (read_file path) (Printer.to_string c.Driver.prog))
        Driver.all_schemes)
    (Batch_apps.suite ())

let test_encrypted_end_to_end () =
  (* full path: lower, scale-manage under HECATE, encrypt packed inputs,
     execute on the CKKS backend, decode, compare to scalar reference *)
  List.iter
    (fun (app : Batch_apps.t) ->
      let l = lower_exn Lower.Auto app.Batch_apps.surface in
      let c = compile_batched Driver.Hecate l in
      let packed =
        List.map (fun (n, d) -> (n, Lower.pack_input l n d)) app.Batch_apps.inputs
      in
      let eval =
        Interp.context ~params:c.Driver.params
          ~rotations:(Interp.required_rotations c.Driver.prog) ()
      in
      let rep = Interp.execute eval ~waterline_bits:20. c.Driver.prog ~inputs:packed in
      let refs = Surface.execute app.Batch_apps.surface ~inputs:app.Batch_apps.inputs in
      let err2 = ref 0. and count = ref 0 in
      List.iter2
        (fun (name, expect) packed_out ->
          let got = Lower.decode_output l name packed_out in
          Array.iteri
            (fun i x ->
              let e = got.(i) -. x in
              err2 := !err2 +. (e *. e);
              incr count)
            expect)
        refs rep.Interp.outputs;
      let rmse = sqrt (!err2 /. float_of_int (max 1 !count)) in
      check Alcotest.bool
        (Printf.sprintf "%s encrypted rmse %.3e" app.Batch_apps.name rmse)
        true (rmse < 1e-2))
    (Batch_apps.suite ())

(* ------------------------------------------------------------------ *)
(* Fingerprints and the plan cache                                      *)
(* ------------------------------------------------------------------ *)

let test_fingerprint_stable_and_layout_sensitive () =
  let fp spec =
    Prog.fingerprint (lower_exn spec (Batch_apps.matvec ()).Batch_apps.surface).Lower.prog
  in
  (* rebuilding the same surface program lowers to the same fingerprint *)
  check Alcotest.string "stable across builds" (fp Lower.Auto) (fp Lower.Auto);
  (* a different rotation network is a different cache identity *)
  check Alcotest.bool "naive differs from auto" true (fp Lower.Naive <> fp Lower.Auto)

let test_plancache_addresses_batched_programs () =
  (* the daemon's content-addressed cache answers repeat compiles of a
     batched program warm, with a byte-identical artifact *)
  let cache = Plancache.create () in
  let l = lower_exn Lower.Auto (Batch_apps.matvec ()).Batch_apps.surface in
  let prog = cleanup l.Lower.prog in
  let compile () =
    Plancache.compile cache ~scheme:Driver.Hecate ~sf_bits:28 ~waterline_bits:20. prog
  in
  let cold, o1 = compile () in
  let warm, o2 = compile () in
  check Alcotest.string "cold is computed" "cold" (Plancache.origin_name o1);
  check Alcotest.string "warm is a memory hit" "memory" (Plancache.origin_name o2);
  check Alcotest.string "artifact byte-identical" cold.Plancache.artifact
    warm.Plancache.artifact;
  check Alcotest.string "keyed by the program fingerprint" (Prog.fingerprint prog)
    cold.Plancache.fingerprint

let () =
  Alcotest.run "hecate_batch"
    [
      ( "surface",
        [
          Alcotest.test_case "execute semantics" `Quick test_surface_execute_semantics;
          Alcotest.test_case "print/parse round trip" `Quick test_surface_print_parse_roundtrip;
          Alcotest.test_case "validation diagnostics" `Quick test_surface_validation;
          Alcotest.test_case "undeclared target" `Quick test_surface_parse_error_line;
          Alcotest.test_case "parse error line" `Quick test_surface_parse_rejects_garbage;
        ] );
      ( "layout",
        [
          Alcotest.test_case "slot formulas" `Quick test_layout_slots;
          Alcotest.test_case "layouts are bijections" `Quick test_layout_bijective;
        ] );
      ( "lowering",
        [
          Alcotest.test_case "apps x layouts = reference" `Quick
            test_apps_all_layouts_match_reference;
          Alcotest.test_case "diag halves matvec rotations" `Quick
            test_matvec_diag_beats_naive_rotations;
          Alcotest.test_case "rotation stat = IR count" `Quick test_rotation_count_matches_ir;
          Alcotest.test_case "loop-carried dependency rejected" `Quick
            test_loop_carried_dependency_rejected;
          Alcotest.test_case "staged read is legal" `Quick test_read_after_full_write_is_legal;
          qtest prop_random_loops_match_reference;
        ] );
      ( "schemes",
        [
          Alcotest.test_case "golden IR all schemes" `Quick test_golden_all_schemes;
          Alcotest.test_case "encrypted end to end" `Quick test_encrypted_end_to_end;
        ] );
      ( "caching",
        [
          Alcotest.test_case "fingerprint identity" `Quick
            test_fingerprint_stable_and_layout_sensitive;
          Alcotest.test_case "plan cache warm hit" `Quick
            test_plancache_addresses_batched_programs;
        ] );
    ]
