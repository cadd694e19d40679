(* Tests for the DSL and its packing helpers, validated against the exact
   plaintext reference interpreter, and for scale management of DSL
   programs by the driver (no manual scale management anywhere in this
   file). *)

module Dsl = Hecate_frontend.Dsl
module Ref = Hecate_backend.Reference
module Prog = Hecate_ir.Prog
module Printer = Hecate_ir.Printer
module Typing = Hecate_ir.Typing
module Diagnostic = Hecate_ir.Diagnostic
module Driver = Hecate.Driver
module Codegen = Hecate.Codegen
module Prng = Hecate_support.Prng
module Stats = Hecate_support.Stats

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let run1 prog inputs = List.hd (Ref.execute prog ~inputs)

let close = Alcotest.float 1e-9

let test_arith () =
  let d = Dsl.create ~slot_count:8 () in
  let x = Dsl.input d "x" in
  let e = Dsl.sub d (Dsl.add d (Dsl.square d x) x) (Dsl.const_scalar d 1.) in
  Dsl.output d (Dsl.neg d e);
  let out = run1 (Dsl.finish d) [ ("x", [| 2.; -1.; 0.; 3.; 0.; 0.; 0.; 0. |]) ] in
  (* -(x^2 + x - 1) *)
  check close "slot0" (-5.) out.(0);
  check close "slot1" 1. out.(1);
  check close "slot2" 1. out.(2);
  check close "slot3" (-11.) out.(3)

let test_rotate_normalization () =
  let d = Dsl.create ~slot_count:8 () in
  let x = Dsl.input d "x" in
  Dsl.output d (Dsl.rotate d x (-3));
  let out = run1 (Dsl.finish d) [ ("x", Array.init 8 float_of_int) ] in
  (* right rotation by 3: slot i holds x[(i - 3) mod 8] = x[i+5 mod 8] *)
  check close "wrap" 5. out.(0);
  check close "shifted" 0. out.(3)

let test_rotate_zero_emits_nothing () =
  let d = Dsl.create ~slot_count:8 () in
  let x = Dsl.input d "x" in
  Dsl.output d (Dsl.add d (Dsl.rotate d x 0) (Dsl.rotate d x 8));
  let p = Dsl.finish d in
  let rotations =
    Array.fold_left
      (fun n (o : Prog.op) -> match o.Prog.kind with Prog.Rotate _ -> n + 1 | _ -> n)
      0 p.Prog.body
  in
  check Alcotest.int "no rotate ops" 0 rotations

let test_add_many_balanced () =
  let d = Dsl.create ~slot_count:4 () in
  let x = Dsl.input d "x" in
  Dsl.output d (Dsl.add_many d (List.init 7 (fun i -> Dsl.scale_by d x (float_of_int (i + 1)))));
  let out = run1 (Dsl.finish d) [ ("x", [| 1.; 2.; 0.; 0. |]) ] in
  check close "sum of 1..7 times x" 28. out.(0);
  check close "slot1" 56. out.(1)

let test_reduce_sum_windows () =
  let d = Dsl.create ~slot_count:16 () in
  let x = Dsl.input d "x" in
  Dsl.output d (Dsl.reduce_sum d x ~width:4);
  let out = run1 (Dsl.finish d) [ ("x", Array.init 16 float_of_int) ] in
  (* sliding windows: slot i = x_i + .. + x_(i+3) *)
  check close "window at 0" 6. out.(0);
  check close "window at 3" 18. out.(3);
  check close "window wraps" (14. +. 15. +. 0. +. 1.) out.(14)

let test_reduce_sum_total () =
  let d = Dsl.create ~slot_count:16 () in
  let x = Dsl.input d "x" in
  Dsl.output d (Dsl.reduce_sum d x ~width:16);
  let out = run1 (Dsl.finish d) [ ("x", Array.init 16 float_of_int) ] in
  Array.iter (fun v -> check close "total everywhere" 120. v) out

let test_replicate () =
  let d = Dsl.create ~slot_count:16 () in
  let x = Dsl.input d "x" in
  Dsl.output d (Dsl.replicate d x ~width:4);
  let out = run1 (Dsl.finish d) [ ("x", [| 9.; 8.; 7.; 6. |]) ] in
  for b = 0 to 3 do
    check close "copies" 9. out.(4 * b);
    check close "copies tail" 6. out.((4 * b) + 3)
  done

let test_mask () =
  let d = Dsl.create ~slot_count:8 () in
  let x = Dsl.input d "x" in
  Dsl.output d (Dsl.mask d x (fun i -> i mod 2 = 0));
  let out = run1 (Dsl.finish d) [ ("x", Array.make 8 3.) ] in
  check close "kept" 3. out.(0);
  check close "zeroed" 0. out.(1)

let test_matvec_identity () =
  let d = Dsl.create ~slot_count:16 () in
  let x = Dsl.input d "x" in
  Dsl.output d (Dsl.matvec d ~rows:4 ~cols:4 (fun j i -> if i = j then 1. else 0.) x);
  let v = [| 3.; 1.; 4.; 1.5 |] in
  let out = run1 (Dsl.finish d) [ ("x", v) ] in
  Array.iteri (fun i e -> check close (Printf.sprintf "slot %d" i) e out.(i)) v

let prop_matvec_matches_dense =
  QCheck.Test.make ~name:"matvec = dense product" ~count:25
    QCheck.(pair (int_range 1 9) (int_range 1 9))
    (fun (rows, cols) ->
      let g = Prng.create ~seed:(rows + (16 * cols)) in
      let w = Array.init rows (fun _ -> Array.init cols (fun _ -> Prng.float01 g -. 0.5)) in
      let x = Array.init cols (fun _ -> Prng.float01 g -. 0.5) in
      let d = Dsl.create ~slot_count:32 () in
      let xi = Dsl.input d "x" in
      Dsl.output d (Dsl.matvec d ~rows ~cols (fun j i -> w.(j).(i)) xi);
      let out = run1 (Dsl.finish d) [ ("x", x) ] in
      let ok = ref true in
      for j = 0 to rows - 1 do
        let e = ref 0. in
        for i = 0 to cols - 1 do
          e := !e +. (w.(j).(i) *. x.(i))
        done;
        if Float.abs (!e -. out.(j)) > 1e-9 then ok := false
      done;
      !ok)

let test_conv2d_shift () =
  (* single tap (0,1,1): plain left shift within a row *)
  let d = Dsl.create ~slot_count:16 () in
  let img = Dsl.input d "i" in
  Dsl.output d (Dsl.conv2d d ~image:img ~img_width:4 ~stride:1 ~taps:[ (0, 1, 1.) ]);
  let out = run1 (Dsl.finish d) [ ("i", Array.init 16 float_of_int) ] in
  check close "shifted" 1. out.(0);
  check close "row end wraps into next row" 4. out.(3)

let test_conv2d_sobel_interior () =
  (* cross-check a Sobel-x response on an interior pixel *)
  let w = 4 in
  let img = [| 0.; 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10.; 11.; 12.; 13.; 14.; 15. |] in
  let taps =
    [ (-1, -1, -1.); (-1, 1, 1.); (0, -1, -2.); (0, 1, 2.); (1, -1, -1.); (1, 1, 1.) ]
  in
  let d = Dsl.create ~slot_count:16 () in
  let i = Dsl.input d "i" in
  Dsl.output d (Dsl.conv2d d ~image:i ~img_width:w ~stride:1 ~taps);
  let out = run1 (Dsl.finish d) [ ("i", img) ] in
  (* pixel (1,1) = slot 5: taps read slots 5 + dy*4 + dx *)
  let expect =
    List.fold_left (fun acc (dy, dx, c) -> acc +. (c *. img.(5 + (dy * 4) + dx))) 0. taps
  in
  check close "interior response" expect out.(5)

let test_conv2d_stride_dilation () =
  let d = Dsl.create ~slot_count:16 () in
  let i = Dsl.input d "i" in
  Dsl.output d (Dsl.conv2d d ~image:i ~img_width:4 ~stride:2 ~taps:[ (0, 1, 1.) ]);
  let out = run1 (Dsl.finish d) [ ("i", Array.init 16 float_of_int) ] in
  (* dilated tap reads slot s + 2 *)
  check close "dilated" 2. out.(0)

let test_avg_pool () =
  let d = Dsl.create ~slot_count:16 () in
  let i = Dsl.input d "i" in
  Dsl.output d (Dsl.avg_pool2x2 d i ~img_width:4 ~stride:1);
  let img = Array.init 16 float_of_int in
  let out = run1 (Dsl.finish d) [ ("i", img) ] in
  (* pool at (0,0): avg of slots 0,1,4,5 = 2.5 *)
  check close "pool" 2.5 out.(0)

let test_zero_weight_taps_skipped () =
  let d = Dsl.create ~slot_count:16 () in
  let i = Dsl.input d "i" in
  Dsl.output d (Dsl.conv2d d ~image:i ~img_width:4 ~stride:1 ~taps:[ (0, 0, 1.); (0, 1, 0.) ]);
  let p = Dsl.finish d in
  check Alcotest.bool "few ops" true (Prog.num_ops p <= 2)

(* Combinator preconditions are structured diagnostics carrying the surface
   chain; [expect_precondition] asserts on the code and provenance label. *)
let expect_precondition ~label ?context f =
  match f () with
  | _ -> Alcotest.failf "expected precondition diagnostic from %s" label
  | exception Diagnostic.Error d -> (
      check
        (Alcotest.testable (Fmt.of_to_string Diagnostic.code_name) ( = ))
        "code" Diagnostic.Precondition d.Diagnostic.code;
      check Alcotest.bool "has a hint" true (d.Diagnostic.hint <> None);
      match d.Diagnostic.provenance with
      | None -> Alcotest.failf "diagnostic from %s lacks provenance" label
      | Some pr ->
          check Alcotest.string "provenance label" label pr.Prog.label;
          Option.iter
            (fun ctx -> check Alcotest.(list string) "provenance context" ctx pr.Prog.context)
            context)

let test_bad_params_rejected () =
  (* slot count is a configuration error, not a surface diagnostic *)
  (match Dsl.create ~slot_count:12 () with
  | _ -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ());
  let d = Dsl.create ~slot_count:8 () in
  let x = Dsl.input d "x" in
  expect_precondition ~label:"add_many" ~context:[] (fun () -> Dsl.add_many d []);
  expect_precondition ~label:"reduce_sum w3" ~context:[] (fun () ->
      Dsl.reduce_sum d x ~width:3);
  expect_precondition ~label:"replicate w5" ~context:[] (fun () -> Dsl.replicate d x ~width:5);
  (* padded dim 16 > 8 slots *)
  expect_precondition ~label:"matvec 10x10" ~context:[] (fun () ->
      Dsl.matvec d ~rows:10 ~cols:10 (fun _ _ -> 1.) x);
  expect_precondition ~label:"matvec 0x4" (fun () ->
      Dsl.matvec d ~rows:0 ~cols:4 (fun _ _ -> 1.) x);
  expect_precondition ~label:"matvec 2x2" (fun () ->
      Dsl.matvec d ~rows:2 ~cols:2 (fun _ _ -> 0.) x);
  expect_precondition ~label:"conv2d" (fun () ->
      Dsl.conv2d d ~image:x ~img_width:4 ~stride:1 ~taps:[]);
  expect_precondition ~label:"conv2d" (fun () ->
      Dsl.conv2d d ~image:x ~img_width:4 ~stride:1 ~taps:[ (0, 0, 0.) ]);
  (* nested: a precondition tripped inside a user combinator names the
     user's label in the context chain *)
  expect_precondition ~label:"add_many" ~context:[ "my_combinator" ] (fun () ->
      Dsl.with_label d "my_combinator" (fun () -> Dsl.add_many d []))

(* ------------------------------------------------------------------ *)
(* Scale management of DSL programs. The DSL emits none; the driver's   *)
(* code generators place it, the result must typecheck under every      *)
(* scheme and — for the running example — reproduce the hand-pinned     *)
(* golden IR.                                                           *)
(* ------------------------------------------------------------------ *)

let infer_cfg = Typing.config ~sf:28. ~waterline:20. ()

let fig2_dsl () =
  (* the paper's running example, (x^2 + y^2)^3, written in the DSL: same
     surface ops, in the same order, as examples/fig2.hec *)
  let d = Dsl.create ~name:"fig2" ~slot_count:64 () in
  let x = Dsl.input d "x" in
  let y = Dsl.input d "y" in
  (* explicit lets: OCaml argument evaluation is right-to-left, and the
     golden pin fixes the op order *)
  let x2 = Dsl.square d x in
  let y2 = Dsl.square d y in
  let e = Dsl.add d x2 y2 in
  let e2 = Dsl.mul d e e in
  Dsl.output d (Dsl.mul d e2 e);
  Dsl.finish d

let matvec_dsl () =
  let d = Dsl.create ~name:"matvec" ~slot_count:16 () in
  let x = Dsl.input d "x" in
  Dsl.output d (Dsl.matvec d ~rows:4 ~cols:4 (fun j i -> float_of_int ((j * 4) + i + 1)) x);
  Dsl.finish d

let conv_dsl () =
  let d = Dsl.create ~name:"conv" ~slot_count:16 () in
  let i = Dsl.input d "i" in
  let taps =
    [ (-1, -1, -1.); (-1, 1, 1.); (0, -1, -2.); (0, 1, 2.); (1, -1, -1.); (1, 1, 1.) ]
  in
  Dsl.output d (Dsl.avg_pool2x2 d (Dsl.conv2d d ~image:i ~img_width:4 ~stride:1 ~taps) ~img_width:4 ~stride:1);
  Dsl.finish d

let surface_apps () = [ ("fig2", fig2_dsl ()); ("matvec", matvec_dsl ()); ("conv", conv_dsl ()) ]

let test_infer_typechecks_all_schemes () =
  List.iter
    (fun (name, surface) ->
      (match Typing.check infer_cfg (Codegen.waterline infer_cfg surface) with
      | Ok _ -> ()
      | Error d ->
          Alcotest.failf "%s: waterline placement ill-typed: %s" name (Diagnostic.to_string d));
      List.iter
        (fun scheme ->
          match
            Driver.diagnose (fun () ->
                Driver.compile scheme ~sf_bits:28 ~waterline_bits:20. surface)
          with
          | Ok _ -> ()
          | Error d ->
              Alcotest.failf "%s under %s: %s" name (Driver.scheme_name scheme)
                (Diagnostic.to_string d))
        Driver.all_schemes)
    (surface_apps ())

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_infer_fig2_matches_golden () =
  (* end to end: the zero-annotation DSL program compiles under EVA to,
     byte for byte, the golden IR pinned for the hand-written
     examples/fig2.hec (default printing is provenance-free, so the pin is
     unaffected by the provenance the DSL records) *)
  let eva = Driver.compile Driver.Eva ~sf_bits:28 ~waterline_bits:20. (fig2_dsl ()) in
  check Alcotest.string "golden/fig2_eva.ir" (read_file "golden/fig2_eva.ir")
    (Printer.to_string eva.Driver.prog)

let test_infer_diagnostic_carries_surface_chain () =
  (* under a modulus too small for x^4, the waterline placement fails C1 —
     and the diagnostic names the surface combinator chain, not just an op
     id *)
  let d = Dsl.create ~slot_count:8 () in
  let x = Dsl.input d "x" in
  Dsl.output d (Dsl.square d (Dsl.square d x));
  let surface = Dsl.finish d in
  let tight = Typing.config ~sf:28. ~waterline:20. ~max_log_q:60. () in
  match Typing.check tight (Codegen.waterline tight surface) with
  | Ok _ -> Alcotest.fail "expected a scale-overflow diagnostic"
  | Error e ->
      check
        (Alcotest.testable (Fmt.of_to_string Diagnostic.code_name) ( = ))
        "code" Diagnostic.Scale_overflow e.Diagnostic.code;
      (match e.Diagnostic.provenance with
      | None -> Alcotest.fail "diagnostic lacks surface provenance"
      | Some pr ->
          check Alcotest.string "label" "mul" pr.Prog.label;
          check Alcotest.(list string) "context" [ "square" ] pr.Prog.context);
      check Alcotest.bool "op recorded" true (e.Diagnostic.op <> None)

let () =
  Alcotest.run "hecate_frontend"
    [
      ( "dsl",
        [
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "rotate normalization" `Quick test_rotate_normalization;
          Alcotest.test_case "rotate 0 elided" `Quick test_rotate_zero_emits_nothing;
          Alcotest.test_case "add_many" `Quick test_add_many_balanced;
          Alcotest.test_case "bad params" `Quick test_bad_params_rejected;
        ] );
      ( "packing",
        [
          Alcotest.test_case "reduce_sum windows" `Quick test_reduce_sum_windows;
          Alcotest.test_case "reduce_sum total" `Quick test_reduce_sum_total;
          Alcotest.test_case "replicate" `Quick test_replicate;
          Alcotest.test_case "mask" `Quick test_mask;
          Alcotest.test_case "matvec identity" `Quick test_matvec_identity;
          qtest prop_matvec_matches_dense;
        ] );
      ( "stencils",
        [
          Alcotest.test_case "conv2d shift" `Quick test_conv2d_shift;
          Alcotest.test_case "sobel interior" `Quick test_conv2d_sobel_interior;
          Alcotest.test_case "stride dilation" `Quick test_conv2d_stride_dilation;
          Alcotest.test_case "avg pool" `Quick test_avg_pool;
          Alcotest.test_case "zero taps skipped" `Quick test_zero_weight_taps_skipped;
        ] );
      ( "infer",
        [
          Alcotest.test_case "typechecks under all schemes" `Quick
            test_infer_typechecks_all_schemes;
          Alcotest.test_case "fig2 matches golden IR" `Quick test_infer_fig2_matches_golden;
          Alcotest.test_case "diagnostic carries surface chain" `Quick
            test_infer_diagnostic_carries_surface_chain;
        ] );
    ]
