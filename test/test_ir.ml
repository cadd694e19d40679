(* Tests for hecate_ir: types, program structure, typing rules (Table I /
   Eq. 1-6), printer/parser round-trips, passes, liveness. *)

module Types = Hecate_ir.Types
module Prog = Hecate_ir.Prog
module Typing = Hecate_ir.Typing
module Printer = Hecate_ir.Printer
module Parser = Hecate_ir.Parser
module Passes = Hecate_ir.Passes
module Pass_manager = Hecate_ir.Pass_manager
module Liveness = Hecate_ir.Liveness
module Fusion = Hecate_ir.Fusion
module B = Prog.Builder

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let cfg = Typing.config ~sf:28. ~waterline:20. ()
let cipher scale level = Types.Cipher { Types.scale; level }
let plain scale level = Types.Plain { Types.scale; level }

module Diagnostic = Hecate_ir.Diagnostic

let infer_ok kind args =
  match Typing.infer cfg kind args with
  | Ok t -> t
  | Error e -> Alcotest.failf "expected well-typed, got: %s" (Diagnostic.to_string e)

(* legacy-string view of the diagnostic: the message assertions below predate
   structured diagnostics and must keep passing unchanged *)
let infer_err kind args =
  match Typing.infer cfg kind args with
  | Ok t -> Alcotest.failf "expected type error, got %s" (Types.to_string t)
  | Error e -> Diagnostic.to_string e

let infer_err_code kind args =
  match Typing.infer cfg kind args with
  | Ok t -> Alcotest.failf "expected type error, got %s" (Types.to_string t)
  | Error e -> e.Diagnostic.code

let ty = Alcotest.testable Types.pp Types.equal

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let test_types_basics () =
  check Alcotest.bool "free not scaled" false (Types.is_scaled Types.Free);
  check Alcotest.bool "plain scaled" true (Types.is_scaled (plain 20. 0));
  check Alcotest.bool "cipher is cipher" true (Types.is_cipher (cipher 20. 1));
  check Alcotest.bool "plain not cipher" false (Types.is_cipher (plain 20. 1));
  check (Alcotest.float 0.) "scale_exn" 23. (Types.scale_exn (cipher 23. 0));
  check Alcotest.int "level_exn" 4 (Types.level_exn (plain 20. 4));
  check Alcotest.bool "scale_close tolerance" true (Types.scale_close 20. 20.005);
  check Alcotest.bool "scale_close distinguishes" false (Types.scale_close 20. 20.5);
  check ty "equal up to drift" (cipher 20. 1) (cipher 20.001 1)

(* ------------------------------------------------------------------ *)
(* Typing rules: Table I semantics                                     *)
(* ------------------------------------------------------------------ *)

let test_rule_rescale () =
  (* rescale: scale j -> j - sf (log2), level k -> k+1 *)
  check ty "rescale effect" (cipher 30. 1) (infer_ok Prog.Rescale [| cipher 58. 0 |]);
  (* C2: result below waterline rejected *)
  let e = infer_err Prog.Rescale [| cipher 40. 0 |] in
  check Alcotest.bool "waterline violation reported" true
    (Astring.String.is_infix ~affix:"waterline" e)

let test_rule_rescale_cipher_only () =
  ignore (infer_err Prog.Rescale [| plain 58. 0 |]);
  ignore (infer_err Prog.Rescale [| Types.Free |])

let test_rule_modswitch () =
  check ty "modswitch keeps scale" (cipher 33. 3) (infer_ok Prog.Modswitch [| cipher 33. 2 |]);
  check ty "modswitch on plain" (plain 33. 3) (infer_ok Prog.Modswitch [| plain 33. 2 |])

let test_rule_downscale () =
  (* downscale: scale -> waterline, level+1; only legal when rescale is not *)
  check ty "downscale effect" (cipher 20. 1)
    (infer_ok (Prog.Downscale { waterline = 20. }) [| cipher 40. 0 |]);
  (* rescale applicable (40+28=68-28=40 >= 20+28=48...): scale 50: 50-28=22>=20 *)
  let e = infer_err (Prog.Downscale { waterline = 20. }) [| cipher 50. 0 |] in
  check Alcotest.bool "prefers rescale" true (Astring.String.is_infix ~affix:"rescale" e);
  (* already at waterline: use modswitch *)
  let e = infer_err (Prog.Downscale { waterline = 20. }) [| cipher 20. 0 |] in
  check Alcotest.bool "prefers modswitch" true (Astring.String.is_infix ~affix:"modswitch" e);
  ignore (infer_err (Prog.Downscale { waterline = 20. }) [| plain 40. 0 |])

let test_rule_upscale () =
  check ty "upscale to target" (cipher 44. 2)
    (infer_ok (Prog.Upscale { target_scale = 44. }) [| cipher 40. 2 |]);
  ignore (infer_err (Prog.Upscale { target_scale = 30. }) [| cipher 40. 2 |])

let test_rule_mul () =
  (* scales multiply (add in log2); levels must match *)
  check ty "mul scales add" (cipher 45. 1) (infer_ok Prog.Mul [| cipher 25. 1; cipher 20. 1 |]);
  check ty "cipher x plain" (cipher 45. 1) (infer_ok Prog.Mul [| cipher 25. 1; plain 20. 1 |]);
  check ty "plain x plain stays plain" (plain 45. 1)
    (infer_ok Prog.Mul [| plain 25. 1; plain 20. 1 |]);
  let e = infer_err Prog.Mul [| cipher 25. 0; cipher 20. 1 |] in
  check Alcotest.bool "C3 reported" true (Astring.String.is_infix ~affix:"C3" e)

let test_rule_add () =
  check ty "add keeps scale" (cipher 25. 1) (infer_ok Prog.Add [| cipher 25. 1; cipher 25. 1 |]);
  ignore (infer_err Prog.Add [| cipher 25. 1; cipher 26. 1 |]);
  ignore (infer_err Prog.Sub [| cipher 25. 0; cipher 25. 1 |]);
  ignore (infer_err Prog.Add [| Types.Free; cipher 25. 1 |])

let test_rule_encode () =
  check ty "encode" (plain 22. 3) (infer_ok (Prog.Encode { scale = 22.; level = 3 }) [| Types.Free |]);
  (* C2 on encode *)
  ignore (infer_err (Prog.Encode { scale = 10.; level = 0 }) [| Types.Free |]);
  ignore (infer_err (Prog.Encode { scale = 22.; level = 0 }) [| cipher 22. 0 |])

let test_rule_c1 () =
  let cfg = Typing.config ~sf:28. ~waterline:20. ~max_log_q:100. () in
  (* scale 90 at level 1 exceeds 100 - 28 = 72 remaining bits *)
  match Typing.infer cfg Prog.Mul [| cipher 45. 1; cipher 45. 1 |] with
  | Ok _ -> Alcotest.fail "expected C1 violation"
  | Error e ->
      check Alcotest.bool "C1 reported" true
        (Astring.String.is_infix ~affix:"C1" (Diagnostic.to_string e))

let test_rule_level_bound () =
  let cfg = Typing.config ~sf:28. ~waterline:20. ~max_level:2 () in
  match Typing.infer cfg Prog.Modswitch [| cipher 20. 2 |] with
  | Ok _ -> Alcotest.fail "expected level bound violation"
  | Error _ -> ()

let prop_downscale_rescale_disjoint =
  (* exactly one of rescale/downscale/modswitch applies at every scale:
     the planner's operation choice is total and unambiguous *)
  QCheck.Test.make ~name:"scale-management choice is total" ~count:200
    QCheck.(float_bound_inclusive 60.)
    (fun s ->
      let s = 20. +. s in
      let rescale_ok = Result.is_ok (Typing.infer cfg Prog.Rescale [| cipher s 0 |]) in
      let downscale_ok =
        Result.is_ok (Typing.infer cfg (Prog.Downscale { waterline = 20. }) [| cipher s 0 |])
      in
      let modswitch_ok = Result.is_ok (Typing.infer cfg Prog.Modswitch [| cipher s 0 |]) in
      (* modswitch always applies; rescale and downscale never both apply *)
      modswitch_ok && not (rescale_ok && downscale_ok))

(* ------------------------------------------------------------------ *)
(* Program structure                                                   *)
(* ------------------------------------------------------------------ *)

let small_prog () =
  let b = B.create ~name:"t" ~slot_count:16 () in
  let x = B.input b "x" in
  let y = B.input b "y" in
  let c = B.const_scalar b 2. in
  let m = B.mul b x y in
  let s = B.add b m c in
  B.output b s;
  B.finish b

let test_prog_structure () =
  let p = small_prog () in
  check Alcotest.int "op count" 5 (Prog.num_ops p);
  check Alcotest.int "inputs" 2 (List.length p.Prog.inputs);
  check Alcotest.(list int) "outputs" [ 4 ] p.Prog.outputs;
  check Alcotest.bool "validates" true (Result.is_ok (Prog.validate p))

let test_prog_use_counts () =
  let p = small_prog () in
  let counts = Prog.use_counts p in
  check Alcotest.int "x used once" 1 counts.(0);
  check Alcotest.int "mul used once" 1 counts.(3);
  check Alcotest.int "output counted" 1 counts.(4)

let test_prog_users () =
  let p = small_prog () in
  let users = Prog.users p in
  check Alcotest.(list int) "x feeds mul" [ 3 ] users.(0);
  check Alcotest.(list int) "mul feeds add" [ 4 ] users.(3)

let test_validate_rejects () =
  let bad =
    {
      Prog.name = "bad";
      slot_count = 4;
      body = [| { Prog.id = 0; kind = Prog.Add; args = [| 0; 0 |]; ty = Types.Free; prov = None } |];
      inputs = [];
      outputs = [ 0 ];
    }
  in
  check Alcotest.bool "self-reference rejected" true (Result.is_error (Prog.validate bad))

let test_validate_input_list () =
  let p = small_prog () in
  let dup = { p with Prog.inputs = [ 0; 0 ] } in
  check Alcotest.bool "duplicate input entry rejected" true (Result.is_error (Prog.validate dup));
  let missing = { p with Prog.inputs = [ 0 ] } in
  (match Prog.validate missing with
  | Error msg ->
      check Alcotest.bool "undeclared input op named" true
        (Astring.String.is_infix ~affix:"input op 1" msg)
  | Ok () -> Alcotest.fail "input op missing from the input list must be rejected");
  let not_input = { p with Prog.inputs = [ 0; 3 ] } in
  check Alcotest.bool "non-input op in input list rejected" true
    (Result.is_error (Prog.validate not_input))

let test_prog_equal () =
  let p = small_prog () and q = small_prog () in
  check Alcotest.bool "structurally equal" true (Prog.equal p q);
  (Prog.op q 3).Prog.ty <- Types.Cipher { Types.scale = 20.; level = 0 };
  check Alcotest.bool "types ignored" true (Prog.equal p q);
  let r = { q with Prog.outputs = [ 3 ] } in
  check Alcotest.bool "different outputs detected" false (Prog.equal p r)

let test_rewriter_contracts () =
  let p = small_prog () in
  let r = Prog.Rewriter.create p in
  Alcotest.check_raises "mapped before set" Not_found (fun () ->
      ignore (Prog.Rewriter.mapped r 0));
  Alcotest.check_raises "ty of an unemitted value"
    (Invalid_argument "Prog.Rewriter.ty: unknown value") (fun () ->
      ignore (Prog.Rewriter.ty r 0));
  Alcotest.check_raises "set_mapped outside the source"
    (Invalid_argument "Prog.Rewriter.set_mapped: value id out of range") (fun () ->
      Prog.Rewriter.set_mapped r ~old_value:(Prog.num_ops p) 0);
  (* copy the program op by op, past the initial capacity of the op array *)
  Prog.iter
    (fun o ->
      let args = Array.map (Prog.Rewriter.mapped r) o.Prog.args in
      let id = Prog.Rewriter.emit r o.Prog.kind args (cipher 20. o.Prog.id) in
      Prog.Rewriter.set_mapped r ~old_value:o.Prog.id id)
    p;
  let pad =
    List.init 40 (fun _ ->
        Prog.Rewriter.emit r (Prog.Const { value = Prog.Scalar 0. }) [||] Types.Free)
  in
  check ty "type of an emitted value" (cipher 20. 3)
    (Prog.Rewriter.ty r (Prog.Rewriter.mapped r 3));
  check ty "type past the initial capacity" Types.Free (Prog.Rewriter.ty r (List.nth pad 39));
  let q = Prog.Rewriter.finish r in
  check Alcotest.int "all ops kept" (Prog.num_ops p + 40) (Prog.num_ops q);
  check Alcotest.(list int) "inputs" p.Prog.inputs q.Prog.inputs;
  check Alcotest.(list int) "outputs" p.Prog.outputs q.Prog.outputs;
  check Alcotest.(result unit string) "finished program valid" (Ok ()) (Prog.validate q);
  (* a finished rewriter has released its working array *)
  let finished fn f =
    Alcotest.check_raises (fn ^ " after finish")
      (Invalid_argument ("Prog.Rewriter." ^ fn ^ ": finished rewriter")) f
  in
  finished "emit" (fun () -> ignore (Prog.Rewriter.emit r Prog.Add [| 0; 1 |] Types.Free));
  finished "mapped" (fun () -> ignore (Prog.Rewriter.mapped r 0));
  finished "set_mapped" (fun () -> Prog.Rewriter.set_mapped r ~old_value:0 0);
  finished "ty" (fun () -> ignore (Prog.Rewriter.ty r 0));
  finished "finish" (fun () -> ignore (Prog.Rewriter.finish r))

let test_builder_rejects_no_output () =
  let b = B.create ~slot_count:4 () in
  ignore (B.input b "x");
  match B.finish b with
  | _ -> Alcotest.fail "expected failure"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Printer / parser                                                    *)
(* ------------------------------------------------------------------ *)

let managed_prog () =
  (* the Fig. 2 example, compiled by hand into the HECATE plan *)
  Parser.parse
    {|
func fig2(%0: cipher "x", %1: cipher "y") slots=8 {
  %2 = mul %0, %0
  %3 = mul %1, %1
  %4 = add %2, %3
  %5 = downscale %4, 20
  %6 = mul %5, %5
  %7 = mul %6, %5
  return %7
}
|}

let test_parse_basic () =
  let p = managed_prog () in
  check Alcotest.int "ops" 8 (Prog.num_ops p);
  check Alcotest.int "slots" 8 p.Prog.slot_count;
  match (Prog.op p 5).Prog.kind with
  | Prog.Downscale { waterline } -> check (Alcotest.float 0.) "attr" 20. waterline
  | _ -> Alcotest.fail "expected downscale"

let test_parse_typecheck () =
  let p = managed_prog () in
  Typing.check_exn cfg p;
  let tys = Array.map (fun (o : Prog.op) -> o.Prog.ty) p.Prog.body in
  check ty "z type" (cipher 40. 0) tys.(4);
  check ty "downscaled" (cipher 20. 1) tys.(5);
  check ty "final" (cipher 60. 1) tys.(7)

let test_print_parse_roundtrip () =
  let p = managed_prog () in
  ignore (Typing.check_exn cfg p);
  let text = Printer.to_string p in
  let p2 = Parser.parse text in
  check Alcotest.int "same op count" (Prog.num_ops p) (Prog.num_ops p2);
  ignore (Typing.check_exn cfg p2);
  let text2 = Printer.to_string p2 in
  check Alcotest.string "fixpoint" text text2

let test_parse_errors () =
  let expect_error s =
    match Parser.parse s with
    | _ -> Alcotest.fail "expected parse error"
    | exception Parser.Parse_error _ -> ()
  in
  expect_error "func f() slots=4 { return %0 }";
  expect_error {|func f(%0: cipher "x") slots=4 { %1 = mul %0 return %1 }|};
  expect_error {|func f(%0: cipher "x") slots=4 { %1 = frobnicate %0 return %1 }|};
  expect_error {|func f(%0: cipher "x") slots=4 { %1 = negate %0 return %1|}

let test_parse_comments_and_vectors () =
  let p =
    Parser.parse
      {|
# leading comment
func f(%0: cipher "x") slots=4 {
  %1 = const [1.5, -2, 0.25]  # trailing comment
  %2 = mul %0, %1
  return %2
}
|}
  in
  match (Prog.op p 1).Prog.kind with
  | Prog.Const { value = Prog.Vector v } ->
      check Alcotest.(array (float 0.)) "vector" [| 1.5; -2.; 0.25 |] v
  | _ -> Alcotest.fail "expected vector constant"

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

let test_dce () =
  let b = B.create ~slot_count:4 () in
  let x = B.input b "x" in
  let _dead = B.mul b x x in
  let live = B.add b x x in
  B.output b live;
  let p = B.finish b in
  let p' = Passes.dce p in
  check Alcotest.int "dead mul removed" 2 (Prog.num_ops p');
  check Alcotest.bool "still valid" true (Result.is_ok (Prog.validate p'))

let test_cse () =
  let b = B.create ~slot_count:4 () in
  let x = B.input b "x" in
  let m1 = B.mul b x x in
  let m2 = B.mul b x x in
  B.output b (B.add b m1 m2);
  let p = B.finish b in
  let p' = Passes.cse p in
  check Alcotest.int "duplicate mul merged" 3 (Prog.num_ops p');
  check Alcotest.bool "still valid" true (Result.is_ok (Prog.validate p'))

let test_cse_keeps_distinct_inputs () =
  let b = B.create ~slot_count:4 () in
  let x = B.input b "x" in
  let y = B.input b "y" in
  B.output b (B.add b x y);
  let p = Passes.cse (B.finish b) in
  check Alcotest.int "inputs not merged" 3 (Prog.num_ops p)

(* [cse] keys constants by contents with [compare]'s float equality, so
   these pin exactly which constants merge. *)
let count_consts p =
  Array.fold_left
    (fun n (o : Prog.op) -> match o.Prog.kind with Prog.Const _ -> n + 1 | _ -> n)
    0 p.Prog.body

(* [x * c] for every constant, all summed into one output *)
let prog_using_consts emit_consts =
  let b = B.create ~slot_count:64 () in
  let x = B.input b "x" in
  let terms = List.map (fun c -> B.mul b x c) (emit_consts b) in
  B.output b (List.fold_left (B.add b) (List.hd terms) (List.tl terms));
  B.finish b

let test_cse_vector_tails () =
  (* 40 weight-diagonal-like vectors: a common 16-slot zero prefix, then
     tails that differ in one slot *)
  let tail k =
    Array.init 64 (fun i -> if i < 16 then 0. else float_of_int ((i * 7) + (k * (i mod 5))))
  in
  let distinct = prog_using_consts (fun b -> List.init 40 (fun k -> B.const_vector b (tail k))) in
  check Alcotest.int "40 distinct tails stay distinct" 40 (count_consts (Passes.cse distinct));
  let last_slot k = Array.init 64 (fun i -> if i = 63 then float_of_int k else 0.) in
  let sparse =
    prog_using_consts (fun b -> List.init 40 (fun k -> B.const_vector b (last_slot (k + 1))))
  in
  check Alcotest.int "vectors differing only in the last slot stay distinct" 40
    (count_consts (Passes.cse sparse));
  (* bitwise-equal copies (separate arrays) merge onto the first *)
  let doubled =
    prog_using_consts (fun b ->
        List.init 80 (fun k -> B.const_vector b (tail (k mod 40))))
  in
  let merged = Passes.cse doubled in
  check Alcotest.int "bitwise-equal copies merge" 40 (count_consts merged);
  check Alcotest.bool "still valid" true (Result.is_ok (Prog.validate merged))

let test_cse_float_classes () =
  (* [compare] puts 0. and -0. in one class and every NaN in one class *)
  let nan1 = Int64.float_of_bits 0x7FF8000000000001L in
  let nan2 = Int64.float_of_bits 0xFFF8000000000002L in
  check Alcotest.bool "distinct NaN payloads" true
    (Int64.bits_of_float nan1 <> Int64.bits_of_float nan2);
  let consts_after emit = count_consts (Passes.cse (prog_using_consts emit)) in
  check Alcotest.int "0. and -0. scalars merge" 1
    (consts_after (fun b -> [ B.const_scalar b 0.; B.const_scalar b (-0.) ]));
  check Alcotest.int "NaN scalars merge" 1
    (consts_after (fun b -> [ B.const_scalar b nan1; B.const_scalar b nan2 ]));
  let vec z n = Array.init 64 (fun i -> if i = 5 then z else if i = 40 then n else 1.) in
  check Alcotest.int "vectors equal up to zero sign and NaN payload merge" 1
    (consts_after (fun b ->
         [ B.const_vector b (vec 0. nan1); B.const_vector b (vec (-0.) nan2) ]));
  check Alcotest.int "a scalar never merges with a vector" 2
    (consts_after (fun b -> [ B.const_scalar b 1.; B.const_vector b (Array.make 64 1.) ]));
  check Alcotest.int "vectors of different lengths stay distinct" 2
    (consts_after (fun b ->
         [ B.const_vector b (Array.make 8 1.); B.const_vector b (Array.make 9 1.) ]))

let test_cse_float_attributes () =
  (* scale-management ops on one operand merge only when their float
     attributes are equal *)
  let op id kind args = { Prog.id; kind; args; ty = Types.Free; prov = None } in
  let prog kinds =
    let n = List.length kinds in
    let body =
      Array.of_list
        ([ op 0 (Prog.Input { name = "x" }) [||];
           op 1 (Prog.Const { value = Prog.Scalar 2. }) [||] ]
        @ List.mapi
            (fun i k -> op (i + 2) k [| (match k with Prog.Encode _ -> 1 | _ -> 0) |])
            kinds)
    in
    { Prog.name = "attrs"; slot_count = 16; body; inputs = [ 0 ];
      outputs = List.init n (fun i -> i + 2) }
  in
  let surviving kinds = Prog.num_ops (Passes.cse (prog kinds)) - 2 in
  let eps = Float.succ 20. in
  let encode scale level = Prog.Encode { scale; level } in
  check Alcotest.int "encode scales" 2 (surviving [ encode 20. 0; encode eps 0 ]);
  check Alcotest.int "encode levels" 2 (surviving [ encode 20. 0; encode 20. 1 ]);
  check Alcotest.int "upscale targets" 2
    (surviving [ Prog.Upscale { target_scale = 20. }; Prog.Upscale { target_scale = eps } ]);
  check Alcotest.int "downscale waterlines" 2
    (surviving [ Prog.Downscale { waterline = 20. }; Prog.Downscale { waterline = eps } ]);
  check Alcotest.int "equal attributes merge" 3
    (surviving
       [ encode 20. 0; encode 20. 0;
         Prog.Upscale { target_scale = 20. }; Prog.Upscale { target_scale = 20. };
         Prog.Downscale { waterline = 20. }; Prog.Downscale { waterline = 20. } ])

let test_constant_fold () =
  let b = B.create ~slot_count:4 () in
  let x = B.input b "x" in
  let c = B.mul b (B.const_scalar b 3.) (B.const_scalar b 4.) in
  B.output b (B.mul b x c);
  let p = Passes.constant_fold (B.finish b) in
  (* input, folded const, mul *)
  check Alcotest.int "const mul folded" 3 (Prog.num_ops p);
  check Alcotest.bool "still valid" true (Result.is_ok (Prog.validate p));
  match (Prog.op p 1).Prog.kind with
  | Prog.Const { value = Prog.Scalar v } -> check (Alcotest.float 0.) "value" 12. v
  | _ -> Alcotest.fail "expected folded scalar"

let test_constant_fold_rotate () =
  let b = B.create ~slot_count:4 () in
  let x = B.input b "x" in
  let c = B.rotate b (B.const_vector b [| 1.; 2.; 3.; 4. |]) 1 in
  B.output b (B.mul b x c);
  let p = Passes.constant_fold (B.finish b) in
  match (Prog.op p 1).Prog.kind with
  | Prog.Const { value = Prog.Vector v } ->
      check Alcotest.(array (float 0.)) "rotated" [| 2.; 3.; 4.; 1. |] v
  | _ -> Alcotest.fail "expected folded vector"

let test_early_modswitch () =
  (* modswitch(mul(a, b)) with a single use becomes mul(ms a, ms b) *)
  let p =
    Parser.parse
      {|
func f(%0: cipher "x", %1: cipher "y") slots=4 {
  %2 = mul %0, %1
  %3 = modswitch %2
  %4 = mul %3, %3
  return %4
}
|}
  in
  ignore (Typing.check_exn cfg p);
  let p' = Passes.early_modswitch p in
  check Alcotest.bool "still valid" true (Result.is_ok (Prog.validate p'));
  ignore (Typing.check_exn cfg p');
  (* the first op consuming inputs must now be a modswitch *)
  let kinds = Array.map (fun (o : Prog.op) -> Prog.kind_name o.Prog.kind) p'.Prog.body in
  check Alcotest.bool "modswitch moved before mul" true
    (kinds.(2) = "modswitch" && kinds.(3) = "modswitch");
  (* semantics preserved: the final type is unchanged *)
  check ty "result type unchanged"
    (Prog.op p (Prog.num_ops p - 1)).Prog.ty
    (Prog.op p' (Prog.num_ops p' - 1)).Prog.ty

(* a deep single-use chain: one pass application must carry the modswitch
   the whole way down (the old one-step-per-application behaviour needed a
   pipeline fixpoint iteration per dataflow step and overflowed the
   64-iteration budget on LeNet-sized programs) *)
let deep_chain_prog depth =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "func f(%0: cipher \"x\") slots=4 {\n";
  for i = 1 to depth do
    Buffer.add_string buf (Printf.sprintf "  %%%d = add %%%d, %%%d\n" i (i - 1) (i - 1))
  done;
  Buffer.add_string buf (Printf.sprintf "  %%%d = modswitch %%%d\n" (depth + 1) depth);
  Buffer.add_string buf (Printf.sprintf "  return %%%d\n}\n" (depth + 1));
  Parser.parse (Buffer.contents buf)

let test_early_modswitch_deep_chain () =
  let p = deep_chain_prog 100 in
  let p' = Passes.early_modswitch p in
  check Alcotest.bool "still valid" true (Result.is_ok (Prog.validate p'));
  check Alcotest.int "op count unchanged" (Prog.num_ops p) (Prog.num_ops p');
  check Alcotest.string "modswitch migrated onto the input" "modswitch"
    (Prog.kind_name (Prog.op p' 1).Prog.kind);
  check Alcotest.bool "idempotent" true (Prog.equal p' (Passes.early_modswitch p'))

let test_early_modswitch_shared_operand () =
  (* modswitch(mul %1, %1): both wrapped operands must share ONE modswitch,
     otherwise the copies give %0 two users and migration stalls *)
  let p =
    Parser.parse
      {|
func f(%0: cipher "x") slots=4 {
  %1 = mul %0, %0
  %2 = modswitch %1
  %3 = mul %2, %2
  return %3
}
|}
  in
  let p' = Passes.early_modswitch p in
  check Alcotest.bool "still valid" true (Result.is_ok (Prog.validate p'));
  check Alcotest.int "no duplicate wrappers" (Prog.num_ops p) (Prog.num_ops p');
  let modswitches =
    Array.fold_left
      (fun n (o : Prog.op) -> match o.Prog.kind with Prog.Modswitch -> n + 1 | _ -> n)
      0 p'.Prog.body
  in
  check Alcotest.int "single shared modswitch" 1 modswitches;
  check Alcotest.string "it sits on the input" "modswitch"
    (Prog.kind_name (Prog.op p' 1).Prog.kind)

let test_finalize_fixpoint_deep_chain () =
  (* the full finalize pipeline must converge on programs deeper than the
     64-iteration fixpoint budget *)
  let p = deep_chain_prog 200 in
  let p' = Pass_manager.run (Pass_manager.finalize ~early_modswitch:true) p in
  check Alcotest.bool "still valid" true (Result.is_ok (Prog.validate p'))

let test_early_modswitch_multiuse_blocked () =
  (* the producing op has another user: the modswitch must stay *)
  let p =
    Parser.parse
      {|
func f(%0: cipher "x") slots=4 {
  %1 = mul %0, %0
  %2 = modswitch %1
  %3 = mul %2, %2
  %4 = add %1, %1
  return %3, %4
}
|}
  in
  let p' = Passes.early_modswitch p in
  check Alcotest.int "unchanged" (Prog.num_ops p) (Prog.num_ops p')

(* Hand-written shapes checked against the sweep the pass replaced
   (test/oracle): same program, same provenance, and the input handed back
   physically exactly when the sweep hands it back. [expected] pins the
   body, so a case documents what the schedule does with its shape. *)
let early_modswitch_case ?expected ~physical src () =
  let p = Parser.parse src in
  let p' = Passes.early_modswitch p in
  (match Modswitch_sweep.check ~input:p ~actual:p' with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  check Alcotest.bool "input returned physically" physical (p' == p);
  Option.iter
    (fun body ->
      check Alcotest.string "rewritten body" body
        (String.concat "\n"
           (List.filter
              (fun l -> String.length l > 2 && String.sub l 0 3 = "  %")
              (String.split_on_char '\n' (Printer.to_string p')))))
    expected

let em_cases =
  [
    ( "duplicate modswitches, nothing else movable",
      early_modswitch_case ~physical:true
        {|
func f(%0: cipher "x") slots=4 {
  %1 = negate %0
  %2 = modswitch %1
  %3 = modswitch %1
  %4 = add %2, %3
  return %4
}
|} );
    ( "duplicates merge once anything moves",
      early_modswitch_case ~physical:false
        ~expected:
          "  %1 = modswitch %0\n  %2 = modswitch %1\n  %3 = negate %2\n  %4 = add %3, %3"
        {|
func f(%0: cipher "x") slots=4 {
  %1 = negate %0
  %2 = modswitch %1
  %3 = modswitch %1
  %4 = add %2, %3
  %5 = modswitch %4
  return %5
}
|} );
    ( "mul of a value with itself",
      early_modswitch_case ~physical:false
        ~expected:
          "  %1 = modswitch %0\n  %2 = modswitch %1\n  %3 = negate %2\n  %4 = mul %3, %3"
        {|
func f(%0: cipher "x") slots=4 {
  %1 = negate %0
  %2 = mul %1, %1
  %3 = modswitch %2
  %4 = modswitch %3
  return %4
}
|} );
    ( "dead modswitch chain",
      early_modswitch_case ~physical:false
        ~expected:
          "  %1 = modswitch %0\n  %2 = modswitch %1\n  %3 = negate %2\n  %4 = add %0, %0"
        {|
func f(%0: cipher "x") slots=4 {
  %1 = negate %0
  %2 = modswitch %1
  %3 = modswitch %2
  %4 = add %0, %0
  return %4
}
|} );
    (* the dead %3 merges into the layer the live chain through %2 brings,
       so it does not stop %1 from absorbing a second layer *)
    ( "dead modswitch beside a live chain",
      early_modswitch_case ~physical:false
        ~expected:
          "  %1 = modswitch %0\n  %2 = modswitch %1\n  %3 = negate %2\n  %4 = negate %3"
        {|
func f(%0: cipher "x") slots=4 {
  %1 = negate %0
  %2 = negate %1
  %3 = modswitch %1
  %4 = modswitch %2
  %5 = modswitch %4
  return %5
}
|} );
    ( "chain feeding outputs",
      early_modswitch_case ~physical:false
        ~expected:"  %1 = modswitch %0\n  %2 = rotate %1, 1\n  %3 = modswitch %2"
        {|
func f(%0: cipher "x") slots=4 {
  %1 = rotate %0, 1
  %2 = modswitch %1
  %3 = modswitch %2
  return %3, %2
}
|} );
    ( "encode absorbs two levels",
      early_modswitch_case ~physical:false
        ~expected:
          "  %1 = const 0x1p+1\n\
          \  %2 = encode %1, scale=0x1.4p+4, level=2\n\
          \  %3 = modswitch %0\n\
          \  %4 = modswitch %3\n\
          \  %5 = mul %4, %2"
        {|
func f(%0: cipher "x") slots=4 {
  %1 = const 0x1p+1
  %2 = encode %1, scale=0x1.4p+4, level=0
  %3 = modswitch %2
  %4 = modswitch %3
  %5 = modswitch %0
  %6 = modswitch %5
  %7 = mul %6, %4
  return %7
}
|} );
    (* The shape of SF's anneal candidates: the add absorbs two layers, and
       each absorption wraps both operands in turn. The wrappers come in
       the order their layers arrive, not operand by operand. The explicit
       modswitch keeps its provenance, the wrappers get none. *)
    ( "wrappers in absorption order",
      early_modswitch_case ~physical:false
        ~expected:
          "  %2 = modswitch %0\n\
          \  %3 = modswitch %2\n\
          \  %4 = modswitch %1\n\
          \  %5 = modswitch %3\n\
          \  %6 = modswitch %4\n\
          \  %7 = add %5, %6"
        {|
func f(%0: cipher "x", %1: cipher "y") slots=4 {
  %2 = modswitch %0  # !from gx > modswitch
  %3 = add %2, %1  # !from gx > add
  %4 = modswitch %3
  %5 = modswitch %4
  return %5
}
|} );
  ]

(* Random programs of any shape, typed or not: chains of explicit
   modswitches (shared, duplicated, dead, or feeding outputs), encodes and
   every absorbing kind, some ops with provenance. The pass must agree with
   the sweep on each. *)
let random_modswitch_prog seed =
  let st = Random.State.make [| seed |] in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let ops = ref [] and count = ref 0 in
  let add ?prov kind args =
    ops := { Prog.id = !count; kind; args; ty = Types.Free; prov } :: !ops;
    incr count;
    !count - 1
  in
  let inputs = List.init (1 + Random.State.int st 2) (fun i -> add (Prog.Input { name = Printf.sprintf "x%d" i }) [||]) in
  let any () = Random.State.int st !count in
  let size = 3 + Random.State.int st 25 in
  for _ = 1 to size do
    let prov =
      if Random.State.bool st then Some { Prog.label = Printf.sprintf "op%d" !count; context = [] }
      else None
    in
    match Random.State.int st 12 with
    | 0 | 1 | 2 | 3 | 4 -> ignore (add ?prov Prog.Modswitch [| any () |])
    | 5 -> ignore (add ?prov Prog.Add [| any (); any () |])
    | 6 -> ignore (add ?prov Prog.Mul [| any (); any () |])
    | 7 -> ignore (add ?prov (pick [ Prog.Negate; Prog.Rescale; Prog.Rotate { amount = 1 } ]) [| any () |])
    | 8 ->
        ignore
          (add ?prov
             (pick [ Prog.Upscale { target_scale = 40. }; Prog.Downscale { waterline = 20. } ])
             [| any () |])
    | 9 ->
        let c = add (Prog.Const { value = Prog.Scalar 2. }) [||] in
        ignore (add ?prov (Prog.Encode { scale = 20.; level = Random.State.int st 2 }) [| c |])
    | 10 -> ignore (add ?prov (Prog.Encode { scale = 20.; level = 0 }) [| any () |])
    | _ -> ignore (add ?prov Prog.Sub [| any (); any () |])
  done;
  let outputs = List.init (1 + Random.State.int st 3) (fun _ -> any ()) in
  { Prog.name = "r"; slot_count = 4; body = Array.of_list (List.rev !ops); inputs; outputs }

let prop_early_modswitch_matches_sweep =
  QCheck.Test.make ~name:"early-modswitch matches the sweep on random programs" ~count:2000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let p = random_modswitch_prog seed in
      match Modswitch_sweep.check ~input:p ~actual:(Passes.early_modswitch p) with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_reportf "seed %d: %s" seed msg)

let test_fold_rotations_chain () =
  (* a three-deep rotation chain collapses to one rotation *)
  let b = B.create ~slot_count:16 () in
  let x = B.input b "x" in
  B.output b (B.rotate b (B.rotate b (B.rotate b x 3) 5) 2);
  let p = Passes.fold_rotations (B.finish b) in
  check Alcotest.int "single op besides input/output" 2 (Prog.num_ops p);
  check Alcotest.bool "still valid" true (Result.is_ok (Prog.validate p));
  match (Prog.op p 1).Prog.kind with
  | Prog.Rotate { amount } -> check Alcotest.int "combined amount" 10 amount
  | _ -> Alcotest.fail "expected rotation"

let test_fold_rotations_cancel () =
  (* rotations summing to the slot count disappear entirely *)
  let b = B.create ~slot_count:16 () in
  let x = B.input b "x" in
  B.output b (B.add b (B.rotate b (B.rotate b x 7) 9) x);
  let p = Passes.fold_rotations (B.finish b) in
  let rotations =
    Array.fold_left
      (fun n (o : Prog.op) -> match o.Prog.kind with Prog.Rotate _ -> n + 1 | _ -> n)
      0 p.Prog.body
  in
  check Alcotest.int "no rotations left" 0 rotations

let test_fold_rotations_multiuse_blocked () =
  (* the inner rotation has another consumer: folding must not change it *)
  let b = B.create ~slot_count:16 () in
  let x = B.input b "x" in
  let r1 = B.rotate b x 3 in
  let r2 = B.rotate b r1 5 in
  B.output b (B.add b r1 r2);
  let p = Passes.fold_rotations (B.finish b) in
  check Alcotest.int "both rotations survive" 4 (Prog.num_ops p)

let test_fold_rotations_semantics () =
  (* semantics-preserving on a mixed program *)
  let b = B.create ~slot_count:8 () in
  let x = B.input b "x" in
  let e = B.add b (B.rotate b (B.rotate b x 2) 3) (B.rotate b x 5) in
  B.output b e;
  let p0 = B.finish b in
  let p1 = Passes.fold_rotations p0 in
  check Alcotest.bool "fewer ops" true (Prog.num_ops p1 < Prog.num_ops p0);
  (* after folding, both sides become rotate-by-5 and CSE can merge them *)
  let p2 = Passes.cse p1 in
  check Alcotest.int "cse merges equal rotations" 3 (Prog.num_ops p2)

(* ------------------------------------------------------------------ *)
(* Pass manager: registry, pipeline specs, fixpoint, instrumentation   *)
(* ------------------------------------------------------------------ *)

(* test-only passes, registered once at module load *)
let () =
  (* structurally broken: points an output past the last op *)
  Pass_manager.register "test-broken" (fun p ->
      { p with Prog.outputs = [ Prog.num_ops p ] });
  (* the no-op contract: hands back its input physically *)
  Pass_manager.register "test-identity" Fun.id;
  (* structurally fine but ill-typed: downscale where only rescale is legal *)
  Pass_manager.register "test-illtyped" (fun p ->
      {
        p with
        Prog.body =
          Array.map
            (fun (o : Prog.op) ->
              match o.Prog.kind with
              | Prog.Downscale _ -> { o with Prog.kind = Prog.Rescale }
              | _ -> o)
            p.Prog.body;
      })

let test_pm_registry () =
  let names = List.map (fun (p : Pass_manager.pass) -> p.Pass_manager.name) (Pass_manager.registered ()) in
  List.iter
    (fun n -> check Alcotest.bool ("registered: " ^ n) true (List.mem n names))
    [ "cse"; "dce"; "constant-fold"; "fold-rotations"; "early-modswitch" ];
  check Alcotest.bool "sorted" true (names = List.sort compare names);
  (match Pass_manager.find "cse" with
  | Some p -> check Alcotest.bool "described" true (String.length p.Pass_manager.description > 0)
  | None -> Alcotest.fail "cse not found");
  (match Pass_manager.register "cse" Fun.id with
  | () -> Alcotest.fail "duplicate registration must be rejected"
  | exception Invalid_argument _ -> ());
  match Pass_manager.register "Bad Name" Fun.id with
  | () -> Alcotest.fail "invalid name must be rejected"
  | exception Invalid_argument _ -> ()

let test_pm_spec_roundtrip () =
  List.iter
    (fun spec ->
      let p = Pass_manager.parse_exn spec in
      check Alcotest.string ("canonical: " ^ spec) spec (Pass_manager.to_string p);
      let p2 = Pass_manager.parse_exn (Pass_manager.to_string p) in
      check Alcotest.string ("round-trip: " ^ spec) (Pass_manager.to_string p)
        (Pass_manager.to_string p2))
    [
      "cse";
      "cse,constant-fold,dce";
      "cse,constant-fold,fixpoint(fold-rotations,dce)";
      "fixpoint(cse,early-modswitch,cse,constant-fold,dce)";
      "fixpoint(fixpoint(dce),cse)";
    ];
  (* whitespace-insensitive *)
  check Alcotest.string "whitespace normalized" "cse,fixpoint(dce)"
    (Pass_manager.to_string (Pass_manager.parse_exn " cse ,\n fixpoint( dce ) "))

let test_pm_spec_rejects () =
  let expect_error ~mentions spec =
    match Pass_manager.parse spec with
    | Ok _ -> Alcotest.failf "spec %S must be rejected" spec
    | Error msg ->
        List.iter
          (fun affix ->
            check Alcotest.bool
              (Printf.sprintf "%S error mentions %S (got: %s)" spec affix msg)
              true
              (Astring.String.is_infix ~affix msg))
          mentions
  in
  expect_error ~mentions:[ "frobnicate"; "known passes"; "cse" ] "cse,frobnicate,dce";
  expect_error ~mentions:[ "expected a pass name" ] "";
  expect_error ~mentions:[ "expected a pass name" ] "cse,,dce";
  expect_error ~mentions:[ "unclosed" ] "fixpoint(cse";
  expect_error ~mentions:[ "'('" ] "fixpoint";
  expect_error ~mentions:[ "trailing" ] "dce)"

let test_pm_runs_pipeline () =
  (* the full cleanup pipeline works end to end: dead code, duplicate muls
     and a rotation chain all disappear *)
  let b = B.create ~slot_count:16 () in
  let x = B.input b "x" in
  let _dead = B.mul b x x in
  let m1 = B.mul b x x in
  let m2 = B.mul b x x in
  let r = B.rotate b (B.rotate b (B.add b m1 m2) 3) 5 in
  B.output b r;
  let p = B.finish b in
  let p' = Pass_manager.run Pass_manager.cleanup p in
  check Alcotest.bool "valid" true (Result.is_ok (Prog.validate p'));
  (* input, mul, add, rotate(8) *)
  check Alcotest.int "fully cleaned" 4 (Prog.num_ops p');
  check Alcotest.bool "matches default_pipeline" true
    (Prog.equal p' (Pass_manager.default_pipeline p))

let test_pm_fixpoint_terminates_when_clean () =
  (* nested fixpoints on an already-clean program converge after one sweep *)
  let p = small_prog () in
  let pl = Pass_manager.parse_exn "fixpoint(fixpoint(cse,dce),fixpoint(fold-rotations,dce))" in
  let stats = Pass_manager.create_stats () in
  let p' = Pass_manager.run ~stats pl p in
  check Alcotest.bool "program unchanged" true (Prog.equal p p');
  (* inner fixpoint bodies ran exactly twice each: once to rewrite, once to
     observe convergence; the outer fixpoint adds one more converged sweep *)
  List.iter
    (fun (t : Pass_manager.timing) ->
      check Alcotest.bool
        (Printf.sprintf "%s ran a bounded number of times (%d)" t.Pass_manager.pass
           t.Pass_manager.runs)
        true
        (t.Pass_manager.runs <= 4))
    (Pass_manager.timings stats)

let test_pm_fold_rotations_multiuse_under_fixpoint () =
  (* the multi-use safety of fold-rotations holds under fixpoint iteration:
     no amount of re-running may fold a shared inner rotation *)
  let b = B.create ~slot_count:16 () in
  let x = B.input b "x" in
  let r1 = B.rotate b x 3 in
  let r2 = B.rotate b r1 5 in
  B.output b (B.add b r1 r2);
  let p = Pass_manager.run (Pass_manager.parse_exn "fixpoint(fold-rotations,dce)") (B.finish b) in
  check Alcotest.bool "valid" true (Result.is_ok (Prog.validate p));
  check Alcotest.int "both rotations survive" 4 (Prog.num_ops p)

let test_pm_timing_stats () =
  let b = B.create ~slot_count:4 () in
  let x = B.input b "x" in
  let _dead = B.mul b x x in
  B.output b (B.add b x x);
  let p = B.finish b in
  let stats = Pass_manager.create_stats () in
  ignore (Pass_manager.run ~stats Pass_manager.cleanup p);
  ignore (Pass_manager.run ~stats (Pass_manager.parse_exn "dce") p);
  let ts = Pass_manager.timings stats in
  let find name = List.find (fun (t : Pass_manager.timing) -> t.Pass_manager.pass = name) ts in
  check Alcotest.bool "cse timed" true ((find "cse").Pass_manager.runs >= 1);
  check Alcotest.bool "dce removed the dead mul" true ((find "dce").Pass_manager.ops_delta < 0);
  List.iter
    (fun (t : Pass_manager.timing) ->
      check Alcotest.bool (t.Pass_manager.pass ^ " non-negative time") true
        (t.Pass_manager.seconds >= 0.))
    ts;
  (* the verifier's time is kept apart from the pass rows *)
  check (Alcotest.float 0.) "no verifier, no validate time" 0.
    (Pass_manager.validate_seconds stats);
  ignore (Pass_manager.run ~instr:(Pass_manager.instrumentation ()) ~stats Pass_manager.cleanup p);
  check Alcotest.bool "validate time non-negative" true (Pass_manager.validate_seconds stats >= 0.);
  List.iter
    (fun (t : Pass_manager.timing) ->
      check Alcotest.bool (t.Pass_manager.pass ^ " is a pass") true
        (Pass_manager.find t.Pass_manager.pass <> None))
    (Pass_manager.timings stats)

let test_pm_verifier_names_broken_pass () =
  let p = small_prog () in
  let instr = Pass_manager.instrumentation () in
  match Pass_manager.run ~instr (Pass_manager.parse_exn "cse,test-broken,dce") p with
  | _ -> Alcotest.fail "broken pass must be caught by the inter-pass verifier"
  | exception Pass_manager.Pass_failed { pass; reason } ->
      check Alcotest.string "offending pass named" "test-broken" pass;
      check Alcotest.bool "structural diagnostic" true
        (Astring.String.is_infix ~affix:"out of range" reason)

(* The verifier skips a program it validated last, and only that one: an
   input a pass hands back unvalidated is checked, and a new invalid
   program after a skipped check is still caught. *)
let test_pm_verifier_skips_only_validated () =
  let instr = Pass_manager.instrumentation () in
  let p = small_prog () in
  check Alcotest.bool "no-op passes return the input" true
    (Pass_manager.run ~instr (Pass_manager.parse_exn "test-identity,test-identity") p == p);
  let broken = { p with Prog.outputs = [ Prog.num_ops p ] } in
  (match Pass_manager.run ~instr (Pass_manager.parse_exn "test-identity") broken with
  | _ -> Alcotest.fail "an invalid input handed back must still be verified"
  | exception Pass_manager.Pass_failed { pass; _ } ->
      check Alcotest.string "offending pass named" "test-identity" pass);
  match
    Pass_manager.run ~instr (Pass_manager.parse_exn "test-identity,test-identity,test-broken") p
  with
  | _ -> Alcotest.fail "a new invalid program must be verified"
  | exception Pass_manager.Pass_failed { pass; _ } ->
      check Alcotest.string "offending pass named" "test-broken" pass

let test_pm_typecheck_names_illtyped_pass () =
  let p = managed_prog () in
  let instr = Pass_manager.instrumentation ~typecheck:cfg () in
  (* sanity: the well-typed pipeline passes the same instrumentation *)
  ignore (Pass_manager.run ~instr (Pass_manager.parse_exn "cse") p);
  match Pass_manager.run ~instr (Pass_manager.parse_exn "test-illtyped") p with
  | _ -> Alcotest.fail "ill-typed rewrite must be caught"
  | exception Pass_manager.Pass_failed { pass; _ } ->
      check Alcotest.string "offending pass named" "test-illtyped" pass

let test_pm_dump_selector () =
  let dumped = ref [] in
  let instr =
    Pass_manager.instrumentation
      ~dump_after:(Pass_manager.Dump_passes [ "dce" ])
      ~dump:(fun ~pass p -> dumped := (pass, Prog.num_ops p) :: !dumped)
      ()
  in
  ignore (Pass_manager.run ~instr Pass_manager.cleanup (small_prog ()));
  check Alcotest.bool "only dce dumped" true
    (!dumped <> [] && List.for_all (fun (pass, _) -> pass = "dce") !dumped)

(* ------------------------------------------------------------------ *)
(* Liveness                                                            *)
(* ------------------------------------------------------------------ *)

let test_liveness_buffers () =
  (* a chain reuses one buffer pair; peak live stays small *)
  let b = B.create ~slot_count:4 () in
  let x = B.input b "x" in
  let rec chain v i = if i = 0 then v else chain (B.mul b v v) (i - 1) in
  B.output b (chain x 10);
  let p = B.finish b in
  let l = Liveness.analyze p in
  check Alcotest.bool "buffers reused" true (l.Liveness.buffer_count <= 3);
  check Alcotest.bool "peak small" true (l.Liveness.peak_live <= 3)

let test_liveness_outputs_live () =
  let p = small_prog () in
  let l = Liveness.analyze p in
  check Alcotest.int "output live to end" (Prog.num_ops p) l.Liveness.last_use.(4)

let test_liveness_wide_program () =
  (* n independent values all consumed at the end: peak = n + 1 *)
  let b = B.create ~slot_count:4 () in
  let x = B.input b "x" in
  let vs = List.init 6 (fun i -> B.rotate b x (i + 1)) in
  B.output b (List.fold_left (fun acc v -> B.add b acc v) x vs);
  let p = B.finish b in
  let l = Liveness.analyze p in
  check Alcotest.bool "peak reflects width" true (l.Liveness.peak_live >= 6)

let test_fusion_roles () =
  (* a fan over %0 with amounts 1, 2 and a repeat of 1; a product whose
     only use is its rescale (fused), one used twice and a
     cipher x plain one (both not fused) *)
  let p =
    Parser.parse
      {|
func f(%0: cipher "x") slots=4 {
  %1 = rotate %0, 1
  %2 = rotate %0, 2
  %3 = add %1, %2
  %4 = mul %3, %3
  %5 = rescale %4
  %6 = rotate %0, 1
  %7 = mul %3, %3
  %8 = rescale %7
  %9 = add %7, %7
  %10 = const 2.0
  %11 = encode %10, scale=20, level=0
  %12 = mul %3, %11
  %13 = rescale %12
  %14 = modswitch %6
  %15 = add %5, %14
  %16 = add %15, %8
  return %16, %9, %13
}
|}
  in
  ignore (Typing.check_exn (Typing.config ~sf:20. ~waterline:20. ()) p);
  let roles = Fusion.analyze p in
  let role =
    Alcotest.testable
      (fun fmt -> function
        | Fusion.Single -> Format.pp_print_string fmt "single"
        | Fusion.Fused_mul -> Format.pp_print_string fmt "fused-mul"
        | Fusion.Fused_rescale -> Format.pp_print_string fmt "fused-rescale"
        | Fusion.Fan_head a ->
            Format.fprintf fmt "fan-head [%s]" (String.concat ";" (List.map string_of_int a))
        | Fusion.Fan_member -> Format.pp_print_string fmt "fan-member")
      ( = )
  in
  check role "fan head, amounts in first-use order" (Fusion.Fan_head [ 1; 2 ]) roles.(1);
  check role "fan member" Fusion.Fan_member roles.(2);
  check role "repeated amount is a member" Fusion.Fan_member roles.(6);
  check role "sole-use product" Fusion.Fused_mul roles.(4);
  check role "its rescale" Fusion.Fused_rescale roles.(5);
  check role "product used twice" Fusion.Single roles.(7);
  check role "rescale of a shared product" Fusion.Single roles.(8);
  check role "cipher x plain product" Fusion.Single roles.(12);
  check role "rescale of a plain product" Fusion.Single roles.(13)

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                         *)
(* ------------------------------------------------------------------ *)

let test_diagnostic_codes () =
  let code = Alcotest.testable (Fmt.of_to_string Diagnostic.code_name) ( = ) in
  check code "C2 on rescale" Diagnostic.Below_waterline
    (infer_err_code Prog.Rescale [| cipher 40. 0 |]);
  check code "C3 levels" Diagnostic.Level_mismatch
    (infer_err_code Prog.Add [| cipher 20. 0; cipher 20. 1 |]);
  check code "C3 scales" Diagnostic.Scale_mismatch
    (infer_err_code Prog.Add [| cipher 20. 0; cipher 48. 0 |]);
  check code "mul levels" Diagnostic.Level_mismatch
    (infer_err_code Prog.Mul [| cipher 20. 0; cipher 20. 1 |]);
  check code "upscale shrinks" Diagnostic.Bad_upscale
    (infer_err_code (Prog.Upscale { target_scale = 10. }) [| cipher 20. 0 |]);
  check code "redundant downscale" Diagnostic.Redundant_op
    (infer_err_code (Prog.Downscale { waterline = 20. }) [| cipher 20. 0 |]);
  check code "operand kind" Diagnostic.Operand_kind
    (infer_err_code Prog.Rescale [| plain 48. 0 |]);
  check code "arity" Diagnostic.Arity (infer_err_code Prog.Add [| cipher 20. 0 |]);
  let c1 = Typing.config ~sf:28. ~waterline:20. ~max_log_q:100. () in
  (match Typing.infer c1 Prog.Mul [| cipher 45. 1; cipher 45. 1 |] with
  | Ok _ -> Alcotest.fail "expected C1 violation"
  | Error d -> check code "C1 overflow" Diagnostic.Scale_overflow d.Diagnostic.code);
  (* kebab-case names are a stable contract (JSON output, repro headers) *)
  List.iter
    (fun c ->
      match Diagnostic.code_of_name (Diagnostic.code_name c) with
      | Some c' -> check code "code_name roundtrip" c c'
      | None -> Alcotest.failf "code %s does not round-trip" (Diagnostic.code_name c))
    [
      Diagnostic.Parse_error;
      Diagnostic.Invalid_program;
      Diagnostic.Operand_kind;
      Diagnostic.Scale_overflow;
      Diagnostic.Below_waterline;
      Diagnostic.Level_mismatch;
      Diagnostic.Scale_mismatch;
      Diagnostic.Level_exceeded;
      Diagnostic.Bad_upscale;
      Diagnostic.Bad_downscale;
      Diagnostic.Redundant_op;
      Diagnostic.Output_not_cipher;
      Diagnostic.Arity;
      Diagnostic.Precondition;
      Diagnostic.Already_managed;
      Diagnostic.Internal;
    ];
  check (Alcotest.option code) "unknown name" None (Diagnostic.code_of_name "no-such-code")

let test_check_fills_context () =
  (* an ill-typed op inside a provenance scope: the checker must name the op,
     its kind, operand types, and the surface chain *)
  let b = B.create ~name:"ill" ~slot_count:4 () in
  let x = B.input b "x" in
  let m = B.mul b x x in
  let deep =
    B.in_scope b "dot product" (fun () -> B.in_scope b "mul" (fun () -> B.mul b m m))
  in
  B.output b deep;
  let p = B.finish b in
  let cfg = Typing.config ~sf:28. ~waterline:20. ~max_log_q:60. () in
  match Typing.check cfg p with
  | Ok _ -> Alcotest.fail "expected C1 failure"
  | Error d ->
      check Alcotest.(option int) "op id" (Some 2) d.Diagnostic.op;
      check Alcotest.(option string) "op kind" (Some "mul") d.Diagnostic.op_kind;
      check Alcotest.int "operand types recorded" 2 (List.length d.Diagnostic.operand_types);
      (match d.Diagnostic.provenance with
      | Some prov ->
          check Alcotest.string "label" "mul" prov.Prog.label;
          check Alcotest.(list string) "context" [ "dot product" ] prov.Prog.context
      | None -> Alcotest.fail "diagnostic lacks provenance");
      check Alcotest.string "legacy prefix intact" "op 2: "
        (String.sub (Diagnostic.to_string d) 0 6);
      (* pretty and JSON renderings carry the code and the chain *)
      let pretty = Format.asprintf "%a" Diagnostic.pp d in
      check Alcotest.bool "pretty names code" true
        (Astring.String.is_infix ~affix:"error[scale-overflow]" pretty);
      check Alcotest.bool "pretty names chain" true
        (Astring.String.is_infix ~affix:"dot product > mul" pretty);
      let json = Diagnostic.to_json d in
      check Alcotest.bool "json code" true
        (Astring.String.is_infix ~affix:"\"code\":\"scale-overflow\"" json);
      check Alcotest.bool "json provenance" true
        (Astring.String.is_infix ~affix:"\"dot product\",\"mul\"" json)

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)
(* ------------------------------------------------------------------ *)

let prov_prog () =
  let b = B.create ~name:"p" ~slot_count:8 () in
  let x = B.input b "x" in
  let m = B.in_scope b "square" (fun () -> B.mul b x x) in
  let r = B.in_scope b "outer" (fun () -> B.in_scope b "inner step" (fun () -> B.rotate b m 1)) in
  B.output b (B.add b m r);
  B.finish b

let test_provenance_recorded () =
  let p = prov_prog () in
  check Alcotest.(option string) "no scope, no prov" None
    (Option.map (fun pr -> pr.Prog.label) (Prog.op p 0).Prog.prov);
  (match (Prog.op p 1).Prog.prov with
  | Some pr ->
      check Alcotest.string "label" "square" pr.Prog.label;
      check Alcotest.(list string) "flat context" [] pr.Prog.context
  | None -> Alcotest.fail "scoped op lacks provenance");
  match (Prog.op p 2).Prog.prov with
  | Some pr ->
      check Alcotest.string "nested label" "inner step" pr.Prog.label;
      check Alcotest.(list string) "nested context" [ "outer" ] pr.Prog.context
  | None -> Alcotest.fail "nested scoped op lacks provenance"

let test_provenance_roundtrip () =
  let p = prov_prog () in
  (* default printing is provenance-free: golden pins and reproducers keep
     their byte-exact format *)
  check Alcotest.bool "default printing unchanged" false
    (Astring.String.is_infix ~affix:"!from" (Printer.to_string p));
  let text = Printer.to_string ~provenance:true p in
  check Alcotest.bool "comments emitted" true
    (Astring.String.is_infix ~affix:"# !from outer > inner step" text);
  let p' = Parser.parse text in
  check Alcotest.bool "structurally equal" true (Prog.equal p p');
  for i = 0 to Prog.num_ops p - 1 do
    match ((Prog.op p i).Prog.kind, (Prog.op p i).Prog.prov, (Prog.op p' i).Prog.prov) with
    | Prog.Input _, _, _ -> () (* signature line carries no comment *)
    | _, Some a, Some b ->
        check Alcotest.string (Printf.sprintf "op %d label" i) a.Prog.label b.Prog.label;
        check Alcotest.(list string) (Printf.sprintf "op %d context" i) a.Prog.context
          b.Prog.context
    | _, None, None -> ()
    | _, Some _, None -> Alcotest.failf "op %d lost provenance in roundtrip" i
    | _, None, Some _ -> Alcotest.failf "op %d gained provenance in roundtrip" i
  done;
  (* plain comments and headers never turn into provenance *)
  let p'' = Parser.parse (Printer.to_string p) in
  check Alcotest.bool "no spurious provenance" true
    (Array.for_all (fun (o : Prog.op) -> o.Prog.prov = None) p''.Prog.body)

let test_provenance_survives_passes () =
  let p = prov_prog () in
  let q = Passes.cse (Passes.dce p) in
  let labels prog =
    Array.to_list prog.Prog.body
    |> List.filter_map (fun (o : Prog.op) -> Option.map (fun pr -> pr.Prog.label) o.Prog.prov)
  in
  check Alcotest.(list string) "labels preserved" (labels p) (labels q)

let () =
  Alcotest.run "hecate_ir"
    [
      ( "types",
        [ Alcotest.test_case "basics" `Quick test_types_basics ] );
      ( "typing-rules",
        [
          Alcotest.test_case "rescale (Table I)" `Quick test_rule_rescale;
          Alcotest.test_case "rescale cipher-only" `Quick test_rule_rescale_cipher_only;
          Alcotest.test_case "modswitch (Table I)" `Quick test_rule_modswitch;
          Alcotest.test_case "downscale (Table I)" `Quick test_rule_downscale;
          Alcotest.test_case "upscale (Eq. 5)" `Quick test_rule_upscale;
          Alcotest.test_case "mul (Eq. 1)" `Quick test_rule_mul;
          Alcotest.test_case "add (Eq. 2)" `Quick test_rule_add;
          Alcotest.test_case "encode" `Quick test_rule_encode;
          Alcotest.test_case "C1 enforcement" `Quick test_rule_c1;
          Alcotest.test_case "level bound" `Quick test_rule_level_bound;
          qtest prop_downscale_rescale_disjoint;
        ] );
      ( "prog",
        [
          Alcotest.test_case "structure" `Quick test_prog_structure;
          Alcotest.test_case "use counts" `Quick test_prog_use_counts;
          Alcotest.test_case "users" `Quick test_prog_users;
          Alcotest.test_case "validate rejects" `Quick test_validate_rejects;
          Alcotest.test_case "validate input list" `Quick test_validate_input_list;
          Alcotest.test_case "structural equality" `Quick test_prog_equal;
          Alcotest.test_case "builder output required" `Quick test_builder_rejects_no_output;
          Alcotest.test_case "rewriter contracts" `Quick test_rewriter_contracts;
        ] );
      ( "text",
        [
          Alcotest.test_case "parse" `Quick test_parse_basic;
          Alcotest.test_case "parse + typecheck" `Quick test_parse_typecheck;
          Alcotest.test_case "print/parse roundtrip" `Quick test_print_parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "comments and vectors" `Quick test_parse_comments_and_vectors;
        ] );
      ( "passes",
        [
          Alcotest.test_case "dce" `Quick test_dce;
          Alcotest.test_case "cse" `Quick test_cse;
          Alcotest.test_case "cse inputs distinct" `Quick test_cse_keeps_distinct_inputs;
          Alcotest.test_case "cse vector tails" `Quick test_cse_vector_tails;
          Alcotest.test_case "cse float classes" `Quick test_cse_float_classes;
          Alcotest.test_case "cse float attributes" `Quick test_cse_float_attributes;
          Alcotest.test_case "constant fold" `Quick test_constant_fold;
          Alcotest.test_case "constant fold rotate" `Quick test_constant_fold_rotate;
          Alcotest.test_case "early modswitch" `Quick test_early_modswitch;
          Alcotest.test_case "early modswitch blocked" `Quick test_early_modswitch_multiuse_blocked;
          Alcotest.test_case "early modswitch deep chain" `Quick test_early_modswitch_deep_chain;
          Alcotest.test_case "early modswitch shared operand" `Quick
            test_early_modswitch_shared_operand;
          Alcotest.test_case "finalize fixpoint deep chain" `Quick
            test_finalize_fixpoint_deep_chain;
          qtest prop_early_modswitch_matches_sweep;
          Alcotest.test_case "fold rotations chain" `Quick test_fold_rotations_chain;
          Alcotest.test_case "fold rotations cancel" `Quick test_fold_rotations_cancel;
          Alcotest.test_case "fold rotations multiuse" `Quick test_fold_rotations_multiuse_blocked;
          Alcotest.test_case "fold rotations semantics" `Quick test_fold_rotations_semantics;
        ] );
      (* Suite names stay within 12 characters: Alcotest sizes its name
         column to the longest one and cuts test names to fit. *)
      ( "em-oracle",
        List.map (fun (name, f) -> Alcotest.test_case name `Quick f) em_cases );
      ( "pass-manager",
        [
          Alcotest.test_case "registry" `Quick test_pm_registry;
          Alcotest.test_case "spec round-trip" `Quick test_pm_spec_roundtrip;
          Alcotest.test_case "spec rejects" `Quick test_pm_spec_rejects;
          Alcotest.test_case "cleanup pipeline" `Quick test_pm_runs_pipeline;
          Alcotest.test_case "nested fixpoint terminates" `Quick
            test_pm_fixpoint_terminates_when_clean;
          Alcotest.test_case "fold-rotations multiuse under fixpoint" `Quick
            test_pm_fold_rotations_multiuse_under_fixpoint;
          Alcotest.test_case "timing stats" `Quick test_pm_timing_stats;
          Alcotest.test_case "verifier names broken pass" `Quick
            test_pm_verifier_names_broken_pass;
          Alcotest.test_case "verifier skips only validated" `Quick
            test_pm_verifier_skips_only_validated;
          Alcotest.test_case "typecheck names ill-typed pass" `Quick
            test_pm_typecheck_names_illtyped_pass;
          Alcotest.test_case "dump selector" `Quick test_pm_dump_selector;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "codes per rule" `Quick test_diagnostic_codes;
          Alcotest.test_case "check fills context" `Quick test_check_fills_context;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "builder scopes" `Quick test_provenance_recorded;
          Alcotest.test_case "print/parse roundtrip" `Quick test_provenance_roundtrip;
          Alcotest.test_case "survives passes" `Quick test_provenance_survives_passes;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "buffer reuse" `Quick test_liveness_buffers;
          Alcotest.test_case "outputs live" `Quick test_liveness_outputs_live;
          Alcotest.test_case "wide program" `Quick test_liveness_wide_program;
        ] );
      ("fusion", [ Alcotest.test_case "roles" `Quick test_fusion_roles ]);
    ]
