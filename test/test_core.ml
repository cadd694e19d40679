(* Tests for the hecate core: code generation (EVA waterline vs PARS), SMU
   generation (Algorithm 1, Fig. 6), the explorer, parameter selection and
   the estimator. *)

module Types = Hecate_ir.Types
module Prog = Hecate_ir.Prog
module Typing = Hecate_ir.Typing
module B = Prog.Builder
module Codegen = Hecate.Codegen
module Smu = Hecate.Smu
module Explore = Hecate.Explore
module Estimator = Hecate.Estimator
module Paramselect = Hecate.Paramselect
module Costmodel = Hecate.Costmodel
module Driver = Hecate.Driver
module Select = Hecate.Select

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let cfg = Typing.config ~sf:28. ~waterline:20. ()
let ty = Alcotest.testable Types.pp Types.equal
let cipher scale level = Types.Cipher { Types.scale; level }

(* the running example of the paper: (x^2 + y^2)^3 *)
let fig2 () =
  let b = B.create ~name:"fig2" ~slot_count:8 () in
  let x = B.input b "x" and y = B.input b "y" in
  let z = B.add b (B.mul b x x) (B.mul b y y) in
  B.output b (B.mul b (B.mul b z z) z);
  B.finish b

let kinds p = Array.map (fun (o : Prog.op) -> Prog.kind_name o.Prog.kind) p.Prog.body
let count_kind p name = Array.fold_left (fun n k -> if k = name then n + 1 else n) 0 (kinds p)

let output_ty p =
  ignore (Typing.check_exn cfg p);
  (Prog.op p (List.hd p.Prog.outputs)).Prog.ty

(* the type of every op, as a successful check leaves them *)
let checked_types cfg p =
  Typing.check_exn cfg p;
  Array.map (fun (o : Prog.op) -> o.Prog.ty) p.Prog.body

(* ------------------------------------------------------------------ *)
(* Code generation                                                     *)
(* ------------------------------------------------------------------ *)

let test_eva_fig2 () =
  (* EVA (Fig. 2a): reactive rescale after z^2, modswitch on z *)
  let p = Codegen.waterline cfg (fig2 ()) in
  ignore (Typing.check_exn cfg p);
  check Alcotest.bool "uses rescale" true (count_kind p "rescale" > 0);
  check Alcotest.bool "uses modswitch" true (count_kind p "modswitch" > 0);
  check Alcotest.int "never downscales" 0 (count_kind p "downscale")

let test_pars_fig2 () =
  (* PARS (Fig. 2c): proactive downscale of z, both cubing muls at level 1,
     cumulative scale 2^60. Raw PARS emits one downscale per use; CSE merges
     them into the single shared downscale of the paper's plan. *)
  let p = Hecate_ir.Passes.cse (Codegen.pars cfg (fig2 ())) in
  check ty "result is cipher<60,1>" (cipher 60. 1) (output_ty p);
  check Alcotest.int "exactly one downscale" 1 (count_kind p "downscale")

let test_pars_lower_peak_than_eva () =
  (* PARS reaches a chain at most as long as EVA's on the running example *)
  let types_of p = checked_types cfg p in
  let eva = Paramselect.select ~sf_bits:28 ~types:(types_of (Codegen.waterline cfg (fig2 ()))) ~slot_count:8 () in
  let pars = Paramselect.select ~sf_bits:28 ~types:(types_of (Codegen.pars cfg (fig2 ()))) ~slot_count:8 () in
  check Alcotest.bool "chain not longer" true
    (pars.Paramselect.chain_levels <= eva.Paramselect.chain_levels)

let test_codegen_rejects_managed_input () =
  let p = Codegen.pars cfg (fig2 ()) in
  (match Codegen.pars cfg p with
  | _ -> Alcotest.fail "expected rejection of an already-managed program"
  | exception Hecate_ir.Diagnostic.Error d ->
      check Alcotest.string "code" "already-managed" (Hecate_ir.Diagnostic.code_name d.Hecate_ir.Diagnostic.code));
  (* the driver rejects managed inputs for every scheme, exploring ones
     included, with the same structured code *)
  List.iter
    (fun scheme ->
      match Driver.diagnose (fun () -> Driver.compile scheme ~sf_bits:28 ~waterline_bits:20. p) with
      | Ok _ -> Alcotest.fail "driver accepted a managed program"
      | Error d ->
          check Alcotest.string "driver code" "already-managed"
            (Hecate_ir.Diagnostic.code_name d.Hecate_ir.Diagnostic.code))
    Driver.all_schemes

let test_codegen_free_operands () =
  (* const * cipher and const + cipher get encoded plaintexts *)
  let b = B.create ~slot_count:8 () in
  let x = B.input b "x" in
  let scaled = B.mul b x (B.const_scalar b 0.5) in
  B.output b (B.add b scaled (B.const_scalar b 1.)) ;
  let src = B.finish b in
  List.iter
    (fun gen ->
      let p = gen cfg ?hook:None src in
      ignore (Typing.check_exn cfg p);
      check Alcotest.bool "has encodes" true (count_kind p "encode" >= 2))
    [ Codegen.waterline; (fun cfg ?hook p -> Codegen.pars cfg ?hook p) ]

let test_codegen_deep_chain () =
  (* x^16 by repeated squaring: every squaring forces a rescale eventually;
     both schemes must produce typable code with levels increasing *)
  let b = B.create ~slot_count:8 () in
  let x = B.input b "x" in
  let rec sq v i = if i = 0 then v else sq (B.mul b v v) (i - 1) in
  B.output b (sq x 4);
  let src = B.finish b in
  List.iter
    (fun gen ->
      let p = gen cfg ?hook:None src in
      let t = output_ty p in
      check Alcotest.bool "level grew" true (Types.level_exn t >= 2);
      check Alcotest.bool "scale above waterline" true (Types.scale_exn t >= 20. -. 1e-6))
    [ Codegen.waterline; (fun cfg ?hook p -> Codegen.pars cfg ?hook p) ]

let test_codegen_rotation_passthrough () =
  let b = B.create ~slot_count:8 () in
  let x = B.input b "x" in
  B.output b (B.add b (B.rotate b x 1) x);
  let src = B.finish b in
  let p = Codegen.pars cfg src in
  check ty "rotate preserves type" (cipher 20. 0) (output_ty p)

let test_codegen_hook_forces_ops () =
  (* forcing one op on each mul operand must still typecheck *)
  let hook ~op_id:_ ~operand:_ = 1 in
  let p = Codegen.pars cfg ~hook (fig2 ()) in
  ignore (Typing.check_exn cfg p);
  check Alcotest.bool "extra management ops present" true
    (count_kind p "downscale" + count_kind p "modswitch" + count_kind p "rescale" > 1)

let test_pars_downscale_analysis_trigger () =
  (* two fresh inputs multiply at 20+20=40 <= 28+40: no pre-downscale; but
     values at scale 40 multiply at 80 > 68: pre-downscale fires *)
  let b = B.create ~slot_count:8 () in
  let x = B.input b "x" and y = B.input b "y" in
  let xy = B.mul b x y in (* scale 40 *)
  let xy2 = B.mul b xy xy in (* would be 80 *)
  B.output b xy2;
  let p = Codegen.pars cfg (B.finish b) in
  check Alcotest.bool "pre-downscale fired" true (count_kind p "downscale" >= 1);
  ignore (Typing.check_exn cfg p)

(* ------------------------------------------------------------------ *)
(* SMU generation                                                       *)
(* ------------------------------------------------------------------ *)

let test_smu_fig6 () =
  (* Fig. 6: (x^2 + y^2) * z ends with units {x,y}, {z}, {x2,y2}, {x2+y2},
     {(x2+y2)z} — 5 units *)
  let b = B.create ~slot_count:8 () in
  let x = B.input b "x" and y = B.input b "y" and z = B.input b "z" in
  let x2 = B.mul b x x and y2 = B.mul b y y in
  let s = B.add b x2 y2 in
  B.output b (B.mul b s z);
  let p = B.finish b in
  let smu = Smu.generate p in
  check Alcotest.int "five units" 5 (Smu.unit_count smu);
  let unit_of v = smu.Smu.unit_of.(v) in
  check Alcotest.int "x and y together" (unit_of 0) (unit_of 1);
  check Alcotest.bool "z separate" true (unit_of 2 <> unit_of 0);
  check Alcotest.int "x2 and y2 together (definition merge)" (unit_of 3) (unit_of 4);
  check Alcotest.bool "x2+y2 split from x2 (operation split)" true (unit_of 5 <> unit_of 3)

let test_smu_rotation_stays () =
  (* rotations do not change scale: parallel rotations consumed by the same
     unit stay grouped with their source through the user-aware split *)
  let b = B.create ~slot_count:8 () in
  let x = B.input b "x" in
  let r1 = B.rotate b x 1 in
  let r2 = B.rotate b x 2 in
  B.output b (B.mul b (B.add b r1 r2) x);
  let smu = Smu.generate (B.finish b) in
  check Alcotest.int "parallel rotations grouped" smu.Smu.unit_of.(1) smu.Smu.unit_of.(2)

let test_smu_edges_fewer_than_uses () =
  let bench = fig2 () in
  let smu = Smu.generate bench in
  check Alcotest.bool "edge reduction" true (Smu.edge_count smu <= smu.Smu.use_def_edges);
  check Alcotest.bool "uses counted" true (smu.Smu.use_def_edges >= 6)

let test_smu_plain_addition_merges () =
  (* cipher + const stays in the cipher's unit (definition-aware merge);
     parallel plain additions with the same consumer remain grouped *)
  let b = B.create ~slot_count:8 () in
  let x = B.input b "x" in
  let y = B.add b x (B.const_scalar b 1.) in
  let z = B.add b x (B.const_scalar b 2.) in
  B.output b (B.mul b y z);
  let smu = Smu.generate (B.finish b) in
  check Alcotest.int "parallel plain adds grouped" smu.Smu.unit_of.(2) smu.Smu.unit_of.(4)

let test_smu_naive_edges () =
  let bench = fig2 () in
  let smu = Smu.generate bench in
  let naive = Smu.naive_edges bench in
  check Alcotest.int "one edge per use" smu.Smu.use_def_edges (Array.length naive);
  Array.iter (fun (e : Smu.edge) -> check Alcotest.int "single site" 1 (List.length e.Smu.sites)) naive

let prop_smu_partition =
  (* units partition exactly the ciphertext values; edges reference units *)
  QCheck.Test.make ~name:"SMU units partition cipher values" ~count:30
    QCheck.(int_bound 1000)
    (fun seed ->
      (* little random DAG *)
      let g = Hecate_support.Prng.create ~seed in
      let b = B.create ~slot_count:16 () in
      let x = B.input b "x" and y = B.input b "y" in
      let pool = ref [ x; y ] in
      let pick () = List.nth !pool (Hecate_support.Prng.int_below g (List.length !pool)) in
      for _ = 1 to 8 + Hecate_support.Prng.int_below g 8 do
        let v = pick () and w = pick () in
        let node =
          match Hecate_support.Prng.int_below g 4 with
          | 0 -> B.add b v w
          | 1 -> B.mul b v w
          | 2 -> B.rotate b v (1 + Hecate_support.Prng.int_below g 7)
          | _ -> B.mul b v (B.const_scalar b 0.5)
        in
        pool := node :: !pool
      done;
      B.output b (List.hd !pool);
      let p = B.finish b in
      let smu = Smu.generate p in
      (* each unit id appears once; members are disjoint and cover exactly
         the values with unit_of >= 0 *)
      let seen = Hashtbl.create 16 in
      let ok = ref true in
      List.iter
        (fun (u, members) ->
          List.iter
            (fun v ->
              if Hashtbl.mem seen v then ok := false;
              Hashtbl.replace seen v ();
              if smu.Smu.unit_of.(v) <> u then ok := false)
            members)
        smu.Smu.units;
      Array.iteri
        (fun v u ->
          match u with
          | -1 -> if Hashtbl.mem seen v then ok := false
          | _ -> if not (Hashtbl.mem seen v) then ok := false)
        smu.Smu.unit_of;
      Array.iter
        (fun (e : Smu.edge) ->
          if e.Smu.src = e.Smu.dst then ok := false;
          if e.Smu.sites = [] then ok := false)
        smu.Smu.edges;
      !ok)

let test_smu_deterministic () =
  let p = (Hecate_apps.Apps.sobel ~size:8 ()).Hecate_apps.Apps.prog in
  let a = Smu.generate p and b = Smu.generate p in
  check Alcotest.(array int) "same unit assignment" a.Smu.unit_of b.Smu.unit_of

(* ------------------------------------------------------------------ *)
(* Parameter selection                                                  *)
(* ------------------------------------------------------------------ *)

let test_paramselect_basic () =
  let types = [| cipher 20. 0; cipher 40. 1; cipher 20. 2 |] in
  let p = Paramselect.select ~sf_bits:28 ~types ~slot_count:64 () in
  (* scale 40 + margin 6 at level 1: 46 <= 30 + (L-1)*28 -> L >= 1.57 -> 2 *)
  check Alcotest.int "levels" 2 p.Paramselect.chain_levels;
  check (Alcotest.float 1e-9) "log q" (30. +. 56.) p.Paramselect.log_q;
  check Alcotest.int "primes at level 1" 2 (Paramselect.num_primes_at p ~level:1)

let test_paramselect_scales_with_depth () =
  let shallow = Paramselect.select ~sf_bits:28 ~types:[| cipher 20. 1 |] ~slot_count:8 () in
  let deep = Paramselect.select ~sf_bits:28 ~types:[| cipher 20. 9 |] ~slot_count:8 () in
  check Alcotest.bool "deeper needs more" true
    (deep.Paramselect.chain_levels > shallow.Paramselect.chain_levels);
  check Alcotest.bool "secure degree grows" true
    (deep.Paramselect.secure_n >= shallow.Paramselect.secure_n)

let test_paramselect_c1_headroom () =
  (* every scale must fit under the remaining modulus at its level *)
  let types = [| cipher 75. 0; cipher 47. 1 |] in
  let p = Paramselect.select ~sf_bits:28 ~types ~slot_count:8 () in
  Array.iter
    (fun t ->
      let s = Option.get (Types.scaled_of t) in
      let remaining =
        float_of_int p.Paramselect.q0_bits
        +. float_of_int ((p.Paramselect.chain_levels - s.Types.level) * p.Paramselect.sf_bits)
      in
      check Alcotest.bool "headroom" true (s.Types.scale +. 6. <= remaining +. 1e-9))
    types

(* ------------------------------------------------------------------ *)
(* Estimator                                                            *)
(* ------------------------------------------------------------------ *)

let model = Costmodel.analytic ()

let test_cost_monotone_in_primes () =
  List.iter
    (fun cls ->
      let c1 = model.Costmodel.cost cls ~num_primes:2 ~n:4096 in
      let c2 = model.Costmodel.cost cls ~num_primes:8 ~n:4096 in
      check Alcotest.bool (Costmodel.class_name cls ^ " grows with primes") true (c2 > c1))
    Costmodel.classes

let test_cost_monotone_in_degree () =
  List.iter
    (fun cls ->
      let c1 = model.Costmodel.cost cls ~num_primes:4 ~n:1024 in
      let c2 = model.Costmodel.cost cls ~num_primes:4 ~n:8192 in
      check Alcotest.bool (Costmodel.class_name cls ^ " grows with degree") true (c2 > c1))
    Costmodel.classes

let test_cost_mul_quadratic () =
  (* key switching makes cipher mul superlinear in the prime count *)
  let c l = model.Costmodel.cost Costmodel.Cipher_mul ~num_primes:l ~n:4096 in
  check Alcotest.bool "superlinear" true (c 16 /. c 8 > 2.5)

let test_cost_level_speedup_factor () =
  (* the paper's observation: level-1 mul is about 2.25x faster than level-0
     at an 11-prime chain; our structural model shows a clear speedup too *)
  let l0 = model.Costmodel.cost Costmodel.Cipher_mul ~num_primes:11 ~n:16384 in
  let l1 = model.Costmodel.cost Costmodel.Cipher_mul ~num_primes:10 ~n:16384 in
  check Alcotest.bool "higher level cheaper" true (l0 /. l1 > 1.1)

let test_estimate_fig2_pars_cheaper () =
  let run gen =
    let p = gen cfg ?hook:None (fig2 ()) in
    let types = checked_types cfg p in
    let params = Paramselect.select ~sf_bits:28 ~types ~slot_count:8 () in
    Estimator.estimate ~model ~params ~n:8192 p
  in
  check Alcotest.bool "pars estimated faster" true
    (run (fun cfg ?hook p -> Codegen.pars cfg ?hook p) < run Codegen.waterline)

let test_estimate_requires_types () =
  let p = fig2 () in
  (* unmanaged program: mul operands are untyped (Free) *)
  let params = Paramselect.select ~sf_bits:28 ~types:[| cipher 20. 0 |] ~slot_count:8 () in
  match Estimator.estimate ~model ~params ~n:1024 p with
  | _ -> Alcotest.fail "expected failure on untyped ops"
  | exception Invalid_argument _ -> ()

let test_table_model_overrides () =
  let table = Hashtbl.create 4 in
  Hashtbl.replace table (Costmodel.Cipher_mul, 3, 1024) 42.;
  let m = Costmodel.of_table table ~fallback:model in
  check (Alcotest.float 0.) "measured value used" 42.
    (m.Costmodel.cost Costmodel.Cipher_mul ~num_primes:3 ~n:1024);
  (* unmeasured prime count: rescaled from the nearest measurement *)
  let extrapolated = m.Costmodel.cost Costmodel.Cipher_mul ~num_primes:4 ~n:1024 in
  let shape3 = model.Costmodel.cost Costmodel.Cipher_mul ~num_primes:3 ~n:1024 in
  let shape4 = model.Costmodel.cost Costmodel.Cipher_mul ~num_primes:4 ~n:1024 in
  check (Alcotest.float 1e-6) "shape-scaled" (42. *. shape4 /. shape3) extrapolated

let test_table_model_tie_deterministic () =
  (* measurements at 2 and 6 primes are equidistant from a query at 4; the
     smaller prime count must win regardless of table insertion order *)
  let expected =
    let shape2 = model.Costmodel.cost Costmodel.Cipher_mul ~num_primes:2 ~n:1024 in
    let shape4 = model.Costmodel.cost Costmodel.Cipher_mul ~num_primes:4 ~n:1024 in
    7. *. shape4 /. shape2
  in
  List.iter
    (fun entries ->
      let table = Hashtbl.create 4 in
      List.iter (fun (l, t) -> Hashtbl.replace table (Costmodel.Cipher_mul, l, 1024) t) entries;
      let m = Costmodel.of_table table ~fallback:model in
      check (Alcotest.float 1e-9) "smaller prime count wins ties" expected
        (m.Costmodel.cost Costmodel.Cipher_mul ~num_primes:4 ~n:1024))
    [ [ (2, 7.); (6, 13.) ]; [ (6, 13.); (2, 7.) ] ]

(* [instr]'s charges priced at [level], summed in the order they are listed *)
let priced ~params ~n level instr =
  List.fold_left
    (fun acc (cls, count) ->
      let num_primes = Paramselect.num_primes_at params ~level in
      acc +. (float_of_int count *. model.Costmodel.cost cls ~num_primes ~n))
    0. (Select.charges instr)

let test_estimate_additive () =
  (* the program estimate is exactly the sum of the selected instructions'
     priced charges *)
  let p = Codegen.pars cfg (fig2 ()) in
  let types = checked_types cfg p in
  let params = Paramselect.select ~sf_bits:28 ~types ~slot_count:8 () in
  let total = Estimator.estimate ~model ~params ~n:2048 p in
  let s = Select.select p in
  let by_hand = ref 0. in
  Array.iteri
    (fun k i ->
      if Select.charges i <> [] then
        by_hand := !by_hand +. priced ~params ~n:2048 s.Select.levels.(k) i)
    s.Select.instructions;
  check (Alcotest.float 1e-12) "additive" !by_hand total

let test_estimate_free_ops_cost_nothing () =
  let b = B.create ~slot_count:8 () in
  let x = B.input b "x" in
  B.output b (B.mul b x (B.const_scalar b 0.5));
  let p = Codegen.pars cfg (B.finish b) in
  let types = checked_types cfg p in
  let params = Paramselect.select ~sf_bits:28 ~types ~slot_count:8 () in
  let s = Select.select p in
  (* constants select no instruction; inputs and outputs are not charged *)
  let consts =
    Array.fold_left
      (fun a (o : Prog.op) -> match o.Prog.kind with Prog.Const _ -> a + 1 | _ -> a)
      0 p.Prog.body
  in
  check Alcotest.int "no instruction for a constant"
    (Prog.num_ops p - consts + List.length p.Prog.outputs)
    (Array.length s.Select.instructions);
  Array.iteri
    (fun k i ->
      match i with
      | Select.Encrypt_input _ | Select.Output _ ->
          check Alcotest.bool "free" true (Select.charges i = [])
      | _ -> check Alcotest.bool "charged" true (priced ~params ~n:2048 s.Select.levels.(k) i > 0.))
    s.Select.instructions

(* ------------------------------------------------------------------ *)
(* Fig. 2: the three hand-written plans, ordered by the estimator       *)
(* ------------------------------------------------------------------ *)

(* plan (a): EVA's — rescale z^2 twice (sf=28), modswitch z, mul at level 2 *)
let fig2_plan_a =
  {|
func a(%0: cipher "x", %1: cipher "y") slots=8 {
  %2 = mul %0, %0
  %3 = mul %1, %1
  %4 = add %2, %3
  %5 = mul %4, %4
  %6 = rescale %5
  %7 = rescale %6
  %8 = modswitch %4
  %9 = modswitch %8
  %10 = mul %7, %9
  return %10
}
|}

(* plan (b): downscale z after squaring it — one mul at level 0 *)
let fig2_plan_b =
  {|
func b(%0: cipher "x", %1: cipher "y") slots=8 {
  %2 = mul %0, %0
  %3 = mul %1, %1
  %4 = add %2, %3
  %5 = mul %4, %4
  %6 = rescale %5
  %7 = rescale %6
  %8 = downscale %4, 20
  %9 = modswitch %8
  %10 = mul %7, %9
  return %10
}
|}

(* plan (c): HECATE's — downscale z first, both muls at level 1 *)
let fig2_plan_c =
  {|
func c(%0: cipher "x", %1: cipher "y") slots=8 {
  %2 = mul %0, %0
  %3 = mul %1, %1
  %4 = add %2, %3
  %5 = downscale %4, 20
  %6 = mul %5, %5
  %7 = mul %6, %5
  return %7
}
|}

let estimate_plan text =
  let p = Hecate_ir.Parser.parse text in
  let types = checked_types cfg p in
  let params = Paramselect.select ~sf_bits:28 ~types ~slot_count:8 () in
  Estimator.estimate ~model ~params ~n:16384 p

let test_fig2_three_plans () =
  let a = estimate_plan fig2_plan_a in
  let b = estimate_plan fig2_plan_b in
  let c = estimate_plan fig2_plan_c in
  (* the paper's argument: (c) beats (b) beats (a) because more of the
     expensive multiplications execute at higher levels *)
  check Alcotest.bool (Printf.sprintf "c (%.4f) <= b (%.4f)" c b) true (c <= b +. 1e-12);
  check Alcotest.bool (Printf.sprintf "b (%.4f) <= a (%.4f)" b a) true (b <= a +. 1e-12);
  (* and HECATE's search discovers plan (c) automatically *)
  let auto = Driver.compile Driver.Hecate ~sf_bits:28 ~waterline_bits:20. (fig2 ()) in
  let auto_est = Driver.estimate_at auto ~n:16384 in
  check Alcotest.bool "search matches the hand plan" true
    (Float.abs (auto_est -. c) /. auto_est < 0.05)

(* ------------------------------------------------------------------ *)
(* Explorer and driver                                                  *)
(* ------------------------------------------------------------------ *)

(* the explorer's scoring closure: build the candidate, then price it *)
let score_of codegen evaluate ~hook = evaluate (codegen ~hook)

(* improving epochs of the (only) strategy *)
let epochs (r : Explore.portfolio_result) = (List.hd r.Explore.p_strategies).Explore.s_epochs

let test_hill_climb_improves () =
  let prog = fig2 () in
  let smu = Smu.generate prog in
  let codegen ~hook = fst (Driver.finalize ~cfg (Codegen.waterline cfg ~hook prog)) in
  let evaluate p =
    let types = checked_types cfg p in
    let params = Paramselect.select ~sf_bits:28 ~types ~slot_count:8 () in
    Estimator.estimate ~model ~params ~n:8192 p
  in
  let r =
    Explore.portfolio ~codegen ~score:(score_of codegen evaluate) ~edges:smu.Smu.edges
      ~strategies:[ "hill-climb" ] ()
  in
  let base = evaluate (codegen ~hook:Codegen.no_hook) in
  check Alcotest.bool "no regression" true (r.Explore.p_best_cost <= base);
  check Alcotest.bool "explored the neighbourhood" true
    (r.Explore.p_plans_explored >= Array.length smu.Smu.edges)

let test_hill_climb_evaluate_exception_skipped () =
  (* an Invalid_argument from [evaluate] (e.g. Paramselect.num_primes_at on a
     bad level) marks that one candidate infeasible instead of aborting the
     whole search *)
  let prog = fig2 () in
  let smu = Smu.generate prog in
  let codegen ~hook = fst (Driver.finalize ~cfg (Codegen.waterline cfg ~hook prog)) in
  let calls = Atomic.make 0 in
  let evaluate p =
    if Atomic.fetch_and_add calls 1 = 0 then float_of_int (Prog.num_ops p)
    else invalid_arg "Paramselect.num_primes_at: bad level"
  in
  let r =
    Explore.portfolio ~codegen ~score:(score_of codegen evaluate) ~edges:smu.Smu.edges
      ~strategies:[ "hill-climb" ] ()
  in
  check Alcotest.bool "search survived" true (r.Explore.p_best_cost < infinity);
  check Alcotest.int "no candidate accepted" 0 (epochs r);
  check (Alcotest.array Alcotest.int) "base plan kept"
    (Array.make (Array.length smu.Smu.edges) 0)
    r.Explore.p_best_plan

let test_hill_climb_base_evaluate_fatal () =
  (* the all-zero base plan must compile and evaluate: a crash there is
     still a hard error, not a silent infinity *)
  let prog = fig2 () in
  let smu = Smu.generate prog in
  let codegen ~hook = fst (Driver.finalize ~cfg (Codegen.waterline cfg ~hook prog)) in
  let evaluate _ = invalid_arg "boom" in
  match
    Explore.portfolio ~codegen ~score:(score_of codegen evaluate) ~edges:smu.Smu.edges
      ~strategies:[ "hill-climb" ] ()
  with
  | _ -> Alcotest.fail "expected Invalid_argument on a failing base plan"
  | exception Invalid_argument _ -> ()

(* A synthetic 3-edge search space whose optimum is only reachable by backing
   off an overshoot: the climb must take 000 -> 100 -> 110 -> 111 -> 011,
   where the last step is a -1 move on edge 0. The fake codegen encodes the
   plan into the program's op count (k = d0 + 4*d1 + 16*d2 rotations). *)
let backoff_edges =
  Array.init 3 (fun i -> { Smu.src = i; Smu.dst = i + 1; Smu.sites = [ (i, 0) ] })

let backoff_codegen ~hook =
  let d i = hook ~op_id:i ~operand:0 in
  let k = d 0 + (4 * d 1) + (16 * d 2) in
  let b = B.create ~slot_count:8 () in
  let x = B.input b "x" in
  let rec chain v j = if j = 0 then v else chain (B.rotate b v 1) (j - 1) in
  B.output b (chain x (k + 1));
  B.finish b

let backoff_evaluate p =
  match Prog.num_ops p - 2 with
  | 0 -> 10. (* 000 *)
  | 1 -> 9. (* 100 *)
  | 4 | 16 -> 9.5 (* 010, 001 *)
  | 5 -> 8. (* 110 *)
  | 21 -> 7. (* 111 *)
  | 20 -> 6. (* 011: only reachable from 111 by decrementing edge 0 *)
  | _ -> 100.

let test_hill_climb_backoff () =
  let r =
    Explore.portfolio ~codegen:backoff_codegen
      ~score:(score_of backoff_codegen backoff_evaluate) ~edges:backoff_edges
      ~strategies:[ "hill-climb" ] ()
  in
  check (Alcotest.array Alcotest.int) "optimum needs a -1 move" [| 0; 1; 1 |]
    r.Explore.p_best_plan;
  check (Alcotest.float 0.) "cost of the backed-off plan" 6. r.Explore.p_best_cost;
  check Alcotest.int "four improving epochs" 4 (epochs r);
  check Alcotest.bool "revisited plans served from the cache" true (r.Explore.p_cache_hits > 0)

let test_hill_climb_parallel_matches_serial () =
  (* bit-identical best_plan/best_cost/plans_explored for every pool size *)
  let apps =
    [
      ("fig2", fig2 (), 100);
      ( "sobel8",
        Hecate_ir.Pass_manager.default_pipeline
          (Hecate_apps.Apps.sobel ~size:8 ()).Hecate_apps.Apps.prog,
        4 );
    ]
  in
  List.iter
    (fun (name, prog, max_epochs) ->
      let smu = Smu.generate prog in
      let codegen ~hook = fst (Driver.finalize ~cfg (Codegen.waterline cfg ~hook prog)) in
      let evaluate p =
        let types = checked_types cfg p in
        let params = Paramselect.select ~sf_bits:28 ~types ~slot_count:p.Prog.slot_count () in
        Estimator.estimate ~model ~params ~n:8192 p
      in
      let explore pool_size =
        Explore.portfolio ~codegen ~score:(score_of codegen evaluate) ~edges:smu.Smu.edges
          ~strategies:[ "hill-climb" ]
          ~max_epochs ~pool_size ()
      in
      let serial = explore 1 in
      List.iter
        (fun pool_size ->
          let par = explore pool_size in
          let lbl s = Printf.sprintf "%s pool=%d: %s" name pool_size s in
          check (Alcotest.array Alcotest.int) (lbl "best_plan") serial.Explore.p_best_plan
            par.Explore.p_best_plan;
          check (Alcotest.float 0.) (lbl "best_cost") serial.Explore.p_best_cost
            par.Explore.p_best_cost;
          check Alcotest.int (lbl "plans_explored") serial.Explore.p_plans_explored
            par.Explore.p_plans_explored;
          check Alcotest.int (lbl "cache_hits") serial.Explore.p_cache_hits
            par.Explore.p_cache_hits;
          check Alcotest.int (lbl "epochs") (epochs serial) (epochs par))
        [ 2; 4 ])
    apps

let test_driver_pool_size_invariant () =
  let prog = fig2 () in
  let reference = Driver.compile ~pool_size:1 Driver.Hecate ~sf_bits:28 ~waterline_bits:20. prog in
  let other = Driver.compile ~pool_size:3 Driver.Hecate ~sf_bits:28 ~waterline_bits:20. prog in
  check (Alcotest.float 0.) "same estimate" reference.Driver.estimated_seconds
    other.Driver.estimated_seconds;
  let stats c = Option.get c.Driver.exploration in
  check Alcotest.int "same plans" (stats reference).Driver.plans_explored
    (stats other).Driver.plans_explored;
  check Alcotest.bool "trace covers every epoch" true
    (List.length (stats reference).Driver.trace > (stats reference).Driver.epochs - 1)

let test_driver_diagnose () =
  (* the one exception-to-diagnostic mapping every front end shares *)
  let module D = Hecate_ir.Diagnostic in
  let diag f =
    match Driver.diagnose f with
    | Ok () -> Alcotest.fail "expected a diagnostic"
    | Error d -> (D.code_name d.D.code, d.D.message)
  in
  let expect what (code, message) f =
    check Alcotest.(pair string string) what (code, message) (diag f)
  in
  check Alcotest.(result int reject) "value passes through" (Ok 42)
    (Driver.diagnose (fun () -> 42));
  let d = D.v ~code:D.Scale_overflow "too big" in
  (match Driver.diagnose (fun () -> D.error d) with
  | Error d' -> check Alcotest.bool "diagnostic passes through" true (d' == d)
  | Ok () -> Alcotest.fail "expected the raised diagnostic");
  expect "parse error" ("parse-error", "line 3: expected ','") (fun () ->
      raise (Hecate_ir.Parser.Parse_error { line = 3; message = "expected ','" }));
  expect "pass failure" ("internal", "pass cse failed: broken") (fun () ->
      raise (Hecate_ir.Pass_manager.Pass_failed { pass = "cse"; reason = "broken" }));
  expect "invalid argument" ("precondition", "no ring degree") (fun () ->
      invalid_arg "no ring degree");
  expect "system error" ("precondition", "x.hec: No such file") (fun () ->
      raise (Sys_error "x.hec: No such file"));
  expect "any other exception" ("internal", "uncaught exception: Not_found") (fun () ->
      raise Not_found);
  (* cancellation is the caller's own signal, not a failure *)
  match Driver.diagnose (fun () -> raise Explore.Cancelled) with
  | _ -> Alcotest.fail "Cancelled must be re-raised"
  | exception Explore.Cancelled -> ()

let test_hill_climb_epoch_cap () =
  let prog = fig2 () in
  let smu = Smu.generate prog in
  let codegen ~hook = fst (Driver.finalize ~cfg (Codegen.waterline cfg ~hook prog)) in
  let evaluate p = float_of_int (Prog.num_ops p) in
  let r =
    Explore.portfolio ~codegen ~score:(score_of codegen evaluate) ~edges:smu.Smu.edges
      ~strategies:[ "hill-climb" ]
      ~max_epochs:1 ()
  in
  check Alcotest.bool "capped" true (epochs r <= 1)

let test_driver_all_schemes () =
  let prog = fig2 () in
  let results =
    List.map (fun s -> (s, Driver.compile s ~sf_bits:28 ~waterline_bits:20. prog)) Driver.all_schemes
  in
  let est s = (List.assoc s results).Driver.estimated_seconds in
  check Alcotest.bool "hecate <= eva" true (est Driver.Hecate <= est Driver.Eva +. 1e-12);
  check Alcotest.bool "hecate <= pars" true (est Driver.Hecate <= est Driver.Pars +. 1e-12);
  check Alcotest.bool "smse <= eva" true (est Driver.Smse <= est Driver.Eva +. 1e-12);
  List.iter
    (fun (s, (c : Driver.compiled)) ->
      match (s, c.Driver.exploration) with
      | (Driver.Smse | Driver.Hecate), None -> Alcotest.fail "exploration stats missing"
      | (Driver.Eva | Driver.Pars), Some _ -> Alcotest.fail "unexpected exploration stats"
      | _ -> ())
    results

let test_driver_naive_explores_more () =
  let prog = fig2 () in
  let smart = Driver.compile Driver.Hecate ~sf_bits:28 ~waterline_bits:20. prog in
  let naive =
    Driver.compile Driver.Hecate ~naive_exploration:true ~sf_bits:28 ~waterline_bits:20. prog
  in
  let plans c =
    match c.Driver.exploration with Some e -> e.Driver.plans_explored | None -> 0
  in
  check Alcotest.bool "naive explores at least as many plans" true (plans naive >= plans smart);
  check Alcotest.bool "naive no better" true
    (naive.Driver.estimated_seconds >= smart.Driver.estimated_seconds -. 1e-12)

let test_driver_output_types_valid () =
  List.iter
    (fun scheme ->
      let c = Driver.compile scheme ~sf_bits:28 ~waterline_bits:20. (fig2 ()) in
      let tys = checked_types cfg c.Driver.prog in
      Array.iter
        (fun t ->
          match Types.scaled_of t with
          | Some s ->
              check Alcotest.bool "C2 everywhere" true (s.Types.scale >= 20. -. 0.01);
              check Alcotest.bool "level within chain" true
                (s.Types.level <= c.Driver.params.Paramselect.chain_levels)
          | None -> ())
        tys)
    Driver.all_schemes

(* ------------------------------------------------------------------ *)
(* Pass-managed driver: behavior preservation and instrumentation      *)
(* ------------------------------------------------------------------ *)

module Pass_manager = Hecate_ir.Pass_manager
module Printer = Hecate_ir.Printer
module Parser = Hecate_ir.Parser

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_compile_matches_golden () =
  (* test/golden/*.ir is the printed output of the pre-pass-manager driver
     (hardcoded pass order, no fixpoint, no constant folding in finalize):
     the rewiring through Pass_manager must reproduce it byte for byte for
     every scheme. The files are regenerated only on deliberate changes to
     the cost model (exploration-based schemes pick plans by estimated
     cost, so repricing an op class can change the chosen plan). *)
  let progs =
    [
      ("fig2", Parser.parse_file "../examples/fig2.hec");
      ("dot_product", Parser.parse_file "../examples/dot_product.hec");
      ("sobel", (Hecate_apps.Apps.sobel ()).Hecate_apps.Apps.prog);
    ]
  in
  List.iter
    (fun (name, prog) ->
      List.iter
        (fun scheme ->
          let c = Driver.compile scheme ~sf_bits:28 ~waterline_bits:20. prog in
          let file =
            Printf.sprintf "golden/%s_%s.ir" name
              (String.lowercase_ascii (Driver.scheme_name scheme))
          in
          check Alcotest.string file (read_file file) (Printer.to_string c.Driver.prog))
        Driver.all_schemes)
    progs

let test_compile_reports_pass_timings () =
  let c = Driver.compile Driver.Hecate ~sf_bits:28 ~waterline_bits:20. (fig2 ()) in
  let find name =
    List.find_opt (fun (t : Pass_manager.timing) -> t.Pass_manager.pass = name)
      c.Driver.pass_timings
  in
  List.iter
    (fun name ->
      match find name with
      | Some t ->
          check Alcotest.bool (name ^ " ran") true (t.Pass_manager.runs > 0);
          check Alcotest.bool (name ^ " non-negative time") true (t.Pass_manager.seconds >= 0.)
      | None -> Alcotest.failf "pass %s missing from the timing table" name)
    [ "cse"; "dce"; "constant-fold"; "fold-rotations"; "finalize" ];
  (* the explorer finalizes every candidate plan through the same stats:
     finalize must have been charged once per candidate *)
  let finalize = Option.get (find "finalize") in
  check Alcotest.bool "finalize charged across candidate plans" true
    (finalize.Pass_manager.runs > 3)

let test_compile_custom_cleanup () =
  let passes = Pass_manager.parse_exn "dce" in
  let c = Driver.compile ~passes Driver.Eva ~sf_bits:28 ~waterline_bits:20. (fig2 ()) in
  check Alcotest.bool "compiles and validates" true (Result.is_ok (Prog.validate c.Driver.prog));
  let timed = List.map (fun (t : Pass_manager.timing) -> t.Pass_manager.pass) c.Driver.pass_timings in
  check Alcotest.bool "no fold-rotations charged" true (not (List.mem "fold-rotations" timed))

let test_compile_dump_instrumentation () =
  let dumped = ref [] in
  let instr =
    Pass_manager.instrumentation ~dump_after:Pass_manager.Dump_all
      ~dump:(fun ~pass p -> dumped := (pass, Prog.num_ops p) :: !dumped)
      ()
  in
  ignore (Driver.compile ~instr Driver.Eva ~sf_bits:28 ~waterline_bits:20. (fig2 ()));
  check Alcotest.bool "every pass execution dumped" true (List.length !dumped >= 5);
  check Alcotest.bool "cse dumped" true (List.mem_assoc "cse" !dumped)

(* early-modswitch rebuilds the program with modswitches moved, added and
   dropped, but every other op is emitted once, in order: its provenance
   must come along, or everything compiled under EVA or HECATE loses the
   source locations diagnostics and profiles report. *)
let test_early_modswitch_keeps_provenance () =
  let hcd = List.find (fun (a : Hecate_apps.Apps.t) -> a.Hecate_apps.Apps.name = "HCD")
      (Hecate_apps.Apps.reduced_suite ()) in
  let cfg = Typing.config ~sf:28. ~waterline:22. () in
  let managed = Codegen.waterline cfg (Pass_manager.default_pipeline hcd.Hecate_apps.Apps.prog) in
  let provs p =
    Array.to_list p.Prog.body
    |> List.filter_map (fun (o : Prog.op) ->
           match o.Prog.kind with Prog.Modswitch -> None | _ -> Some o.Prog.prov)
  in
  let before = provs managed in
  check Alcotest.bool "codegen output carries provenance" true
    (List.exists Option.is_some before);
  let after = Hecate_ir.Passes.early_modswitch managed in
  check Alcotest.bool "the pass changed the program" false (after == managed);
  check Alcotest.bool "every non-modswitch op keeps its provenance" true (provs after = before)

(* early-modswitch reuses every modswitch the program has or the pass has
   emitted, so the cse after it finds nothing to merge and the reference
   finalize pipeline stops after one productive iteration and one
   confirming it; and what the fused finalize returns, the pipeline
   leaves physically unchanged. Checked on every candidate the HECATE
   search finalizes for the one-shot programs at their waterlines. *)
let test_finalize_fixpoint_iterations () =
  let suite = Hecate_apps.Apps.reduced_suite () in
  let reference = Pass_manager.finalize_reference ~early_modswitch:true in
  List.iter
    (fun (name, wl) ->
      let a = List.find (fun (a : Hecate_apps.Apps.t) -> a.Hecate_apps.Apps.name = name) suite in
      let cfg = Typing.config ~sf:28. ~waterline:wl () in
      let prog = Pass_manager.default_pipeline a.Hecate_apps.Apps.prog in
      let worst = ref 0 and candidates = ref 0 and moved = ref 0 in
      let codegen ~hook =
        let managed = Codegen.pars cfg ~hook prog in
        let stats = Pass_manager.create_stats () in
        ignore (Pass_manager.run ~stats reference managed);
        let t =
          List.find
            (fun (t : Pass_manager.timing) -> t.Pass_manager.pass = "early-modswitch")
            (Pass_manager.timings stats)
        in
        worst := max !worst t.Pass_manager.runs;
        incr candidates;
        let p, _ = Driver.finalize ~cfg managed in
        if Pass_manager.run reference p != p then incr moved;
        p
      in
      let evaluate p =
        let types = Array.map (fun (o : Prog.op) -> o.Prog.ty) p.Prog.body in
        let params = Paramselect.select ~sf_bits:28 ~types ~slot_count:p.Prog.slot_count () in
        Estimator.estimate ~model:(Costmodel.analytic ()) ~params
          ~n:params.Paramselect.secure_n p
      in
      let edges = (Smu.generate prog).Smu.edges in
      ignore (Explore.portfolio ~codegen ~score:(score_of codegen evaluate) ~edges ~pool_size:1 ());
      check Alcotest.bool (name ^ ": candidates finalized") true (!candidates > 1);
      check Alcotest.bool
        (Printf.sprintf "%s: at most 2 fixpoint iterations per candidate (worst %d)" name !worst)
        true (!worst <= 2);
      check Alcotest.int (name ^ ": finalized candidates the pipeline changes") 0 !moved)
    [ ("SF", 24.); ("HCD", 22.); ("MLP", 15.) ]

let () =
  Alcotest.run "hecate_core"
    [
      ( "codegen",
        [
          Alcotest.test_case "EVA on fig2" `Quick test_eva_fig2;
          Alcotest.test_case "PARS matches Fig. 2c" `Quick test_pars_fig2;
          Alcotest.test_case "PARS chain no longer" `Quick test_pars_lower_peak_than_eva;
          Alcotest.test_case "rejects managed input" `Quick test_codegen_rejects_managed_input;
          Alcotest.test_case "free operands encoded" `Quick test_codegen_free_operands;
          Alcotest.test_case "deep chains" `Quick test_codegen_deep_chain;
          Alcotest.test_case "rotation passthrough" `Quick test_codegen_rotation_passthrough;
          Alcotest.test_case "plan hook" `Quick test_codegen_hook_forces_ops;
          Alcotest.test_case "downscale analysis trigger" `Quick test_pars_downscale_analysis_trigger;
        ] );
      ( "smu",
        [
          Alcotest.test_case "Fig. 6 example" `Quick test_smu_fig6;
          Alcotest.test_case "rotation stays in unit" `Quick test_smu_rotation_stays;
          Alcotest.test_case "edges <= uses" `Quick test_smu_edges_fewer_than_uses;
          Alcotest.test_case "plain addition merges" `Quick test_smu_plain_addition_merges;
          Alcotest.test_case "naive edges" `Quick test_smu_naive_edges;
          Alcotest.test_case "deterministic" `Quick test_smu_deterministic;
          qtest prop_smu_partition;
        ] );
      ( "paramselect",
        [
          Alcotest.test_case "basic" `Quick test_paramselect_basic;
          Alcotest.test_case "depth scaling" `Quick test_paramselect_scales_with_depth;
          Alcotest.test_case "C1 headroom" `Quick test_paramselect_c1_headroom;
        ] );
      ( "estimator",
        [
          Alcotest.test_case "monotone in primes" `Quick test_cost_monotone_in_primes;
          Alcotest.test_case "monotone in degree" `Quick test_cost_monotone_in_degree;
          Alcotest.test_case "mul superlinear" `Quick test_cost_mul_quadratic;
          Alcotest.test_case "level speedup" `Quick test_cost_level_speedup_factor;
          Alcotest.test_case "fig2: pars cheaper" `Quick test_estimate_fig2_pars_cheaper;
          Alcotest.test_case "requires types" `Quick test_estimate_requires_types;
          Alcotest.test_case "table model" `Quick test_table_model_overrides;
          Alcotest.test_case "table model tie-break" `Quick test_table_model_tie_deterministic;
          Alcotest.test_case "estimate additive" `Quick test_estimate_additive;
          Alcotest.test_case "free ops uncharged" `Quick test_estimate_free_ops_cost_nothing;
        ] );
      ( "fig2-plans",
        [ Alcotest.test_case "estimator orders the three plans" `Quick test_fig2_three_plans ] );
      ( "explore",
        [
          Alcotest.test_case "hill climb improves" `Quick test_hill_climb_improves;
          Alcotest.test_case "epoch cap" `Quick test_hill_climb_epoch_cap;
          Alcotest.test_case "evaluate crash skips candidate" `Quick
            test_hill_climb_evaluate_exception_skipped;
          Alcotest.test_case "base plan crash is fatal" `Quick
            test_hill_climb_base_evaluate_fatal;
          Alcotest.test_case "-1 move reaches the optimum" `Quick test_hill_climb_backoff;
          Alcotest.test_case "parallel matches serial" `Quick
            test_hill_climb_parallel_matches_serial;
        ] );
      ( "driver",
        [
          Alcotest.test_case "all schemes" `Quick test_driver_all_schemes;
          Alcotest.test_case "naive explores more" `Quick test_driver_naive_explores_more;
          Alcotest.test_case "output types valid" `Quick test_driver_output_types_valid;
          Alcotest.test_case "pool size invariant" `Quick test_driver_pool_size_invariant;
          Alcotest.test_case "diagnose maps every failure" `Quick test_driver_diagnose;
        ] );
      ( "pass-manager",
        [
          Alcotest.test_case "behavior preserved vs pre-refactor goldens" `Quick
            test_compile_matches_golden;
          Alcotest.test_case "per-pass timings reported" `Quick test_compile_reports_pass_timings;
          Alcotest.test_case "custom cleanup pipeline" `Quick test_compile_custom_cleanup;
          Alcotest.test_case "dump instrumentation" `Quick test_compile_dump_instrumentation;
          Alcotest.test_case "early modswitch keeps provenance" `Quick
            test_early_modswitch_keeps_provenance;
          Alcotest.test_case "finalize fixpoint iterations" `Quick
            test_finalize_fixpoint_iterations;
        ] );
    ]
