(* Differential test of Prng, Keys.generate and Eval.encrypt against the
   verbatim copies of the code they replaced (Keygen_oracle): the generator
   streams over many seeds with interleaved copy and split, the uniform
   fill against repeated draws, and the key material and ciphertexts of
   the one-shot programs' HECATE parameters and of one n = 4096, 9-level
   set. LeNet-r's and PR E2's PARS parameters take longer; the nightly CI
   job runs them through keygen_diff.exe. *)

module P = Hecate_support.Prng
module R = Keygen_oracle.Prng_ref
module Check = Keygen_oracle.Keygen_check
module Buf = Hecate_support.Buf
module Params = Hecate_ckks.Params
module Eval = Hecate_ckks.Eval
module Chain = Hecate_rns.Chain

(* ------------------------------------------------------------------ *)
(* Generator streams                                                   *)
(* ------------------------------------------------------------------ *)

let bounds = [ 1; 2; 3; 7; (1 lsl 31) - 1; max_int ]
let moduli = [ 2; 3; 65537; (1 lsl 31) - 1 ]
let names = [ ""; "a"; "shape"; "consts"; "inputs" ]

(* The new generator [g] and the old one [r], fed the same calls. *)
type pair = { mutable g : P.t; mutable r : R.t }

let pick ops l = List.nth l (Random.State.int ops (List.length l))

(* The old float01 returned 1.0 for the top 256 62-bit draws; the new one
   returns the largest float below it there, and the same float elsewhere. *)
let fixed_float01 x = if x = 1. then Float.pred 1. else x

let same_float a b = Int64.bits_of_float a = Int64.bits_of_float b

(* One call of each checked kind in turn, then [steps] calls chosen by
   [ops]; [Some what] names the first call whose results differ. *)
let stream_difference ~seed ~steps =
  let pr = { g = P.create ~seed; r = R.create ~seed } in
  let ops = Random.State.make [| seed; steps |] in
  let int what a b = if a = b then None else Some (Printf.sprintf "%s: %d vs %d" what a b) in
  let call = function
    | `Bits -> if P.bits64 pr.g = R.bits64 pr.r then None else Some "bits64"
    | `Uniform q -> int (Printf.sprintf "uniform_mod %d" q) (P.uniform_mod pr.g q) (R.uniform_mod pr.r q)
    | `Below n -> int (Printf.sprintf "int_below %d" n) (P.int_below pr.g n) (R.int_below pr.r n)
    | `Ternary -> int "ternary" (P.ternary pr.g) (R.ternary pr.r)
    | `Float ->
        let expected = fixed_float01 (R.float01 pr.r) in
        if same_float (P.float01 pr.g) expected then None else Some "float01"
    | `Gaussian sigma ->
        if same_float (P.gaussian pr.g ~sigma) (R.gaussian pr.r ~sigma) then None else Some "gaussian"
    | `Shuffle len ->
        let a = Array.init len Fun.id and b = Array.init len Fun.id in
        P.shuffle pr.g a;
        R.shuffle pr.r b;
        if a = b then None else Some (Printf.sprintf "shuffle of %d" len)
    | `Binomial eta ->
        int (Printf.sprintf "centered_binomial ~eta:%d" eta) (P.centered_binomial pr.g ~eta)
          (R.centered_binomial pr.r ~eta)
    | `Fill (q, len) ->
        let buf = Buf.create len in
        P.fill_uniform_mod pr.g q buf;
        let expected = Array.init len (fun _ -> R.uniform_mod pr.r q) in
        if Buf.to_array buf = expected then None
        else Some (Printf.sprintf "fill_uniform_mod %d over %d" q len)
    | `Copy ->
        (* both the original and the copy go on as the old ones do *)
        let g' = P.copy pr.g and r' = R.copy pr.r in
        let a = P.bits64 pr.g and b = R.bits64 pr.r in
        pr.g <- g';
        pr.r <- r';
        if a = b then None else Some "bits64 after copy"
    | `Split name ->
        let g' = P.split pr.g name and r' = R.split pr.r name in
        if Random.State.bool ops then begin
          pr.g <- g';
          pr.r <- r';
          None
        end
        else if P.bits64 g' = R.bits64 r' then None
        else Some (Printf.sprintf "bits64 of split %S" name)
  in
  let random_call () =
    match Random.State.int ops 12 with
    | 0 -> `Bits
    | 1 -> `Uniform (pick ops moduli)
    | 2 -> `Below (pick ops bounds)
    | 3 -> `Below (1 + Random.State.int ops 1000)
    | 4 -> `Ternary
    | 5 -> `Float
    | 6 -> `Gaussian 3.2
    | 7 -> `Shuffle (Random.State.int ops 20)
    | 8 -> `Binomial (Random.State.int ops 65)
    | 9 -> `Fill (pick ops moduli, Random.State.int ops 40)
    | 10 -> `Copy
    | _ -> `Split (pick ops names)
  in
  let prologue =
    List.concat
      [
        [ `Bits; `Ternary; `Float; `Gaussian 1.; `Shuffle 10; `Copy; `Split "shape" ];
        List.map (fun q -> `Uniform q) moduli;
        List.map (fun n -> `Below n) bounds;
        List.init 65 (fun eta -> `Binomial eta);
        List.map (fun q -> `Fill (q, 33)) moduli;
      ]
  in
  let total = List.length prologue + steps in
  let rec go i = function
    | c :: rest -> (
        match call c with
        | Some what -> Some (Printf.sprintf "seed %d, call %d: %s" seed i what)
        | None -> go (i + 1) rest)
    | [] -> if i >= total then None else go i [ random_call () ]
  in
  go 0 prologue

let seeds = List.init 128 Fun.id @ [ -1; min_int; max_int; 0x5EC4E7; 0x5EED; 0xCAFE ]

let test_streams () =
  List.iter
    (fun seed ->
      match stream_difference ~seed ~steps:300 with
      | None -> ()
      | Some msg -> Alcotest.fail msg)
    seeds

(* The old float01 returned 1.0 for this seed's first draw. *)
let test_float01_top () =
  List.iter
    (fun seed ->
      Alcotest.(check (float 0.)) "old float01" 1. (R.float01 (R.create ~seed));
      Alcotest.(check bool) "new float01" true
        (same_float (Float.pred 1.) (P.float01 (P.create ~seed))))
    [ 884820625909093051; -1778988460208707 ]

(* ------------------------------------------------------------------ *)
(* Uniform fill                                                        *)
(* ------------------------------------------------------------------ *)

(* The one-shot programs' HECATE parameters and rotations, compiled once. *)
let oneshot =
  lazy
    (List.map
       (fun name -> (name, Check.compiled Hecate.Driver.Hecate (Modswitch_sweep.standard name)))
       [ "SF"; "HCD"; "MLP"; "matvec" ])

let chain_primes (params, rotations) =
  let chain = (Eval.params (Hecate_backend.Interp.context ~params ~rotations ())).Params.chain in
  Chain.special_prime chain :: Array.to_list (Chain.primes chain)

let test_fill () =
  let primes = List.concat_map (fun (_, c) -> chain_primes c) (Lazy.force oneshot) in
  let moduli = [ 2; 3; (1 lsl 31) - 1 ] @ List.sort_uniq compare primes in
  List.iter
    (fun q ->
      List.iter
        (fun seed ->
          let g = P.create ~seed and g' = P.create ~seed and r = R.create ~seed in
          List.iter
            (fun len ->
              let buf = Buf.create len in
              P.fill_uniform_mod g q buf;
              let new_draws = Array.init len (fun _ -> P.uniform_mod g' q) in
              let old_draws = Array.init len (fun _ -> R.uniform_mod r q) in
              let label = Printf.sprintf "q = %d, seed %d, length %d" q seed len in
              Alcotest.(check (array int)) (label ^ ", repeated uniform_mod") new_draws (Buf.to_array buf);
              Alcotest.(check (array int)) (label ^ ", old uniform_mod") old_draws (Buf.to_array buf))
            [ 0; 1; 7; 512; 1000 ];
          Alcotest.(check int64) "state after the fills" (R.bits64 r) (P.bits64 g))
        [ 0; 1; 0x5EC4E7 ])
    moduli

(* ------------------------------------------------------------------ *)
(* Key material and ciphertexts                                        *)
(* ------------------------------------------------------------------ *)

let test_oneshot_keys () =
  List.iter
    (fun (name, c) ->
      List.iter
        (fun seed ->
          match Check.check_program ~seed c with
          | Ok () -> ()
          | Error msg -> Alcotest.fail (name ^ ", " ^ msg))
        [ 0x5EED; 1; 2; 3 ])
    (Lazy.force oneshot)

let test_big_ring_keys () =
  let params = Params.create ~n:4096 ~q0_bits:30 ~sf_bits:25 ~levels:9 () in
  let rotations = [ 1; -1; 5; 64 ] in
  let seed = 0x5EED in
  match Check.check_eval ~seed ~rotations (Eval.create ~seed params ~rotations) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* Properties over seeds                                               *)
(* ------------------------------------------------------------------ *)

let prop_streams =
  QCheck.Test.make ~name:"streams match for any seed" ~count:200 QCheck.int (fun seed ->
      match stream_difference ~seed ~steps:100 with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

let small_params = lazy (Params.create ~n:32 ~q0_bits:30 ~sf_bits:20 ~levels:3 ())

let prop_keys =
  QCheck.Test.make ~name:"keys match for any seed" ~count:100 QCheck.int
    (fun seed ->
      let rotations = [ 1; 3; -2 ] in
      match
        Check.check_eval ~seed ~rotations (Eval.create ~seed (Lazy.force small_params) ~rotations)
      with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

let () =
  Alcotest.run "keygen"
    [
      ( "prng oracle",
        [
          Alcotest.test_case "streams with copy and split" `Quick test_streams;
          Alcotest.test_case "float01 top draws" `Quick test_float01_top;
          Alcotest.test_case "fill equals uniform_mod" `Quick test_fill;
          QCheck_alcotest.to_alcotest prop_streams;
        ] );
      ( "keys oracle",
        [
          Alcotest.test_case "SF/HCD/MLP/matvec keys and ciphertexts" `Quick test_oneshot_keys;
          Alcotest.test_case "n=4096, 9 levels" `Quick test_big_ring_keys;
          QCheck_alcotest.to_alcotest prop_keys;
        ] );
    ]
