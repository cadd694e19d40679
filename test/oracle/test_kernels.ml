(* Whole-program differential test of the fast kernels: the one-shot
   programs (SF, HCD, MLP and the lowered batch matvec) at their HECATE
   plans, executed through [Interp] and through the reference kernels
   from the same seed, decrypt to the same bits. LeNet-r's and PR E2's
   PARS plans take longer; the nightly CI job runs them through
   kernels_diff.exe. *)

let test_oneshot_programs () =
  List.iter
    (fun name ->
      List.iter
        (fun seed ->
          match Kernel_check.check_program ~seed Hecate.Driver.Hecate name with
          | Ok outputs -> Alcotest.(check bool) (name ^ " has outputs") true (outputs > 0)
          | Error msg -> Alcotest.fail msg)
        [ 1; 0x5EED ])
    [ "SF"; "HCD"; "MLP"; "matvec" ]

(* The scale-managed program in test/corpus whose lowered stream reads
   values in the buffers the in-place executor reuses (see the file's
   header): its outputs decrypt to the reference kernels' bits. *)
let test_inplace_hazards () =
  let path = "../corpus/inplace_hazards.ir" in
  let prog =
    In_channel.with_open_bin path In_channel.input_all |> Hecate_ir.Parser.parse
  in
  (match Hecate_ir.Typing.check (Hecate_ir.Typing.config ~sf:28. ~waterline:30. ()) prog with
  | Ok () -> ()
  | Error d -> Alcotest.fail (Hecate_ir.Diagnostic.to_string d));
  let params = Hecate.Paramselect.of_prog ~sf_bits:28 prog in
  let g = Hecate_support.Prng.create ~seed:0x1A7E in
  let input () = Array.init 8 (fun _ -> Hecate_support.Prng.float01 g -. 0.5) in
  let inputs = [ ("x", input ()); ("y", input ()) ] in
  List.iter
    (fun seed ->
      match
        Kernel_check.check_managed ~seed ~label:"inplace_hazards" ~params ~waterline_bits:30.
          prog ~inputs
      with
      | Ok outputs -> Alcotest.(check int) "outputs" 6 outputs
      | Error msg -> Alcotest.fail msg)
    [ 1; 0x5EED ]

(* The identity digit taken from the Eval input, the lazy forward
   transform and the division-free mod-down, checked ciphertext by
   ciphertext where key switching has one digit and where it has all. *)
let test_key_switching_ends () =
  List.iter
    (fun seed ->
      match Kernel_check.check_key_switching ~seed with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg)
    [ 1; 0x5EED ]

(* The harness can fail: a reference side that encrypts from another seed
   decrypts to other bits, and the check must say so. *)
let test_perturbed_reference_reported () =
  match Kernel_check.check_program ~reference_seed:2 ~seed:1 Hecate.Driver.Hecate "SF" with
  | Ok _ -> Alcotest.fail "a reference encrypting from another seed passed the check"
  | Error msg -> Alcotest.(check string) "first difference" "SF seed 1: output 0 differs" msg

let () =
  Alcotest.run "fast_kernels"
    [
      ( "whole program",
        [
          Alcotest.test_case "oneshot programs" `Quick test_oneshot_programs;
          Alcotest.test_case "perturbed reference reported" `Quick
            test_perturbed_reference_reported;
          Alcotest.test_case "in-place hazards" `Quick test_inplace_hazards;
        ] );
      ( "key switching",
        [ Alcotest.test_case "one digit and every digit" `Quick test_key_switching_ends ] );
    ]
