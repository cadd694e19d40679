(* Differential check of key generation and encryption against the
   verbatim old code on the PARS parameters of the named reduced-suite apps
   (or "matvec", the lowered batch matvec), at the benchmark's waterlines:
   the keys `hecatec run` would draw, for two seeds, and the first
   encryptions under them.

     dune exec test/oracle/keygen_diff.exe -- LeNet-r "PR E2"

   Prints one line per app and seed; exits 1 on the first difference. *)

module Check = Keygen_oracle.Keygen_check

let () =
  let names = List.tl (Array.to_list Sys.argv) in
  if names = [] then begin
    prerr_endline "usage: keygen_diff APP...";
    exit 2
  end;
  List.iter
    (fun name ->
      let ((params, rotations) as c) = Check.compiled Hecate.Driver.Pars (Modswitch_sweep.standard name) in
      List.iter
        (fun seed ->
          let t0 = Unix.gettimeofday () in
          match Check.check_program ~seed c with
          | Ok () ->
              Printf.printf "%-10s seed %-6d chain %2d, %3d rotations: same keys and ciphertexts %6.1f s\n%!"
                name seed params.Hecate.Paramselect.chain_levels (List.length rotations)
                (Unix.gettimeofday () -. t0)
          | Error msg ->
              Printf.printf "DIFFERENCE: %s, %s\n" name msg;
              exit 1)
        [ 0x5EED; 1 ])
    names;
  print_endline "no difference"
