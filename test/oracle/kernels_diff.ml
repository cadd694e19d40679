(* Whole-program check of the fast kernels against the reference kernels
   on the PARS plans of the named reduced-suite apps (or "matvec", the
   lowered batch matvec), at the benchmark's waterlines, for two seeds.

     dune exec test/oracle/kernels_diff.exe -- LeNet-r "PR E2"

   Prints one line per app and seed; exits 1 on the first difference. *)

let () =
  let names = List.tl (Array.to_list Sys.argv) in
  if names = [] then begin
    prerr_endline "usage: kernels_diff APP...";
    exit 2
  end;
  List.iter
    (fun name ->
      List.iter
        (fun seed ->
          let t0 = Unix.gettimeofday () in
          match Kernel_check.check_program ~seed Hecate.Driver.Pars name with
          | Ok outputs ->
              Printf.printf "%-10s seed %-6d %2d outputs: same bits as the reference kernels %6.1f s\n%!"
                name seed outputs
                (Unix.gettimeofday () -. t0)
          | Error msg ->
              Printf.printf "DIFFERENCE: %s\n" msg;
              exit 1)
        [ 0x5EED; 1 ])
    names;
  print_endline "no difference"
