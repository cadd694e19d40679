(* Differential check of the fused finalize against the pass pipeline it
   replaced, on whole compiles: every candidate of every named
   reduced-suite app (or "matvec", the lowered batch matvec) under all
   four schemes and every registered exploration strategy, with and
   without early-modswitch. The pipeline's early-modswitch calls are
   checked against the old sweep on the way.

     dune exec test/oracle/finalize_diff.exe -- LeNet-r "PR E2" "LR E2"

   Prints one line per compile; exits 1 on the first difference. *)

let () =
  let names = List.tl (Array.to_list Sys.argv) in
  if names = [] then begin
    prerr_endline "usage: finalize_diff APP...";
    exit 2
  end;
  let total = ref 0 in
  List.iter
    (fun name ->
      let t = Modswitch_sweep.standard name in
      List.iter
        (fun ((scheme, strategy) as conf) ->
          let t0 = Unix.gettimeofday () in
          match Finalize_check.check_compile t conf with
          | Ok tally ->
              total := !total + tally.Finalize_check.candidates;
              Printf.printf "%-14s %-6s %-10s %7d candidates (%d unchanged) %7.1f s\n%!" name
                (Hecate.Driver.scheme_name scheme) strategy tally.Finalize_check.candidates
                tally.Finalize_check.unchanged (Unix.gettimeofday () -. t0)
          | Error msg ->
              Printf.printf "DIFFERENCE: %s\n" msg;
              exit 1)
        (Modswitch_sweep.configurations ()))
    names;
  Printf.printf "%d candidates finalized, no difference\n" !total
