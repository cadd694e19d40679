(* Differential check of the abstract scorer against the built scoring
   path, on whole searches: every candidate of every named reduced-suite
   app (or "matvec", the lowered batch matvec) under SMSE and HECATE,
   every registered exploration strategy, with and without early-modswitch.

     dune exec test/oracle/scorer_diff.exe -- LeNet-r "PR E2" "LR E2"

   Prints one line per search; exits 1 on the first difference. *)

let () =
  let names = List.tl (Array.to_list Sys.argv) in
  if names = [] then begin
    prerr_endline "usage: scorer_diff APP...";
    exit 2
  end;
  let total = ref 0 in
  List.iter
    (fun name ->
      let t = Modswitch_sweep.standard name in
      List.iter
        (fun ((early_modswitch, (scheme, strategy)) as _conf) ->
          let t0 = Unix.gettimeofday () in
          match Score_check.check_search ~early_modswitch t (scheme, strategy) with
          | Ok tally ->
              total := !total + tally.Score_check.candidates;
              Printf.printf "%-8s %-6s %-10s ems %-5b %7d candidates (%d infeasible) %7.1f s\n%!"
                name (Hecate.Driver.scheme_name scheme) strategy early_modswitch
                tally.Score_check.candidates tally.Score_check.infeasible
                (Unix.gettimeofday () -. t0)
          | Error msg ->
              Printf.printf "DIFFERENCE: %s\n" msg;
              exit 1)
        (Score_check.configurations ()))
    names;
  Printf.printf "%d candidates scored both ways, no difference\n" !total
