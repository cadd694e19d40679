(* Differential check of early-modswitch against the sweep oracle on whole
   compiles: every early-modswitch call of every named reduced-suite app
   (or "matvec", the lowered batch matvec) under all four schemes and
   every registered exploration strategy.

     dune exec test/oracle/modswitch_diff.exe -- LeNet-r "PR E2" "LR E2"

   Prints one line per compile; exits 1 on the first difference. *)

let () =
  let names = List.tl (Array.to_list Sys.argv) in
  if names = [] then begin
    prerr_endline "usage: modswitch_diff APP...";
    exit 2
  end;
  let total = ref 0 in
  List.iter
    (fun name ->
      let t = Modswitch_sweep.standard name in
      List.iter
        (fun ((scheme, strategy) as conf) ->
          let t0 = Unix.gettimeofday () in
          match Modswitch_sweep.check_compile t conf with
          | Ok tally ->
              total := !total + tally.Modswitch_sweep.calls;
              Printf.printf "%-14s %-6s %-10s %7d calls (%d changed) %7.1f s\n%!" name
                (Hecate.Driver.scheme_name scheme) strategy tally.Modswitch_sweep.calls
                tally.Modswitch_sweep.changed (Unix.gettimeofday () -. t0)
          | Error msg ->
              Printf.printf "DIFFERENCE: %s\n" msg;
              exit 1)
        (Modswitch_sweep.configurations ()))
    names;
  Printf.printf "%d early-modswitch calls, no difference\n" !total
