(* hecatec: command-line driver for the HECATE compiler.

   Subcommands:
     compile   parse a .hec program, scale-manage it under a scheme, print
               the managed IR, selected parameters and estimated latency
     run       compile and execute on the in-repo RNS-CKKS backend
     bench     compile one of the built-in benchmarks
     info      structural statistics of a program (SMUs, liveness, ...)
*)

open Cmdliner

module Prog = Hecate_ir.Prog
module Diagnostic = Hecate_ir.Diagnostic
module Parser = Hecate_ir.Parser
module Printer = Hecate_ir.Printer
module Liveness = Hecate_ir.Liveness
module Pass_manager = Hecate_ir.Pass_manager
module Driver = Hecate.Driver
module Explore = Hecate.Explore
module Smu = Hecate.Smu
module Paramselect = Hecate.Paramselect
module Interp = Hecate_backend.Interp
module Accuracy = Hecate_backend.Accuracy
module Apps = Hecate_apps.Apps
module Surface = Hecate_batch.Surface
module Lower = Hecate_batch.Lower

(* ------------------------------------------------------------------ *)
(* Diagnostic rendering                                                 *)
(* ------------------------------------------------------------------ *)

type error_format = Human | Json

(* Set by every subcommand before doing any work, read by the top-level
   handler after the exception has unwound the cmdliner evaluation. *)
let error_format = ref Human

let error_format_arg =
  Arg.(value & opt (enum [ ("human", Human); ("json", Json) ]) Human
         & info [ "error-format" ] ~docv:"FMT"
             ~doc:"How to render compilation errors on stderr: $(b,human) (multi-line, \
                   with source provenance and a hint) or $(b,json) (a single machine-readable \
                   object; field $(b,code) is the stable error class).")

let set_error_format fmt = error_format := fmt

let render_diagnostic (d : Diagnostic.t) =
  (match !error_format with
  | Human -> Format.eprintf "%a@." Diagnostic.pp d
  | Json -> Printf.eprintf "%s\n" (Diagnostic.to_json d));
  1

(* Every failure mode of the subcommands funnels into a diagnostic
   ({!Driver.diagnose}). No exception reaches the user as a backtrace. *)
let handle_errors f =
  match Driver.diagnose f with Ok v -> v | Error d -> exit (render_diagnostic d)

let scheme_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "eva" -> Ok Driver.Eva
    | "pars" -> Ok Driver.Pars
    | "smse" -> Ok Driver.Smse
    | "hecate" -> Ok Driver.Hecate
    | _ -> Error (`Msg "scheme must be one of: eva, pars, smse, hecate")
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Driver.scheme_name s))

let scheme_arg =
  Arg.(value & opt scheme_conv Driver.Hecate & info [ "s"; "scheme" ] ~docv:"SCHEME"
         ~doc:"Scale-management scheme: eva, pars, smse or hecate.")

let waterline_arg =
  Arg.(value & opt float 20. & info [ "w"; "waterline" ] ~docv:"BITS"
         ~doc:"Waterline (minimum ciphertext scale), in bits.")

let sf_arg =
  Arg.(value & opt int 28 & info [ "f"; "rescale-factor" ] ~docv:"BITS"
         ~doc:"Rescaling factor $(b,S_f) (rescale prime size), in bits.")

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Input .hec program.")

let jobs_arg =
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Domains for SMSE exploration, the calling one included: $(docv) - 1 \
               workers are spawned, and 1 runs the search on the calling domain \
               alone (default: available cores - 1; the result is identical for \
               every value).")

let kernel_jobs_arg =
  Arg.(value & opt (some int) None & info [ "kernel-jobs" ] ~docv:"N"
         ~doc:"Domains for the per-RNS-component CKKS kernels (NTT and \
               element-wise polynomial loops), the calling one included: $(docv) - 1 \
               workers are spawned. Default 1 (serial), or the \
               $(b,HECATE_KERNEL_JOBS) environment variable; results are \
               bit-identical for every value. See docs/PERFORMANCE.md.")

let set_kernel_jobs jobs = Option.iter Hecate_support.Pool.Kernel.set_jobs jobs

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ]
         ~doc:"Print the per-epoch exploration trace (candidates, memo-cache hits, \
               best cost, wall-clock) and, when strategies race, the per-strategy \
               outcomes.")

let strategy_conv =
  let parse s =
    let s = String.lowercase_ascii s in
    if Explore.known_strategy s then Ok s
    else
      Error
        (`Msg
          (Printf.sprintf "unknown strategy %S (expected %s or %s)" s
             (String.concat ", " (Explore.strategy_names ()))
             Explore.portfolio_name))
  in
  Arg.conv (parse, Format.pp_print_string)

let strategy_arg =
  let env =
    Cmd.Env.info "HECATE_STRATEGY"
      ~doc:"Default exploration strategy when $(b,--strategy) is not given."
  in
  Arg.(value & opt strategy_conv Explore.default_strategy
         & info [ "strategy" ] ~docv:"NAME" ~env
             ~doc:"Exploration strategy for the SMSE/HECATE schemes: $(b,hill-climb) \
                   (the default), $(b,beam), $(b,anneal), $(b,gradient), or \
                   $(b,portfolio) to race every registered strategy under one shared \
                   budget (the winner is deterministic — independent of worker count \
                   and registration order).")

let oracle_arg =
  Arg.(value & flag & info [ "oracle" ]
         ~doc:"Re-validate the winning plan of every exploration strategy through the \
               differential oracle (structural validation, the C1-C3 type system, \
               print/parse round-trip, encrypted execution against the plaintext \
               reference, and agreement with an EVA baseline) before accepting it. \
               Rejections fail the compile with code $(b,oracle-rejected). Only \
               meaningful for the exploring schemes, compiled in-process.")

let gate_of ~oracle ~sf_bits ~waterline_bits prog =
  if oracle then Some (Hecate_fuzz.Oracle.explorer_gate ~sf_bits ~waterline_bits prog)
  else None

let passes_conv =
  let parse s =
    match Pass_manager.parse s with Ok p -> Ok p | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt (Pass_manager.to_string p))

let passes_arg =
  Arg.(value & opt (some passes_conv) None & info [ "passes" ] ~docv:"SPEC"
         ~doc:"Replace the cleanup pipeline run before scale management. SPEC is a \
               comma-separated pass list with $(b,fixpoint(...)) nesting, e.g. \
               'cse,constant-fold,fixpoint(fold-rotations,dce)'.")

let timing_arg =
  Arg.(value & flag & info [ "timing" ]
         ~doc:"Print a per-pass timing table (name, runs, wall seconds, op-count delta) \
               accumulated over the whole compile, including exploration.")

let ir_after_conv =
  let parse s =
    if String.lowercase_ascii s = "all" then Ok Pass_manager.Dump_all
    else
      match Pass_manager.find s with
      | Some _ -> Ok (Pass_manager.Dump_passes [ s ])
      | None ->
          Error
            (`Msg
              (Printf.sprintf "unknown pass %S (expected \"all\" or one of: %s)" s
                 (String.concat ", "
                    (List.map
                       (fun (p : Pass_manager.pass) -> p.Pass_manager.name)
                       (Pass_manager.registered ())))))
  in
  let print fmt = function
    | Pass_manager.Dump_all -> Format.pp_print_string fmt "all"
    | Pass_manager.Dump_passes names -> Format.pp_print_string fmt (String.concat "," names)
    | Pass_manager.No_dump -> Format.pp_print_string fmt "none"
  in
  Arg.conv (parse, print)

let ir_after_arg =
  Arg.(value & opt (some ir_after_conv) None & info [ "print-ir-after" ] ~docv:"PASS"
         ~doc:"Dump the IR after each execution of PASS (or of every pass, with \
               $(b,all)). Exploring schemes finalize many candidate plans; combine \
               with -s eva/pars for a single-trajectory dump.")

let instr_of ir_after =
  match ir_after with
  | None -> Pass_manager.instrumentation ()
  | Some dump_after -> Pass_manager.instrumentation ~dump_after ()

let report_timing show (c : Driver.compiled) =
  if show then begin
    print_string "; per-pass timing:\n";
    Format.printf "%a@?" Pass_manager.pp_timings c.Driver.pass_timings
  end

let bench_conv =
  let parse s =
    let pick f = Ok (f ()) in
    match String.lowercase_ascii s with
    | "sf" | "sobel" -> pick (fun () -> Apps.sobel ())
    | "hcd" | "harris" -> pick (fun () -> Apps.harris ())
    | "mlp" -> pick (fun () -> Apps.mlp ())
    | "lenet" -> pick (fun () -> Apps.lenet ())
    | "lenet-r" -> pick (fun () -> Apps.lenet ~reduced:true ())
    | "lr-e2" -> pick (fun () -> Apps.linear_regression ~epochs:2 ())
    | "lr-e3" -> pick (fun () -> Apps.linear_regression ~epochs:3 ())
    | "pr-e2" -> pick (fun () -> Apps.polynomial_regression ~epochs:2 ())
    | "pr-e3" -> pick (fun () -> Apps.polynomial_regression ~epochs:3 ())
    | _ -> Error (`Msg "unknown benchmark (sf, hcd, mlp, lenet, lenet-r, lr-e2, lr-e3, pr-e2, pr-e3)")
  in
  Arg.conv (parse, fun fmt (b : Apps.t) -> Format.pp_print_string fmt b.Apps.name)

let report_compiled ?(dump = true) ?(verbose = false) (c : Driver.compiled) =
  if dump then print_string (Printer.to_string c.Driver.prog);
  Printf.printf "; ops: %d\n" (Prog.num_ops c.Driver.prog);
  Printf.printf "; modulus chain: q0 = %d bits + %d rescale primes x %d bits (log2 Q = %.0f)\n"
    c.Driver.params.Paramselect.q0_bits c.Driver.params.Paramselect.chain_levels
    c.Driver.params.Paramselect.sf_bits c.Driver.params.Paramselect.log_q;
  Printf.printf "; ring degree for 128-bit security: N = %d\n" c.Driver.params.Paramselect.secure_n;
  Printf.printf "; estimated latency at that degree: %.3f s\n" c.Driver.estimated_seconds;
  match c.Driver.exploration with
  | None -> ()
  | Some e ->
      Printf.printf "; exploration: %d units, %d edges, %d epochs, %d plans\n" e.Driver.units
        e.Driver.smu_edges e.Driver.epochs e.Driver.plans_explored;
      if verbose then begin
        Printf.printf "; exploration detail: %d cache hits, %.3f s wall (%.1f plans/s)\n"
          e.Driver.cache_hits e.Driver.elapsed_seconds
          (float_of_int e.Driver.plans_explored /. Float.max 1e-9 e.Driver.elapsed_seconds);
        Printf.printf "; strategy: %s%s\n" e.Driver.strategy
          (if e.Driver.seeded then " (warm-started from the plan corpus)" else "");
        if List.length e.Driver.strategies > 1 then
          List.iter
            (fun (s : Explore.strategy_stats) ->
              Printf.printf ";   %-10s best %.6f s, %d epochs, %d steps%s\n"
                s.Explore.strategy s.Explore.s_best_cost s.Explore.s_epochs
                s.Explore.s_steps
                (match s.Explore.s_gate with
                | Explore.Not_gated -> ""
                | Explore.Gate_passed -> ", oracle: passed"
                | Explore.Gate_rejected f ->
                    Printf.sprintf ", oracle: rejected at %s" f.Explore.failed_check))
            e.Driver.strategies;
        List.iter
          (fun (t : Explore.epoch_trace) ->
            Printf.printf
              ";   epoch %3d: %4d candidates (%d cached), best %.6f s, %.3f s wall\n"
              t.Explore.epoch t.Explore.candidates t.Explore.cache_hits
              t.Explore.best_cost t.Explore.elapsed_seconds)
          e.Driver.trace
      end

(* Thin client path: ship the program text to a running hecated and print
   the artifact it returns. A warm server answers from its plan cache
   without re-running exploration, so repeat compiles are near-instant. *)
let compile_remote ~socket ~file ~scheme ~waterline ~sf ~strategy ~verbose =
  let program =
    let ic = open_in_bin file in
    Fun.protect ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let submit =
    {
      Hecate_serve.Protocol.program;
      scheme;
      sf_bits = sf;
      waterline_bits = waterline;
      max_epochs = 100;
      budget_seconds = None;
      strategy = (if strategy = Explore.default_strategy then None else Some strategy);
      stream = verbose;
    }
  in
  let on_progress ~strategy ~epoch ~best_cost =
    if verbose then
      Printf.eprintf "; [%s] epoch %3d: best %.6f s\n%!" strategy epoch best_cost
  in
  match Hecate_serve.Client.compile ~socket ~on_progress submit with
  | Error msg ->
      exit (render_diagnostic (Diagnostic.v ~code:Diagnostic.Precondition msg))
  | Ok { Hecate_serve.Client.result; client_seconds; _ } ->
      print_string result.Hecate_serve.Protocol.artifact;
      Printf.printf "; estimated latency: %.3f s (ring degree %d)\n"
        result.Hecate_serve.Protocol.estimated_seconds
        result.Hecate_serve.Protocol.secure_n;
      Printf.printf "; remote: origin=%s server=%.6fs round-trip=%.6fs fingerprint=%s\n"
        result.Hecate_serve.Protocol.origin result.Hecate_serve.Protocol.wall_seconds
        client_seconds result.Hecate_serve.Protocol.fingerprint;
      if result.Hecate_serve.Protocol.winner_strategy <> "" && verbose then
        Printf.printf "; remote winner strategy: %s\n"
          result.Hecate_serve.Protocol.winner_strategy

let compile_cmd =
  let run efmt file scheme waterline sf show_schedule jobs verbose passes timing ir_after
      strategy oracle remote =
    set_error_format efmt;
    handle_errors @@ fun () ->
    match remote with
    | Some socket -> compile_remote ~socket ~file ~scheme ~waterline ~sf ~strategy ~verbose
    | None ->
        let prog = Parser.parse_file file in
        let gate = gate_of ~oracle ~sf_bits:sf ~waterline_bits:waterline prog in
        let c =
          Driver.compile ?pool_size:jobs ?passes ~instr:(instr_of ir_after) ~strategy ?gate
            scheme ~sf_bits:sf ~waterline_bits:waterline prog
        in
        report_compiled ~verbose c;
        report_timing timing c;
        if show_schedule then begin
          print_endline "; lowered schedule (SEAL dialect):";
          Format.printf "%a@?" Hecate_backend.Schedule.pp
            (Hecate_backend.Schedule.lower c.Driver.prog)
        end
  in
  let schedule_arg =
    Arg.(value & flag & info [ "schedule" ]
           ~doc:"Also print the lowered buffer-addressed schedule.")
  in
  let remote_arg =
    Arg.(value & opt (some string) None & info [ "remote" ] ~docv:"SOCK"
           ~doc:"Compile through a running $(b,hecated) at this Unix socket instead of \
                 in-process. Repeat compiles of equivalent programs are answered from \
                 the server's plan cache without re-running exploration.")
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Scale-manage a .hec program and print the result.")
    Term.(const run $ error_format_arg $ file_arg $ scheme_arg $ waterline_arg $ sf_arg
          $ schedule_arg $ jobs_arg $ verbose_arg $ passes_arg $ timing_arg $ ir_after_arg
          $ strategy_arg $ oracle_arg $ remote_arg)

let run_cmd =
  let run efmt file scheme waterline sf seed jobs kernel_jobs verbose strategy =
    set_error_format efmt;
    handle_errors @@ fun () ->
    set_kernel_jobs kernel_jobs;
    let prog = Parser.parse_file file in
    let c =
      Driver.compile ?pool_size:jobs ~strategy scheme ~sf_bits:sf ~waterline_bits:waterline
        prog
    in
    report_compiled ~dump:false ~verbose c;
    (* random inputs in [0,1) for every declared input *)
    let g = Hecate_support.Prng.create ~seed in
    let inputs =
      List.map
        (fun v ->
          match (Prog.op c.Driver.prog v).Prog.kind with
          | Prog.Input { name } ->
              (name, Array.init prog.Prog.slot_count (fun _ -> Hecate_support.Prng.float01 g))
          | _ -> assert false)
        c.Driver.prog.Prog.inputs
    in
    let eval =
      Interp.context ~params:c.Driver.params
        ~rotations:(Interp.required_rotations c.Driver.prog) ()
    in
    let acc =
      Accuracy.measure eval ~waterline_bits:waterline c.Driver.prog ~inputs
        ~valid_slots:prog.Prog.slot_count
    in
    Printf.printf "; executed in %.3f s (ring degree %d, reduced-degree simulation)\n"
      acc.Accuracy.elapsed_seconds
      (Hecate_ckks.Eval.params eval).Hecate_ckks.Params.n;
    Printf.printf "; rmse vs plaintext reference: %.3e (max %.3e)\n" acc.Accuracy.rmse
      acc.Accuracy.max_abs_error;
    List.iteri
      (fun i out ->
        let k = min 8 (Array.length out) in
        Printf.printf "; output %d (first %d slots):" i k;
        Array.iter (fun x -> Printf.printf " %.5f" x) (Array.sub out 0 k);
        print_newline ())
      acc.Accuracy.outputs
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Input generator seed.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile and execute a .hec program on the in-repo CKKS backend.")
    Term.(const run $ error_format_arg $ file_arg $ scheme_arg $ waterline_arg $ sf_arg
          $ seed_arg $ jobs_arg $ kernel_jobs_arg $ verbose_arg $ strategy_arg)

let bench_cmd =
  let run efmt bench scheme waterline sf dump jobs kernel_jobs verbose passes timing ir_after
      strategy oracle =
    set_error_format efmt;
    handle_errors @@ fun () ->
    set_kernel_jobs kernel_jobs;
    let (b : Apps.t) = bench in
    Printf.printf "; benchmark %s (%d ops before scale management)\n" b.Apps.name
      (Prog.num_ops b.Apps.prog);
    let gate = gate_of ~oracle ~sf_bits:sf ~waterline_bits:waterline b.Apps.prog in
    let c =
      Driver.compile ?pool_size:jobs ?passes ~instr:(instr_of ir_after) ~strategy ?gate
        scheme ~sf_bits:sf ~waterline_bits:waterline b.Apps.prog
    in
    report_compiled ~dump ~verbose c;
    report_timing timing c
  in
  let bench_arg =
    Arg.(required & pos 0 (some bench_conv) None & info [] ~docv:"BENCH"
           ~doc:"Built-in benchmark name (sf, hcd, mlp, lenet, lenet-r, lr-e2, lr-e3, pr-e2, pr-e3).")
  in
  let dump_arg =
    Arg.(value & flag & info [ "dump" ] ~doc:"Print the managed IR (can be large).")
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Compile a built-in benchmark and report statistics.")
    Term.(const run $ error_format_arg $ bench_arg $ scheme_arg $ waterline_arg $ sf_arg
          $ dump_arg $ jobs_arg $ kernel_jobs_arg $ verbose_arg $ passes_arg $ timing_arg
          $ ir_after_arg $ strategy_arg $ oracle_arg)

let dump_cmd =
  let run efmt bench out =
    set_error_format efmt;
    handle_errors @@ fun () ->
    let (b : Apps.t) = bench in
    let text = Printer.to_string b.Apps.prog in
    match out with
    | None -> print_string text
    | Some path ->
        let oc = open_out path in
        output_string oc
          (Printf.sprintf "# %s: unmanaged HECATE IR exported by `hecatec dump`\n" b.Apps.name);
        output_string oc text;
        close_out oc;
        Printf.printf "wrote %s (%d ops)\n" path (Prog.num_ops b.Apps.prog)
  in
  let bench_arg =
    Arg.(required & pos 0 (some bench_conv) None & info [] ~docv:"BENCH"
           ~doc:"Built-in benchmark to export.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write to FILE instead of stdout.")
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Export a built-in benchmark as a textual .hec program.")
    Term.(const run $ error_format_arg $ bench_arg $ out_arg)

let info_cmd =
  let run efmt file =
    set_error_format efmt;
    handle_errors @@ fun () ->
    let prog = Parser.parse_file file in
    let uses =
      Array.fold_left (fun acc (o : Prog.op) -> acc + Array.length o.Prog.args) 0 prog.Prog.body
    in
    Printf.printf "ops:            %d\n" (Prog.num_ops prog);
    Printf.printf "use-def edges:  %d\n" uses;
    Printf.printf "inputs:         %d\n" (List.length prog.Prog.inputs);
    Printf.printf "outputs:        %d\n" (List.length prog.Prog.outputs);
    (match Smu.generate prog with
    | smu ->
        Printf.printf "SMUs:           %d\n" (Smu.unit_count smu);
        Printf.printf "SMU edges:      %d\n" (Smu.edge_count smu)
    | exception Invalid_argument _ ->
        Printf.printf "SMUs:           n/a (program already scale-managed)\n");
    let live = Liveness.analyze prog in
    Printf.printf "peak live:      %d ciphertexts\n" live.Liveness.peak_live;
    (* the ciphertext pool of the lowered schedule: what actually runs *)
    match Hecate_backend.Schedule.lower prog with
    | s -> Printf.printf "buffers needed: %d\n" s.Hecate_backend.Schedule.cipher_buffers
    | exception Invalid_argument _ ->
        print_endline "buffers needed: n/a (constants are not encoded yet; see compile --schedule)"
  in
  Cmd.v (Cmd.info "info" ~doc:"Structural statistics of a .hec program.")
    Term.(const run $ error_format_arg $ file_arg)

let batch_cmd =
  let run efmt file layout scheme waterline sf seed jobs kernel_jobs execute dump_unmanaged
      verbose timing =
    set_error_format efmt;
    handle_errors @@ fun () ->
    set_kernel_jobs kernel_jobs;
    let surface =
      try Surface.parse_file file
      with Parser.Parse_error { line; message } ->
        Diagnostic.error
          (Diagnostic.v ~code:Diagnostic.Parse_error
             ~hint:"see docs/BATCHING.md for the scalar surface grammar"
             (Printf.sprintf "line %d: %s" line message))
    in
    let lowered =
      match Lower.lower ~spec:layout surface with
      | Ok l -> l
      | Error d -> Diagnostic.error d
    in
    Printf.printf "; batch %s: %d slots, layout %s [%s]\n" surface.Surface.name
      lowered.Lower.slot_count
      (Lower.spec_to_string layout)
      (Hecate_batch.Layout.assignment_to_string lowered.Lower.assignment);
    Printf.printf "; lowered: %d ops, %d rotations (scalar sites batched into vector steps)\n"
      lowered.Lower.ops lowered.Lower.rotations;
    if dump_unmanaged then print_string (Printer.to_string lowered.Lower.prog);
    let c =
      Driver.compile ?pool_size:jobs
        ~passes:(Pass_manager.parse_exn Lower.pipeline)
        scheme ~sf_bits:sf ~waterline_bits:waterline lowered.Lower.prog
    in
    Printf.printf "; cleaned: %d rotations after %s\n"
      (Lower.count_rotations c.Driver.prog)
      Lower.pipeline;
    Printf.printf "; fingerprint: %s\n" (Prog.fingerprint lowered.Lower.prog);
    report_compiled ~dump:(not dump_unmanaged) ~verbose c;
    report_timing timing c;
    if execute then begin
      (* random logical inputs, packed per the chosen layouts *)
      let g = Hecate_support.Prng.create ~seed in
      let logical =
        List.filter_map
          (fun (d : Surface.array_decl) ->
            match d.Surface.kind with
            | Surface.Input ->
                Some
                  ( d.Surface.name,
                    Array.init (Surface.array_size d) (fun _ ->
                        Hecate_support.Prng.float01 g) )
            | _ -> None)
          surface.Surface.arrays
      in
      let inputs = List.map (fun (n, d) -> (n, Lower.pack_input lowered n d)) logical in
      let eval =
        Interp.context ~params:c.Driver.params
          ~rotations:(Interp.required_rotations c.Driver.prog) ()
      in
      let rep = Interp.execute eval ~waterline_bits:waterline c.Driver.prog ~inputs in
      let refs = Surface.execute surface ~inputs:logical in
      let err2 = ref 0. and maxerr = ref 0. and count = ref 0 in
      List.iter2
        (fun (name, expect) packed_out ->
          let got = Lower.decode_output lowered name packed_out in
          Array.iteri
            (fun i x ->
              let e = abs_float (got.(i) -. x) in
              err2 := !err2 +. (e *. e);
              maxerr := Float.max !maxerr e;
              incr count)
            expect)
        refs rep.Interp.outputs;
      Printf.printf "; executed in %.3f s (ring degree %d, reduced-degree simulation)\n"
        rep.Interp.elapsed_seconds
        (Hecate_ckks.Eval.params eval).Hecate_ckks.Params.n;
      Printf.printf "; rmse vs scalar reference: %.3e (max %.3e)\n"
        (sqrt (!err2 /. float_of_int (max 1 !count)))
        !maxerr;
      List.iter
        (fun (name, expect) ->
          let k = min 8 (Array.length expect) in
          Printf.printf "; output %s (first %d elements, scalar reference):" name k;
          Array.iter (fun x -> Printf.printf " %.5f" x) (Array.sub expect 0 k);
          print_newline ())
        refs
    end
  in
  let layout_conv =
    let parse s =
      match Lower.spec_of_string (String.lowercase_ascii s) with
      | Some spec -> Ok spec
      | None -> Error (`Msg "layout must be one of: auto, row, col, diag, naive")
    in
    Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Lower.spec_to_string s))
  in
  let layout_arg =
    Arg.(value & opt layout_conv Lower.Auto & info [ "l"; "layout" ] ~docv:"LAYOUT"
           ~doc:"Slot layout for array packing: $(b,auto) (rotation-count cost model picks \
                 per-array), $(b,row), $(b,col), $(b,diag), or $(b,naive) (one-slot \
                 lowering baseline, no batching across loop iterations).")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Input generator seed.")
  in
  let exec_arg =
    Arg.(value & flag & info [ "run" ]
           ~doc:"Also execute on the in-repo CKKS backend and report the error against \
                 exact scalar reference execution.")
  in
  let dump_unmanaged_arg =
    Arg.(value & flag & info [ "dump-vector-ir" ]
           ~doc:"Print the unmanaged vector IR produced by the lowering instead of the \
                 managed program.")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Compile a scalar loop program (.bhec) into packed vector IR: choose slot \
             layouts, batch loop iterations into rotations, then scale-manage.")
    Term.(const run $ error_format_arg $ file_arg $ layout_arg $ scheme_arg $ waterline_arg
          $ sf_arg $ seed_arg $ jobs_arg $ kernel_jobs_arg $ exec_arg $ dump_unmanaged_arg
          $ verbose_arg $ timing_arg)

let list_passes_arg =
  Arg.(value & flag & info [ "list-passes" ]
         ~doc:"Print the registered IR passes (name and description) and exit.")

let default_term =
  let run list_passes =
    if list_passes then begin
      List.iter
        (fun (p : Pass_manager.pass) ->
          Printf.printf "%-18s %s\n" p.Pass_manager.name p.Pass_manager.description)
        (Pass_manager.registered ());
      `Ok ()
    end
    else `Help (`Pager, None)
  in
  Term.(ret (const run $ list_passes_arg))

let () =
  let doc = "HECATE: performance-aware scale optimization for RNS-CKKS programs" in
  exit
    (Cmd.eval
       (Cmd.group ~default:default_term (Cmd.info "hecatec" ~doc)
          [ compile_cmd; run_cmd; bench_cmd; dump_cmd; info_cmd; batch_cmd ]))
