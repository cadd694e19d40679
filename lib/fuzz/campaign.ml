module Prog = Hecate_ir.Prog
module Printer = Hecate_ir.Printer
module Parser = Hecate_ir.Parser

type case_failure = {
  index : int;
  case_seed : int;
  failure : Oracle.failure;
  original : Prog.t;
  shrunk : Prog.t;
  repro_path : string option;
}

type report = {
  count : int;
  failures : case_failure list;
  elapsed_seconds : float;
  fan_cases : int;
  fused_cases : int;
}

let repro_text ~case_seed ~(oracle : Oracle.config) (failure : Oracle.failure) prog =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "# fuzz-repro seed=%d check=%s scheme=%s sf_bits=%d waterline=%g%s\n"
       case_seed
       (Oracle.check_name failure.Oracle.check)
       (match failure.Oracle.scheme with
       | Some s -> Hecate.Driver.scheme_name s
       | None -> "all")
       oracle.Oracle.sf_bits oracle.Oracle.waterline_bits
       (match failure.Oracle.code with
       | Some c -> " code=" ^ Hecate_ir.Diagnostic.code_name c
       | None -> ""));
  Buffer.add_string b ("# " ^ failure.Oracle.detail ^ "\n");
  Buffer.add_string b
    (Printf.sprintf
       "# replay: inputs are re-derived from the seed (docs/TESTING.md); regenerate the \
        unshrunk case with `bench/main.exe fuzz --seed %d --count 1`\n"
       case_seed);
  Buffer.add_string b (Printer.to_string prog);
  Buffer.contents b

let write_repro ~dir ~case_seed ~oracle failure prog =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path =
    Filename.concat dir
      (Printf.sprintf "fuzz_seed%d_%s.hec" case_seed (Oracle.check_name failure.Oracle.check))
  in
  let oc = open_out path in
  output_string oc (repro_text ~case_seed ~oracle failure prog);
  close_out oc;
  path

(* "key=value" scanner for the reproducer header line. *)
let header_field line key =
  let tag = key ^ "=" in
  let rec find i =
    if i + String.length tag > String.length line then None
    else if String.sub line i (String.length tag) = tag then begin
      let start = i + String.length tag in
      let stop = ref start in
      while !stop < String.length line && line.[!stop] <> ' ' do
        incr stop
      done;
      Some (String.sub line start (!stop - start))
    end
    else find (i + 1)
  in
  find 0

let read_header path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  match String.split_on_char '\n' text with
  | first :: _ when String.length first >= 12 && String.sub first 0 12 = "# fuzz-repro" ->
      (text, first)
  | _ -> invalid_arg (Printf.sprintf "Campaign.replay: %s has no '# fuzz-repro' header" path)

let recorded_class path =
  let _, header = read_header path in
  let check =
    match Option.bind (header_field header "check") Oracle.check_of_name with
    | Some c -> c
    | None ->
        invalid_arg (Printf.sprintf "Campaign.recorded_class: %s header lacks a known check=" path)
  in
  let code = Option.bind (header_field header "code") Hecate_ir.Diagnostic.code_of_name in
  (check, code)

let replay ?transform path =
  let text, header = read_header path in
  let field key =
    match header_field header key with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Campaign.replay: %s header lacks %s=" path key)
  in
  let seed = int_of_string (field "seed") in
  let oracle =
    {
      Oracle.default_config with
      Oracle.sf_bits = int_of_string (field "sf_bits");
      waterline_bits = float_of_string (field "waterline");
    }
  in
  let prog = Parser.parse text in
  Oracle.run ?transform oracle prog ~inputs:(Gen.inputs_for ~seed prog)

let run ?gen ?(oracle = Oracle.default_config) ?transform ?out_dir ?(log = ignore) ~seed
    ~count () =
  let t0 = Unix.gettimeofday () in
  let failures = ref [] in
  (* which of the executor's fused instructions the current case's
     compiled programs lowered to, over all schemes *)
  let fan = ref false and fused = ref false in
  let fan_cases = ref 0 and fused_cases = ref 0 in
  let observe scheme p =
    let p = match transform with Some f -> f scheme p | None -> p in
    (match Hecate_backend.Schedule.lower p with
    | s ->
        Array.iter
          (function
            | Hecate.Select.Rotate_fan _ -> fan := true
            | Hecate.Select.Mul_rescale _ -> fused := true
            | _ -> ())
          s.Hecate_backend.Schedule.instructions
    | exception _ -> () (* the oracle reports a program that does not lower *));
    p
  in
  for index = 0 to count - 1 do
    let case_seed = seed + index in
    let case = Gen.generate ?config:gen ~seed:case_seed () in
    fan := false;
    fused := false;
    let result = Oracle.run ~transform:observe oracle case.Gen.prog ~inputs:case.Gen.inputs in
    if !fan then incr fan_cases;
    if !fused then incr fused_cases;
    match result with
    | Ok () -> ()
    | Error failure ->
        log
          (Printf.sprintf "case %d (seed %d, %d ops) FAILED %s" index case_seed
             (Prog.num_ops case.Gen.prog) (Oracle.describe failure));
        (* shrink while the same failure class (check + diagnostic code)
           still fails *)
        let keep candidate =
          match
            Oracle.run ?transform oracle candidate ~inputs:(Gen.inputs_for ~seed:case_seed candidate)
          with
          | Error f -> Oracle.same_class f failure
          | Ok () -> false
        in
        let shrunk = Shrink.shrink ~keep case.Gen.prog in
        log
          (Printf.sprintf "  shrunk %d -> %d ops" (Prog.num_ops case.Gen.prog)
             (Prog.num_ops shrunk));
        let repro_path =
          Option.map
            (fun dir ->
              let p = write_repro ~dir ~case_seed ~oracle failure shrunk in
              log (Printf.sprintf "  wrote %s" p);
              p)
            out_dir
        in
        failures :=
          { index; case_seed; failure; original = case.Gen.prog; shrunk; repro_path }
          :: !failures
  done;
  {
    count;
    failures = List.rev !failures;
    elapsed_seconds = Unix.gettimeofday () -. t0;
    fan_cases = !fan_cases;
    fused_cases = !fused_cases;
  }
