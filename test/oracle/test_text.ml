(* Differential test of the text path a plan-cache hit runs (the hex-float
   writer, the one-walk fingerprint, the printer, the IR number lexer and
   the JSON string escaper and reader) against the code they replaced,
   kept in Text_ref. Everything must agree byte for byte: fingerprints
   address the on-disk plan cache, printed IR is pinned by the golden
   files, and protocol lines travel between old and new builds. *)

module Prog = Hecate_ir.Prog
module Parser = Hecate_ir.Parser
module Printer = Hecate_ir.Printer
module Hexfloat = Hecate_ir.Hexfloat
module Json = Hecate_support.Json
module Driver = Hecate.Driver
module Apps = Hecate_apps.Apps
module Batch_apps = Hecate_apps.Batch_apps
module Lower = Hecate_batch.Lower
module Surface = Hecate_batch.Surface
module Gen = Hecate_fuzz.Gen
module Json_ref = Text_ref.Json_ref
module Printer_ref = Text_ref.Printer_ref
module Parser_ref = Text_ref.Parser_ref
module Fingerprint_ref = Text_ref.Fingerprint_ref

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Hex floats                                                          *)
(* ------------------------------------------------------------------ *)

(* Bit patterns weighted toward the cases a "%h" writer can get wrong:
   NaN payloads and infinities (exponent all ones), subnormals and zeros
   (exponent zero), exact powers of two, short significands, either sign. *)
let float_bits =
  let open QCheck.Gen in
  let sign = map (fun b -> if b then Int64.min_int else 0L) bool in
  let field e m = Int64.logor (Int64.shift_left (Int64.of_int e) 52) m in
  let fraction = map (fun x -> Int64.logand x 0xf_ffff_ffff_ffffL) ui64 in
  let signed g = map2 Int64.logor sign g in
  frequency
    [
      (4, ui64);
      (1, signed (map (field 0x7ff) fraction));
      (1, signed (map (field 0) fraction));
      (1, signed (map (fun e -> field e 0L) (int_range 0 0x7ff)));
      ( 1,
        signed
          (map2
             (fun e m -> field e (Int64.shift_left (Int64.of_int m) 40))
             (int_range 0 0x7fe) (int_bound 0xfff)) );
    ]

let arb_float_bits = QCheck.make ~print:(Printf.sprintf "0x%Lx") float_bits

let prop_hexfloat_matches_printf =
  QCheck.Test.make ~name:"Hexfloat.to_string is Printf and Format %h" ~count:100_000
    arb_float_bits (fun bits ->
      let x = Int64.float_of_bits bits in
      let s = Hexfloat.to_string x in
      s = Printf.sprintf "%h" x && s = Format.asprintf "%h" x)

let test_hexfloat_specials () =
  List.iter
    (fun x ->
      Alcotest.(check string)
        (Printf.sprintf "%Lx" (Int64.bits_of_float x))
        (Printf.sprintf "%h" x) (Hexfloat.to_string x))
    [
      0.; -0.; 1.; -1.; 0.5; 0.1; infinity; neg_infinity; nan; -.nan; Float.max_float;
      -.Float.max_float; Float.min_float; Float.epsilon; 5e-324; -5e-324;
      Int64.float_of_bits 0x7ff0000000000001L; Int64.float_of_bits 0xfff8000000000001L;
      Int64.float_of_bits 0x000fffffffffffffL;
    ]

(* ------------------------------------------------------------------ *)
(* IR text                                                             *)
(* ------------------------------------------------------------------ *)

(* [Ok] with everything the parse produced (provenance included, floats to
   the bit), or the line and message it failed with. *)
let parse_outcome text =
  match Parser.parse text with
  | p -> Ok (Printer_ref.to_string ~provenance:true p)
  | exception Parser.Parse_error { line; message } -> Error (line, message)

let parse_ref_outcome text =
  match Parser_ref.parse text with
  | p -> Ok (Printer_ref.to_string ~provenance:true p)
  | exception Parser_ref.Parse_error { line; message } -> Error (line, message)

let outcome =
  Alcotest.(result string (pair int string))

let check_parse what text =
  Alcotest.check outcome what (parse_ref_outcome text) (parse_outcome text)

(* A program whose one constant is the token [tok]: the number lexer on
   every kind of number text. *)
let const_program tok =
  Printf.sprintf "func f(%%0: cipher \"x\") slots=4 {\n  %%1 = const %s\n  %%2 = mul %%0, %%1\n%s"
    tok "  return %2\n}\n"

let rotate_program tok =
  Printf.sprintf "func f(%%0: cipher \"x\") slots=4 {\n  %%1 = rotate %%0, %s\n%s" tok
    "  return %1\n}\n"

let prop_number_tokens_float =
  QCheck.Test.make ~name:"IR numbers: printed floats lex as before" ~count:20_000 arb_float_bits
    (fun bits ->
      let tok = Printf.sprintf "%h" (Int64.float_of_bits bits) in
      parse_outcome (const_program tok) = parse_ref_outcome (const_program tok))

(* Any run of number characters, as a constant and as a rotation amount:
   integers, decimals, hex, exponents, and tokens neither lexer accepts. *)
let arb_number_token =
  let open QCheck.Gen in
  let number_char =
    oneofl
      ([ '.'; '-'; '+'; 'x'; 'p'; 'e'; 'E'; 'a'; 'f'; 'F'; 'c' ]
      @ List.init 10 (fun i -> Char.chr (48 + i)))
  in
  QCheck.make ~print:Fun.id
    (map2 (fun first rest -> String.make 1 first ^ rest)
       (oneofl [ '0'; '1'; '9'; '-'; '+' ])
       (string_size ~gen:number_char (int_bound 24)))

let prop_number_tokens_any =
  QCheck.Test.make ~name:"IR numbers: any number text lexes as before" ~count:20_000
    arb_number_token (fun tok ->
      parse_outcome (const_program tok) = parse_ref_outcome (const_program tok)
      && parse_outcome (rotate_program tok) = parse_ref_outcome (rotate_program tok))

(* Tokens shaped like "%h" text with every piece varied: signs, prefixes,
   leading digits, fractions of 0 to 15 digits in either case, exponent
   markers, signs and 0 to 6 digits. They sit on the edges of
   [Hexfloat.read]'s fast path, and past them. *)
let arb_hex_token =
  let open QCheck.Gen in
  let hex = "0123456789abcdefABCDEF" in
  let digits alphabet =
    let digit = map (String.get alphabet) (int_bound (String.length alphabet - 1)) in
    string_size ~gen:digit (int_range 0 15)
  in
  QCheck.make ~print:Fun.id
    (map (String.concat "")
       (flatten_l
          [
            oneofl [ ""; "-"; "+"; "--" ];
            oneofl [ "0x"; "0X"; "0"; "1x" ];
            oneofl [ "0"; "1"; "2"; "f"; "" ];
            oneof [ return ""; map (fun d -> "." ^ d) (digits hex) ];
            oneofl [ "p"; "p"; "P"; ""; "e" ];
            oneofl [ ""; "+"; "-" ];
            map (fun d -> String.sub d 0 (min 6 (String.length d))) (digits "0123456789");
          ]))

let prop_number_tokens_hex =
  QCheck.Test.make ~name:"IR numbers: hex-float-shaped text lexes as before" ~count:20_000
    arb_hex_token (fun tok ->
      parse_outcome (const_program tok) = parse_ref_outcome (const_program tok))

(* Every check a program gets: the fingerprint and structural digest, the
   printed text with and without provenance, and the parse of each. *)
let check_program what (p : Prog.t) =
  Alcotest.(check string)
    (what ^ ": fingerprint")
    (Fingerprint_ref.fingerprint p) (Prog.fingerprint p);
  Alcotest.(check string)
    (what ^ ": structural digest")
    (Fingerprint_ref.structural_digest p) (Prog.structural_digest p);
  List.iter
    (fun provenance ->
      let text = Printer_ref.to_string ~provenance p in
      Alcotest.(check string) (what ^ ": printed") text (Printer.to_string ~provenance p);
      Alcotest.(check string)
        (what ^ ": pp")
        text
        (Format.asprintf "%a" (Printer.pp ~provenance) p);
      check_parse (what ^ ": parse of the printed text") text)
    [ false; true ]

let prop_gen_programs =
  QCheck.Test.make ~name:"Gen programs: fingerprint, print and parse as before" ~count:300
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      check_program (Printf.sprintf "Gen seed %d" seed) (Hecate_fuzz.Gen.generate ~seed ()).prog;
      true)

(* The plan cache key as it was written before: the digest of the old
   fingerprint and the configuration, "%h" for the waterline, the strategy
   appended unless it is the default. Entries on disk are named by it. *)
let test_plan_keys () =
  List.iter
    (fun seed ->
      let p = (Hecate_fuzz.Gen.generate ~seed ()).prog in
      List.iter
        (fun (scheme, waterline_bits, strategy) ->
          let suffix = if strategy = Hecate.Explore.default_strategy then "" else "|" ^ strategy in
          let old =
            Digest.to_hex
              (Digest.string
                 (Printf.sprintf "plan-v1|%s|%s|%d|%h|%d%s" (Fingerprint_ref.fingerprint p)
                    (Driver.scheme_name scheme) 28 waterline_bits 100 suffix))
          in
          Alcotest.(check string)
            (Printf.sprintf "seed %d, waterline %h" seed waterline_bits)
            old
            (Hecate.Plancache.key ~strategy ~scheme ~sf_bits:28 ~waterline_bits ~max_epochs:100 p))
        [
          (Driver.Hecate, 20., Hecate.Explore.default_strategy);
          (Driver.Eva, 15.5, Hecate.Explore.default_strategy);
          (Driver.Smse, 0.1, "beam");
          (Driver.Pars, 1e300, Hecate.Explore.default_strategy);
        ])
    (List.init 50 Fun.id)

(* An unmanaged program, then what EVA and PARS make of it (typed, with
   encodes, rescales and modswitches). *)
let check_with_compiled what p =
  check_program what p;
  List.iter
    (fun scheme ->
      let c = Driver.compile scheme ~sf_bits:28 ~waterline_bits:20. p in
      check_program (what ^ " " ^ Driver.scheme_name scheme) c.Driver.prog)
    [ Driver.Eva; Driver.Pars ]

let test_apps () =
  List.iter (fun (a : Apps.t) -> check_with_compiled ("reduced " ^ a.Apps.name) a.Apps.prog)
    (Apps.reduced_suite ());
  List.iter (fun (a : Apps.t) -> check_program ("paper " ^ a.Apps.name) a.Apps.prog)
    (Apps.paper_suite ())

let lowered what surface =
  match Lower.lower ~spec:Lower.Auto surface with
  | Ok l -> l.Lower.prog
  | Error d -> Alcotest.failf "%s: %s" what (Hecate_ir.Diagnostic.to_string d)

let test_batch_apps () =
  List.iter
    (fun (b : Batch_apps.t) ->
      check_with_compiled ("lowered " ^ b.Batch_apps.name)
        (lowered b.Batch_apps.name b.Batch_apps.surface))
    (Batch_apps.suite ());
  check_with_compiled "examples/matvec.bhec"
    (lowered "matvec.bhec" (Surface.parse_file "../../examples/matvec.bhec"))

let read path = In_channel.with_open_bin path In_channel.input_all

let files dir suffix =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f suffix)
  |> List.sort compare
  |> List.map (Filename.concat dir)

let test_files () =
  let paths = files "../../examples" ".hec" @ files "../golden" ".ir" @ files "../corpus" ".hec" in
  Alcotest.(check bool) "found the committed programs" true (List.length paths >= 30);
  List.iter
    (fun path ->
      let text = read path in
      check_parse path text;
      check_program path (Parser.parse text))
    paths

(* ------------------------------------------------------------------ *)
(* JSON strings                                                        *)
(* ------------------------------------------------------------------ *)

let rec of_ref = function
  | Json_ref.Null -> Json.Null
  | Json_ref.Bool b -> Json.Bool b
  | Json_ref.Num f -> Json.Num f
  | Json_ref.Str s -> Json.Str s
  | Json_ref.Arr l -> Json.Arr (List.map of_ref l)
  | Json_ref.Obj l -> Json.Obj (List.map (fun (k, v) -> (k, of_ref v)) l)

let json_outcome s = match Json.parse s with v -> Ok v | exception Json.Parse_error m -> Error m

let json_ref_outcome s =
  match Json_ref.parse s with v -> Ok (of_ref v) | exception Json_ref.Parse_error m -> Error m

(* Strings over all 256 byte values, weighted toward what JSON escapes. *)
let arb_bytes =
  let open QCheck.Gen in
  let special =
    oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; '\b'; '\012'; '\000'; '\031'; '\127'; '\255'; '/'; 'u' ]
  in
  QCheck.make ~print:String.escaped
    (string_size ~gen:(frequency [ (3, char); (1, special) ]) (int_bound 100))

let prop_json_strings =
  QCheck.Test.make ~name:"Json strings: render and parse as before" ~count:20_000 arb_bytes
    (fun s ->
      let rendered = Json.render (Json.Obj [ (s, Json.Arr [ Json.Str s ]) ]) in
      rendered = Json_ref.render (Json_ref.Obj [ (s, Json_ref.Arr [ Json_ref.Str s ]) ])
      && json_outcome rendered = Ok (Json.Obj [ (s, Json.Arr [ Json.Str s ]) ])
      && List.for_all
           (fun text -> json_outcome text = json_ref_outcome text)
           [ rendered; "\"" ^ s ^ "\""; "[\"" ^ s; s ])

let test_json_all_bytes () =
  let s = String.init 256 Char.chr in
  let rendered = Json.render (Json.Str s) in
  Alcotest.(check string) "rendered" (Json_ref.render (Json_ref.Str s)) rendered;
  Alcotest.(check bool) "read back" true (json_outcome rendered = Ok (Json.Str s));
  Alcotest.(check bool) "raw bytes in quotes" true
    (json_outcome ("\"" ^ s ^ "\"") = json_ref_outcome ("\"" ^ s ^ "\""))

let () =
  Alcotest.run "text"
    [
      ( "hexfloat",
        [
          Alcotest.test_case "special values" `Quick test_hexfloat_specials;
          qtest prop_hexfloat_matches_printf;
        ] );
      ( "ir",
        [
          qtest prop_number_tokens_float;
          qtest prop_number_tokens_any;
          qtest prop_number_tokens_hex;
          qtest prop_gen_programs;
          Alcotest.test_case "plan-v1 keys" `Quick test_plan_keys;
          Alcotest.test_case "Apps" `Quick test_apps;
          Alcotest.test_case "lowered Batch_apps" `Quick test_batch_apps;
          Alcotest.test_case "examples, golden, corpus" `Quick test_files;
        ] );
      ( "json",
        [
          Alcotest.test_case "all 256 bytes" `Quick test_json_all_bytes;
          qtest prop_json_strings;
        ] );
    ]
