(* Hecate_ir.Parser as it was before its lexer read numbers in one loop:
   a closure per character, and [int_of_string_opt] tried on every number
   before [float_of_string_opt]. Kept verbatim as the differential oracle
   for [Parser.parse], which must return the same program (provenance
   included) or fail at the same line with the same message. *)

open Hecate_ir

exception Parse_error of { line : int; message : string }

type token =
  | Ident of string
  | Value of int (* %N *)
  | Number of float
  | Int of int
  | Str of string
  | Lparen
  | Rparen
  | Lbrace
  | Rbrace
  | Lbracket
  | Rbracket
  | Comma
  | Equals
  | Colon
  | Lt
  | Gt
  | Eof

type lexer = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable pending_prov : string option;
      (* payload of the last "# !from ..." comment crossed, awaiting
         attachment to the op whose line it trailed *)
}

let error lx msg = raise (Parse_error { line = lx.line; message = msg })

let is_digit c = c >= '0' && c <= '9'
let is_ident_char c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || is_digit c || c = '_'

let is_number_char c =
  is_digit c || c = '.' || c = '-' || c = '+' || c = 'x' || c = 'p' || c = 'e' || c = 'E'
  || (c >= 'a' && c <= 'f')
  || (c >= 'A' && c <= 'F')

let rec skip_ws lx =
  if lx.pos < String.length lx.src then
    match lx.src.[lx.pos] with
    | ' ' | '\t' | '\r' ->
        lx.pos <- lx.pos + 1;
        skip_ws lx
    | '\n' ->
        lx.pos <- lx.pos + 1;
        lx.line <- lx.line + 1;
        skip_ws lx
    | '#' ->
        (* comment to end of line; "# !from ..." carries provenance *)
        let start = lx.pos + 1 in
        while lx.pos < String.length lx.src && lx.src.[lx.pos] <> '\n' do
          lx.pos <- lx.pos + 1
        done;
        let comment = String.trim (String.sub lx.src start (lx.pos - start)) in
        let tag = "!from " in
        if String.length comment > String.length tag
           && String.sub comment 0 (String.length tag) = tag
        then
          lx.pending_prov <-
            Some (String.sub comment (String.length tag) (String.length comment - String.length tag));
        skip_ws lx
    | _ -> ()

let lex_while lx pred =
  let start = lx.pos in
  while lx.pos < String.length lx.src && pred lx.src.[lx.pos] do
    lx.pos <- lx.pos + 1
  done;
  String.sub lx.src start (lx.pos - start)

let next_token lx =
  skip_ws lx;
  if lx.pos >= String.length lx.src then Eof
  else
    let c = lx.src.[lx.pos] in
    match c with
    | '(' -> lx.pos <- lx.pos + 1; Lparen
    | ')' -> lx.pos <- lx.pos + 1; Rparen
    | '{' -> lx.pos <- lx.pos + 1; Lbrace
    | '}' -> lx.pos <- lx.pos + 1; Rbrace
    | '[' -> lx.pos <- lx.pos + 1; Lbracket
    | ']' -> lx.pos <- lx.pos + 1; Rbracket
    | ',' -> lx.pos <- lx.pos + 1; Comma
    | '=' -> lx.pos <- lx.pos + 1; Equals
    | ':' -> lx.pos <- lx.pos + 1; Colon
    | '<' -> lx.pos <- lx.pos + 1; Lt
    | '>' -> lx.pos <- lx.pos + 1; Gt
    | '%' ->
        lx.pos <- lx.pos + 1;
        let digits = lex_while lx is_digit in
        if digits = "" then error lx "expected value id after '%'" else Value (int_of_string digits)
    | '"' ->
        lx.pos <- lx.pos + 1;
        let s = lex_while lx (fun c -> c <> '"') in
        if lx.pos >= String.length lx.src then error lx "unterminated string";
        lx.pos <- lx.pos + 1;
        Str s
    | c when is_digit c || c = '-' || c = '+' ->
        let s = lex_while lx is_number_char in
        (match int_of_string_opt s with
        | Some i -> Int i
        | None -> (
            match float_of_string_opt s with
            | Some f -> Number f
            | None -> error lx (Printf.sprintf "bad number %S" s)))
    | c when is_ident_char c -> Ident (lex_while lx is_ident_char)
    | c -> error lx (Printf.sprintf "unexpected character %C" c)

type parser_state = { lx : lexer; mutable tok : token }

let advance st = st.tok <- next_token st.lx

let expect st tok msg =
  if st.tok = tok then advance st else error st.lx msg

let expect_ident st name =
  match st.tok with
  | Ident s when s = name -> advance st
  | _ -> error st.lx (Printf.sprintf "expected %S" name)

let parse_ident st =
  match st.tok with
  | Ident s -> advance st; s
  | _ -> error st.lx "expected identifier"

let parse_int st =
  match st.tok with
  | Int i -> advance st; i
  | _ -> error st.lx "expected integer"

let parse_float st =
  match st.tok with
  | Int i -> advance st; float_of_int i
  | Number f -> advance st; f
  | _ -> error st.lx "expected number"

let parse_value st =
  match st.tok with
  | Value v -> advance st; v
  | _ -> error st.lx "expected value reference"

(* Consume and discard a printed type annotation: ": free" or
   ": cipher<20,1>". *)
let skip_type_annotation st =
  if st.tok = Colon then begin
    advance st;
    ignore (parse_ident st);
    if st.tok = Lt then begin
      while st.tok <> Gt && st.tok <> Eof do
        advance st
      done;
      expect st Gt "expected '>' closing type annotation"
    end
  end

let parse_key_eq_number st key =
  expect_ident st key;
  expect st Equals (Printf.sprintf "expected '=' after %s" key)

let parse prog_text =
  let lx = { src = prog_text; pos = 0; line = 1; pending_prov = None } in
  let st = { lx; tok = Eof } in
  advance st;
  expect_ident st "func";
  let name = parse_ident st in
  expect st Lparen "expected '('";
  (* inputs: %N: cipher "name" *)
  let inputs = ref [] in
  let rec parse_inputs () =
    match st.tok with
    | Rparen -> advance st
    | Value v ->
        advance st;
        expect st Colon "expected ':' in argument";
        expect_ident st "cipher";
        let arg_name = match st.tok with Str s -> advance st; s | _ -> Printf.sprintf "arg%d" v in
        inputs := (v, arg_name) :: !inputs;
        (match st.tok with Comma -> advance st; parse_inputs () | _ -> parse_inputs ())
    | _ -> error lx "malformed argument list"
  in
  parse_inputs ();
  parse_key_eq_number st "slots";
  let slot_count = parse_int st in
  expect st Lbrace "expected '{'";
  (* any provenance comment crossed so far trailed the header, not an op *)
  lx.pending_prov <- None;
  (* body *)
  let remap = Hashtbl.create 64 in
  let ops = ref [] in
  let count = ref 0 in
  let emit old_id kind args =
    let id = !count in
    incr count;
    Hashtbl.replace remap old_id id;
    ops := { Prog.id; kind; args; ty = Types.Free; prov = None } :: !ops
  in
  let lookup v =
    match Hashtbl.find_opt remap v with
    | Some id -> id
    | None -> error lx (Printf.sprintf "use of undefined value %%%d" v)
  in
  List.iter
    (fun (old_id, arg_name) -> emit old_id (Prog.Input { name = arg_name }) [||])
    (List.rev !inputs);
  let outputs = ref [] in
  let rec parse_body () =
    match st.tok with
    | Rbrace -> advance st
    | Ident "return" ->
        advance st;
        let rec collect () =
          outputs := lookup (parse_value st) :: !outputs;
          match st.tok with
          | Comma -> advance st; collect ()
          | _ -> ()
        in
        collect ();
        parse_body ()
    | Value old_id ->
        advance st;
        expect st Equals "expected '='";
        let opname = parse_ident st in
        (match opname with
        | "input" ->
            let n = (match st.tok with Str s -> advance st; s | _ -> error lx "expected name") in
            emit old_id (Prog.Input { name = n }) [||]
        | "const" -> (
            match st.tok with
            | Lbracket ->
                advance st;
                let vals = ref [] in
                let rec elems () =
                  match st.tok with
                  | Rbracket -> advance st
                  | _ ->
                      vals := parse_float st :: !vals;
                      (match st.tok with Comma -> advance st | _ -> ());
                      elems ()
                in
                elems ();
                emit old_id (Prog.Const { value = Prog.Vector (Array.of_list (List.rev !vals)) }) [||]
            | _ -> emit old_id (Prog.Const { value = Prog.Scalar (parse_float st) }) [||])
        | "encode" ->
            let a = lookup (parse_value st) in
            expect st Comma "expected ','";
            parse_key_eq_number st "scale";
            let scale = parse_float st in
            expect st Comma "expected ','";
            parse_key_eq_number st "level";
            let level = parse_int st in
            emit old_id (Prog.Encode { scale; level }) [| a |]
        | "add" | "sub" | "mul" ->
            let a = lookup (parse_value st) in
            expect st Comma "expected ','";
            let b = lookup (parse_value st) in
            let kind =
              match opname with "add" -> Prog.Add | "sub" -> Prog.Sub | _ -> Prog.Mul
            in
            emit old_id kind [| a; b |]
        | "negate" -> emit old_id Prog.Negate [| lookup (parse_value st) |]
        | "rotate" ->
            let a = lookup (parse_value st) in
            expect st Comma "expected ','";
            let amount = parse_int st in
            emit old_id (Prog.Rotate { amount }) [| a |]
        | "rescale" -> emit old_id Prog.Rescale [| lookup (parse_value st) |]
        | "modswitch" -> emit old_id Prog.Modswitch [| lookup (parse_value st) |]
        | "upscale" ->
            let a = lookup (parse_value st) in
            expect st Comma "expected ','";
            emit old_id (Prog.Upscale { target_scale = parse_float st }) [| a |]
        | "downscale" ->
            let a = lookup (parse_value st) in
            expect st Comma "expected ','";
            emit old_id (Prog.Downscale { waterline = parse_float st }) [| a |]
        | other -> error lx (Printf.sprintf "unknown operation %S" other));
        skip_type_annotation st;
        (* the lookahead that ended this op's line consumed its trailing
           comment, if any; attach it to the op just emitted *)
        (match (lx.pending_prov, !ops) with
        | Some s, o :: _ -> o.Prog.prov <- Prog.provenance_of_string s
        | _ -> ());
        lx.pending_prov <- None;
        parse_body ()
    | Eof -> error lx "unexpected end of input (missing '}')"
    | _ -> error lx "unexpected token in body"
  in
  parse_body ();
  let input_ids =
    List.rev_map (fun (old_id, _) -> Hashtbl.find remap old_id) !inputs
  in
  let p =
    {
      Prog.name;
      slot_count;
      body = Array.of_list (List.rev !ops);
      inputs = input_ids;
      outputs = List.rev !outputs;
    }
  in
  match Prog.validate p with
  | Ok () -> p
  | Error msg -> error lx ("invalid program: " ^ msg)

let parse_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  parse content
