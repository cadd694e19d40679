(* Just enough JSON for the in-tree consumers: the bench regression gate
   reading BENCH_*.json artifacts back, the plan cache's on-disk entries,
   and the hecated newline-delimited job protocol. Recursive descent over a
   string; numbers are floats, escapes cover what our own writer emits
   (plus \uXXXX for robustness). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Runs of plain string bytes                                          *)
(* ------------------------------------------------------------------ *)

(* A string's bytes are read and written in runs that end at the next byte
   the reader or the escaper must look at. The scan tests eight bytes per
   step: [zero_bytes w] is non-zero exactly when a byte of [w] is 0, and
   [below_space w] exactly when a byte is below 0x20 (borrows can only
   mark bytes above the first such byte, which the byte loop after the
   word loop then finds exactly). *)
external get64u : string -> int -> int64 = "%caml_string_get64u"

let ones = 0x0101010101010101L
let highs = 0x8080808080808080L
let zero_bytes w = Int64.logand (Int64.logand (Int64.sub w ones) (Int64.lognot w)) highs
let below_space w = Int64.logand (Int64.logand (Int64.sub w 0x2020202020202020L) (Int64.lognot w)) highs

(* 1 for the bytes a string must escape: '"', '\\' and control characters. *)
let must_escape = String.init 256 (fun i -> if i < 0x20 || i = 34 || i = 92 then '\001' else '\000')

(* The first index from [i] below [n] whose byte is '"' or '\\', or, with
   [controls], any byte a string must escape; [n] when there is none. *)
let plain_run ~controls s i n =
  let i = ref i in
  while
    !i + 8 <= n
    &&
    let w = get64u s !i in
    let hits =
      Int64.logor
        (zero_bytes (Int64.logxor w 0x2222222222222222L))
        (zero_bytes (Int64.logxor w 0x5c5c5c5c5c5c5c5cL))
    in
    let hits = if controls then Int64.logor hits (below_space w) else hits in
    (* the top bit shifted down, so that the test fits an [int] *)
    Int64.to_int (Int64.shift_right_logical hits 1) = 0
  do
    i := !i + 8
  done;
  while
    !i < n
    &&
    let c = String.unsafe_get s !i in
    if controls then String.unsafe_get must_escape (Char.code c) = '\000' else c <> '"' && c <> '\\'
  do
    incr i
  done;
  !i

(* Deeper nesting than anything the repository writes (a few levels), and
   shallow enough that the recursion stays in bounded stack and memory. *)
let max_depth = 512

let parse ?(pos = 0) ?len s =
  let start = pos in
  let n = match len with Some len -> pos + len | None -> String.length s in
  let pos = ref pos in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg (!pos - start))) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail ("expected " ^ word)
  in
  (* Runs of plain characters are copied whole; only escapes are decoded
     one at a time. A first scan steps over the runs and escapes as the
     decoding does, so the string is allocated once, at its length (and a
     malformed escape fails before anything past it is written). *)
  let parse_string () =
    expect '"';
    let i = ref (plain_run ~controls:false s !pos n) in
    let len = ref (!i - !pos) in
    while !i < n && String.unsafe_get s !i = '\\' do
      let next = min n (if !i + 1 < n && String.unsafe_get s (!i + 1) = 'u' then !i + 6 else !i + 2) in
      i := plain_run ~controls:false s next n;
      len := !len + 1 + (!i - next)
    done;
    let b = Bytes.create !len and j = ref 0 in
    let add c =
      Bytes.set b !j c;
      incr j
    in
    let rec go () =
      let i = plain_run ~controls:false s !pos n in
      Bytes.blit_string s !pos b !j (i - !pos);
      j := !j + (i - !pos);
      pos := i;
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | _ ->
          advance ();
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | '"' -> add '"'
          | '\\' -> add '\\'
          | '/' -> add '/'
          | 'n' -> add '\n'
          | 't' -> add '\t'
          | 'r' -> add '\r'
          | 'b' -> add '\b'
          | 'f' -> add '\012'
          | 'u' ->
              if !pos + 4 >= n then fail "truncated \\u escape";
              let hex = String.sub s (!pos + 1) 4 in
              let code =
                try int_of_string ("0x" ^ hex) with Failure _ -> fail "bad \\u escape"
              in
              (* ASCII passthrough; anything wider is replaced — our own
                 artifacts never emit non-ASCII *)
              add (if code < 128 then Char.chr code else '?');
              pos := !pos + 4
          | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          advance ();
          go ()
    in
    go ();
    Bytes.unsafe_to_string b
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match float_of_string_opt text with
    | Some f -> Num f
    | None -> fail ("bad number " ^ text)
  in
  let depth = ref 0 in
  (* an object or array one level deeper, failing past [max_depth] *)
  let nested f =
    if !depth >= max_depth then fail (Printf.sprintf "nesting deeper than %d" max_depth);
    incr depth;
    let v = f () in
    decr depth;
    v
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' -> nested parse_object
    | Some '[' -> nested parse_array
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  and parse_object () =
    advance ();
    skip_ws ();
    if peek () = Some '}' then begin
      advance ();
      Obj []
    end
    else begin
      let members = ref [] in
      let rec members_loop () =
        skip_ws ();
        let key = parse_string () in
        skip_ws ();
        expect ':';
        let v = parse_value () in
        members := (key, v) :: !members;
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            members_loop ()
        | Some '}' -> advance ()
        | _ -> fail "expected ',' or '}'"
      in
      members_loop ();
      Obj (List.rev !members)
    end
  and parse_array () =
    advance ();
    skip_ws ();
    if peek () = Some ']' then begin
      advance ();
      Arr []
    end
    else begin
      let items = ref [] in
      let rec items_loop () =
        let v = parse_value () in
        items := v :: !items;
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            items_loop ()
        | Some ']' -> advance ()
        | _ -> fail "expected ',' or ']'"
      in
      items_loop ();
      Arr (List.rev !items)
    end
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member name = function
  | Obj kvs -> ( match List.assoc_opt name kvs with Some v -> v | None -> Null)
  | _ -> Null

let to_list = function Arr l -> l | _ -> []
let to_float = function Num f -> Some f | _ -> None
let to_int = function Num f -> Some (int_of_float f) | _ -> None
let to_string = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

(* Where [render_to] writes: a buffer for [render], or a channel for
   [output], so that a long value goes into the channel's buffer without
   first being built as a string. *)
type sink = Buf of Buffer.t | Chan of out_channel

let add_char sink c = match sink with Buf b -> Buffer.add_char b c | Chan oc -> output_char oc c

let add_string sink s =
  match sink with Buf b -> Buffer.add_string b s | Chan oc -> output_string oc s

let add_substring sink s pos len =
  match sink with
  | Buf b -> Buffer.add_substring b s pos len
  | Chan oc -> output_substring oc s pos len

(* Runs of characters that need no escape are copied whole. *)
let escape_to sink s =
  add_char sink '"';
  let rec go start =
    let i = plain_run ~controls:true s start (String.length s) in
    add_substring sink s start (i - start);
    if i < String.length s then begin
      (match String.unsafe_get s i with
      | '"' -> add_string sink "\\\""
      | '\\' -> add_string sink "\\\\"
      | '\n' -> add_string sink "\\n"
      | '\t' -> add_string sink "\\t"
      | '\r' -> add_string sink "\\r"
      | '\b' -> add_string sink "\\b"
      | '\012' -> add_string sink "\\f"
      | c -> add_string sink (Printf.sprintf "\\u%04x" (Char.code c)));
      go (i + 1)
    end
  in
  go 0;
  add_char sink '"'

(* Numbers render as the shortest float representation that round-trips;
   integral values drop the trailing ".". The output is a single line, so
   rendered values can travel over the newline-delimited protocol as-is. *)
let render_number sink f =
  if Float.is_integer f && Float.abs f < 1e15 then add_string sink (Printf.sprintf "%.0f" f)
  else add_string sink (Printf.sprintf "%.17g" f)

let rec render_to sink = function
  | Null -> add_string sink "null"
  | Bool b -> add_string sink (if b then "true" else "false")
  | Num f ->
      if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then add_string sink "null"
      else render_number sink f
  | Str s -> escape_to sink s
  | Arr items ->
      add_char sink '[';
      List.iteri
        (fun i v ->
          if i > 0 then add_char sink ',';
          render_to sink v)
        items;
      add_char sink ']'
  | Obj kvs ->
      add_char sink '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then add_char sink ',';
          escape_to sink k;
          add_char sink ':';
          render_to sink v)
        kvs;
      add_char sink '}'

(* Bytes [render] is likely to write, so that a long string (a program, an
   artifact) fills one buffer rather than doubling into it: each string's
   length and an eighth more for escapes. *)
let rec size_hint = function
  | Null | Bool _ -> 5
  | Num _ -> 24
  | Str s -> String.length s + (String.length s / 8) + 2
  | Arr items -> List.fold_left (fun acc v -> acc + size_hint v + 1) 2 items
  | Obj kvs -> List.fold_left (fun acc (k, v) -> acc + size_hint (Str k) + size_hint v + 2) 2 kvs

let render v =
  let buf = Buffer.create (size_hint v) in
  render_to (Buf buf) v;
  Buffer.contents buf

let output oc v = render_to (Chan oc) v

let int i = Num (float_of_int i)
