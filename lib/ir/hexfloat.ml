(* A finite non-zero float prints as its sign, "0x", the leading digit (0
   for subnormals, 1 otherwise), a point and the 52 fraction bits as up to
   13 nibbles, high first, trailing zero nibbles dropped (the point with
   them when all are zero), then "p" and the signed decimal exponent
   (-1022 for subnormals) — what the runtime's caml_hexstring_of_float
   writes for "%h". Each float is assembled in a small [Bytes] and copied
   into the buffer once. *)

let hex = "0123456789abcdef"

(* Write the exponent at [p] onward; return the end. *)
let put_exponent s p e =
  Bytes.unsafe_set s p 'p';
  Bytes.unsafe_set s (p + 1) (if e < 0 then '-' else '+');
  let e = abs e in
  let digit p d = Bytes.unsafe_set s p (Char.unsafe_chr (48 + (d mod 10))) in
  let p = p + 2 in
  let p = if e >= 1000 then (digit p (e / 1000); p + 1) else p in
  let p = if e >= 100 then (digit p (e / 100); p + 1) else p in
  let p = if e >= 10 then (digit p (e / 10); p + 1) else p in
  digit p e;
  p + 1

let rec put_nibbles s p m =
  if m = 0 then p
  else begin
    Bytes.unsafe_set s p (String.unsafe_get hex (m lsr 48));
    put_nibbles s (p + 1) ((m lsl 4) land 0xf_ffff_ffff_ffff)
  end

let add buf x =
  let bits = Int64.bits_of_float x in
  let biased = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff in
  let m = Int64.to_int bits land 0xf_ffff_ffff_ffff in
  let neg = Int64.compare bits 0L < 0 in
  if biased = 0x7ff then begin
    if neg then Buffer.add_char buf '-';
    Buffer.add_string buf (if m = 0 then "infinity" else "nan")
  end
  else if biased = 0 && m = 0 then Buffer.add_string buf (if neg then "-0x0p+0" else "0x0p+0")
  else begin
    let s = Bytes.create 26 in
    let p = if neg then (Bytes.unsafe_set s 0 '-'; 1) else 0 in
    Bytes.unsafe_set s p '0';
    Bytes.unsafe_set s (p + 1) 'x';
    Bytes.unsafe_set s (p + 2) (if biased = 0 then '0' else '1');
    let p = p + 3 in
    let p = if m = 0 then p else (Bytes.unsafe_set s p '.'; put_nibbles s (p + 1) m) in
    let p = put_exponent s p (if biased = 0 then -1022 else biased - 1023) in
    Buffer.add_subbytes buf s 0 p
  end

let to_string x =
  let buf = Buffer.create 24 in
  add buf x;
  Buffer.contents buf

(* The value of each byte as a lower-case hex digit, 255 for non-digits:
   a table lookup, where a [match] mispredicts on every other digit. *)
let nibble_values =
  String.init 256 (fun i ->
      match Char.chr i with
      | '0' .. '9' -> Char.chr (i - 48)
      | 'a' .. 'f' -> Char.chr (i - 87)
      | _ -> '\255')

let nibble s i = Char.code (String.unsafe_get nibble_values (Char.code (String.unsafe_get s i)))

let read s ~pos ~len =
  let stop = pos + len in
  let neg = len > 0 && String.unsafe_get s pos = '-' in
  let i = if neg then pos + 1 else pos in
  if i + 5 > stop || String.unsafe_get s i <> '0' || String.unsafe_get s (i + 1) <> 'x' then nan
  else
    let lead = String.unsafe_get s (i + 2) in
    let j = ref (i + 3) and frac = ref 0 and nibbles = ref 0 in
    if String.unsafe_get s !j = '.' then begin
      incr j;
      while !j < stop && !nibbles <= 13 && nibble s !j < 16 do
        frac := (!frac lsl 4) lor nibble s !j;
        incr nibbles;
        incr j
      done;
      if !nibbles = 0 then nibbles := 14
    end;
    if !nibbles > 13 || !j >= stop || String.unsafe_get s !j <> 'p' then nan
    else begin
      incr j;
      let negexp = !j < stop && String.unsafe_get s !j = '-' in
      if negexp || (!j < stop && String.unsafe_get s !j = '+') then incr j;
      let digits = stop - !j and e = ref 0 in
      while !j < stop && nibble s !j < 10 do
        e := (10 * !e) + nibble s !j;
        incr j
      done;
      let e = if negexp then - !e else !e in
      if !j < stop || digits < 1 || digits > 4 then nan
      else if lead = '0' && !nibbles = 0 then if neg then -0. else 0.
      else if lead <> '1' || e < -1022 || e > 1023 then nan
      else
        let m = (1 lsl 52) lor (!frac lsl (4 * (13 - !nibbles))) in
        let x = Float.ldexp (Float.of_int m) (e - 52) in
        if neg then -.x else x
    end
