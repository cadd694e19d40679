(* The four xoshiro256** state words live unboxed in one 32-byte buffer,
   read and written with the native-endian 64-bit byte primitives. A record
   of [mutable int64] fields would box every word on every write; here one
   step loads the words into unboxed locals, advances them and stores them
   back, so a draw that stays inside this module allocates nothing. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let of_words s0 s1 s2 s3 =
  let g = Bytes.create 32 in
  set64 g 0 s0;
  set64 g 8 s1;
  set64 g 16 s2;
  set64 g 24 s3;
  g

let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let st = ref (Int64.of_int seed) in
  let s0 = splitmix64 st in
  let s1 = splitmix64 st in
  let s2 = splitmix64 st in
  let s3 = splitmix64 st in
  of_words s0 s1 s2 s3

let copy g = Bytes.copy g

(* FNV-1a over the stream name, folded into the parent state via splitmix64
   expansion. Reads the parent state without advancing it, so sibling
   sub-streams are order-independent and re-derivable at any time. *)
let split g name =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    name;
  let st = ref (Int64.logxor !h (get64 g 0)) in
  let s0 = splitmix64 st in
  st := Int64.logxor !st (get64 g 8);
  let s1 = splitmix64 st in
  st := Int64.logxor !st (get64 g 16);
  let s2 = splitmix64 st in
  st := Int64.logxor !st (get64 g 24);
  let s3 = splitmix64 st in
  of_words s0 s1 s2 s3

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256** step over all four words. *)
let[@inline] next g =
  let open Int64 in
  let s0 = get64 g 0 and s1 = get64 g 8 and s2 = get64 g 16 and s3 = get64 g 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let t = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set64 g 8 (logxor s1 s2);
  set64 g 0 (logxor s0 s3);
  set64 g 16 (logxor s2 t);
  set64 g 24 (rotl s3 45);
  result

let bits64 g = next g

(* Non-negative 62-bit int from the top bits of the raw output. *)
let[@inline] bits62 g = Int64.to_int (Int64.shift_right_logical (next g) 2)

let max62 = 0x3FFF_FFFF_FFFF_FFFF

(* Rejection sampling on 62-bit outputs to avoid modulo bias: [limit] is
   the largest multiple of [n] not above [max62]. *)
let rec below g n limit =
  let r = bits62 g in
  if r < limit then r mod n else below g n limit

let int_below g n =
  if n <= 0 then invalid_arg "Prng.int_below: bound must be positive";
  below g n (max62 / n * n)

let uniform_mod g q = int_below g q

let fill_uniform_mod g q buf =
  if q <= 0 then invalid_arg "Prng.fill_uniform_mod: modulus must be positive";
  let limit = max62 / q * q in
  for t = 0 to Buf.length buf - 1 do
    Buf.unsafe_set buf t (below g q limit)
  done

(* [float_of_int] rounds the top 256 62-bit values up to 2^62. *)
let float01 g =
  let f = float_of_int (bits62 g) *. 0x1p-62 in
  if f < 1. then f else Float.pred 1.

let ternary g = int_below g 3 - 1

(* Bit-parallel popcount of a word below 2^32. *)
let[@inline] popcount32 x =
  let x = x - ((x lsr 1) land 0x5555_5555) in
  let x = (x land 0x3333_3333) + ((x lsr 2) land 0x3333_3333) in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F in
  ((x * 0x0101_0101) lsr 24) land 0xFF

(* Each chunk of at most 32 bits takes the low [take] bits of two raw
   outputs; [Int64.to_int] keeps the low 63 bits, which include them. *)
let rec binomial g acc remaining =
  if remaining = 0 then acc
  else
    let take = if remaining < 32 then remaining else 32 in
    let mask = (1 lsl take) - 1 in
    let a = popcount32 (Int64.to_int (next g) land mask) in
    let b = popcount32 (Int64.to_int (next g) land mask) in
    binomial g (acc + a - b) (remaining - take)

let centered_binomial g ~eta =
  if eta < 0 then invalid_arg "Prng.centered_binomial: eta must be non-negative";
  binomial g 0 eta

let gaussian g ~sigma =
  let rec nonzero () =
    let u = float01 g in
    if u > 0. then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float01 g in
  sigma *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int_below g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
