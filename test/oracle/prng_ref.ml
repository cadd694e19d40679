type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

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
  { s0; s1; s2; s3 }

let copy g = { s0 = g.s0; s1 = g.s1; s2 = g.s2; s3 = g.s3 }

(* FNV-1a over the stream name, folded into the parent state via splitmix64
   expansion. Reads the parent state without advancing it, so sibling
   sub-streams are order-independent and re-derivable at any time. *)
let split g name =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    name;
  let st = ref (Int64.logxor !h g.s0) in
  let s0 = splitmix64 st in
  st := Int64.logxor !st g.s1;
  let s1 = splitmix64 st in
  st := Int64.logxor !st g.s2;
  let s2 = splitmix64 st in
  st := Int64.logxor !st g.s3;
  let s3 = splitmix64 st in
  { s0; s1; s2; s3 }

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let bits64 g =
  let open Int64 in
  let result = mul (rotl (mul g.s1 5L) 7) 9L in
  let t = shift_left g.s1 17 in
  g.s2 <- logxor g.s2 g.s0;
  g.s3 <- logxor g.s3 g.s1;
  g.s1 <- logxor g.s1 g.s2;
  g.s0 <- logxor g.s0 g.s3;
  g.s2 <- logxor g.s2 t;
  g.s3 <- rotl g.s3 45;
  result

(* Non-negative 62-bit int from the top bits of the raw output. *)
let bits62 g = Int64.to_int (Int64.shift_right_logical (bits64 g) 2)

let int_below g n =
  if n <= 0 then invalid_arg "Prng.int_below: bound must be positive";
  (* Rejection sampling on 62-bit outputs to avoid modulo bias. *)
  let limit = 0x3FFF_FFFF_FFFF_FFFF / n * n in
  let rec draw () =
    let r = bits62 g in
    if r < limit then r mod n else draw ()
  in
  draw ()

let uniform_mod g q = int_below g q

let float01 g = float_of_int (bits62 g) *. 0x1p-62

let ternary g = int_below g 3 - 1

let centered_binomial g ~eta =
  let rec popcount_bits acc bits k =
    if k = 0 then acc
    else popcount_bits (acc + Int64.to_int (Int64.logand bits 1L)) (Int64.shift_right_logical bits 1) (k - 1)
  in
  let rec draw acc remaining =
    if remaining = 0 then acc
    else
      let take = min remaining 32 in
      let a = popcount_bits 0 (bits64 g) take in
      let b = popcount_bits 0 (bits64 g) take in
      draw (acc + a - b) (remaining - take)
  in
  draw 0 eta

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
