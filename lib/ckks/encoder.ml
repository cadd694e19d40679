module Fft = Hecate_support.Fft
module Poly = Hecate_rns.Poly
module Chain = Hecate_rns.Chain

type t = {
  n : int;
  slot_pos : int array; (* slot j -> index t with 2t+1 = 5^j mod 2n *)
  conj_pos : int array; (* slot j -> index of the conjugate evaluation point *)
  zeta_re : float array; (* zeta^k, k = 0..n-1, zeta = exp(i*pi/n) *)
  zeta_im : float array;
}

let create ~n =
  if n < 8 || n land (n - 1) <> 0 then invalid_arg "Encoder.create: n must be a power of two >= 8";
  let two_n = 2 * n in
  let half = n / 2 in
  let slot_pos = Array.make half 0 and conj_pos = Array.make half 0 in
  let g = ref 1 in
  for j = 0 to half - 1 do
    slot_pos.(j) <- (!g - 1) / 2;
    conj_pos.(j) <- (two_n - !g - 1) / 2;
    g := !g * 5 mod two_n
  done;
  let zeta_re = Array.make n 0. and zeta_im = Array.make n 0. in
  for k = 0 to n - 1 do
    let theta = Float.pi *. float_of_int k /. float_of_int n in
    zeta_re.(k) <- cos theta;
    zeta_im.(k) <- sin theta
  done;
  { n; slot_pos; conj_pos; zeta_re; zeta_im }

let slots enc = enc.n / 2

(* Coefficients can reach 2^62 at most; reject anything that would wrap. *)
let coeff_limit = 0x1p61

let encode_into enc ~dst ~scale v =
  let n = enc.n in
  if Array.length v > n / 2 then invalid_arg "Encoder.encode: too many slots";
  if Chain.degree dst.Poly.chain <> n then invalid_arg "Encoder.encode: chain degree mismatch";
  let buf = Fft.make_buffer n in
  Array.iteri
    (fun j x ->
      buf.Fft.re.(enc.slot_pos.(j)) <- x;
      buf.Fft.re.(enc.conj_pos.(j)) <- x;
      (* real messages: conjugate has the same real part, negated imaginary
         part; imaginary parts are zero here *)
      buf.Fft.im.(enc.slot_pos.(j)) <- 0.;
      buf.Fft.im.(enc.conj_pos.(j)) <- 0.)
    v;
  (* m_k * zeta^k = (1/n) * FFT_forward(v)[k]; recover m_k by multiplying
     with zeta^{-k} and keeping the (theoretically exact) real part. *)
  Fft.forward buf;
  let inv_n = 1. /. float_of_int n in
  let coeffs = Array.make n 0 in
  for k = 0 to n - 1 do
    let re = buf.Fft.re.(k) *. inv_n and im = buf.Fft.im.(k) *. inv_n in
    (* multiply by conj(zeta^k) = zeta^{-k} *)
    let m_k = (re *. enc.zeta_re.(k)) +. (im *. enc.zeta_im.(k)) in
    let scaled = Float.round (m_k *. scale) in
    if Float.abs scaled >= coeff_limit then
      invalid_arg "Encoder.encode: scaled coefficient overflows the native integer range";
    coeffs.(k) <- int_of_float scaled
  done;
  Poly.of_centered_coeffs_into ~dst coeffs

let encode enc chain ~level_count ~scale v =
  let dst = Poly.zero chain ~level_count ~with_special:false Poly.Coeff in
  encode_into enc ~dst ~scale v;
  dst

let scaled_constant ~scale c =
  let scaled = Float.round (c *. scale) in
  if Float.abs scaled >= coeff_limit then
    invalid_arg "Encoder.encode_constant: scaled constant overflows the native integer range";
  int_of_float scaled

let encode_constant enc chain ~level_count ~scale c =
  let n = enc.n in
  if Chain.degree chain <> n then invalid_arg "Encoder.encode_constant: chain degree mismatch";
  let coeffs = Array.make n 0 in
  coeffs.(0) <- scaled_constant ~scale c;
  Poly.of_centered_coeffs chain ~level_count ~with_special:false coeffs

let decode enc ~scale coeffs =
  let n = enc.n in
  if Array.length coeffs <> n then invalid_arg "Encoder.decode: wrong coefficient count";
  let buf = Fft.make_buffer n in
  let inv_scale = 1. /. scale in
  for k = 0 to n - 1 do
    let m_k = coeffs.(k) *. inv_scale in
    buf.Fft.re.(k) <- m_k *. enc.zeta_re.(k);
    buf.Fft.im.(k) <- m_k *. enc.zeta_im.(k)
  done;
  (* v_t = sum_k (m_k zeta^k) e^{+2 pi i t k / n} = n * ifft(...) *)
  Fft.inverse buf;
  let half = n / 2 in
  let out = Array.make half 0. in
  for j = 0 to half - 1 do
    out.(j) <- buf.Fft.re.(enc.slot_pos.(j)) *. float_of_int n
  done;
  out

let galois_element enc ~rotation =
  let two_n = 2 * enc.n in
  let half = enc.n / 2 in
  let r = ((rotation mod half) + half) mod half in
  let g = ref 1 in
  for _ = 1 to r do
    g := !g * 5 mod two_n
  done;
  !g
