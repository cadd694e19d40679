let check_nonempty name a = if Array.length a = 0 then invalid_arg ("Stats." ^ name ^ ": empty input")

let mean a =
  check_nonempty "mean" a;
  Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let variance a =
  let m = mean a in
  Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. a /. float_of_int (Array.length a)

let rmse a b =
  if Array.length a <> Array.length b then invalid_arg "Stats.rmse: length mismatch";
  check_nonempty "rmse" a;
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) -. b.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt (!acc /. float_of_int (Array.length a))

let max_abs_diff a b =
  if Array.length a <> Array.length b then invalid_arg "Stats.max_abs_diff: length mismatch";
  let m = ref 0. in
  for i = 0 to Array.length a - 1 do
    m := Float.max !m (Float.abs (a.(i) -. b.(i)))
  done;
  !m

let geomean a =
  check_nonempty "geomean" a;
  let acc = Array.fold_left (fun acc x ->
      if x <= 0. then invalid_arg "Stats.geomean: non-positive value";
      acc +. log x) 0. a
  in
  exp (acc /. float_of_int (Array.length a))

let relative_error ~actual ~estimate = Float.abs (estimate -. actual) /. actual

let median a =
  check_nonempty "median" a;
  let s = Array.copy a in
  Array.sort compare s;
  let n = Array.length s in
  if n land 1 = 1 then s.(n / 2) else 0.5 *. (s.((n / 2) - 1) +. s.(n / 2))

(* The stdlib exposes no raw monotonic clock; clamp the wall clock to be
   non-decreasing (across domains) so a backwards NTP step can never yield a
   negative duration. Jitter robustness comes from median-of-reps on top. *)
let last_now = Atomic.make 0.

let monotonic_now_s () =
  let t = Unix.gettimeofday () in
  let rec clamp () =
    let last = Atomic.get last_now in
    if t <= last then last
    else if Atomic.compare_and_set last_now last t then t
    else clamp ()
  in
  clamp ()

let percentile xs p =
  check_nonempty "percentile" xs;
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

type sampler = int -> float

let calls f k =
  let t0 = monotonic_now_s () in
  for _ = 1 to k do
    f ()
  done;
  monotonic_now_s () -. t0

let staged prepare k =
  let fs = Array.init k (fun _ -> prepare ()) in
  let t0 = monotonic_now_s () in
  Array.iter (fun f -> f ()) fs;
  monotonic_now_s () -. t0

type timing = {
  samples : float array array;
  median : float array;
  q1 : float array;
  q3 : float array;
  speedup : float array;
}

let interleave ?(warmup = 1) ?(min_sample_s = 0.) ~rounds variants =
  if rounds < 1 then invalid_arg "Stats.interleave: rounds must be >= 1";
  if warmup < 0 then invalid_arg "Stats.interleave: negative warmup";
  check_nonempty "interleave" variants;
  for _ = 1 to warmup do
    Array.iter (fun v -> ignore (v 1)) variants
  done;
  (* Double each variant's batch until one batch spans [min_sample_s], so
     that one sample is measurable; the cap stops a sampler that reports
     no time. *)
  let batch v =
    let rec grow b =
      if min_sample_s <= 0. || b >= 1 lsl 24 || v b >= min_sample_s then b else grow (2 * b)
    in
    grow 1
  in
  let batches = Array.map batch variants in
  let samples = Array.map (fun _ -> Array.make rounds 0.) variants in
  for r = 0 to rounds - 1 do
    Array.iteri (fun i v -> samples.(i).(r) <- v batches.(i) /. float_of_int batches.(i)) variants
  done;
  {
    samples;
    median = Array.map median samples;
    q1 = Array.map (fun s -> percentile s 25.) samples;
    q3 = Array.map (fun s -> percentile s 75.) samples;
    speedup = Array.map (fun s -> median (Array.mapi (fun r x -> samples.(0).(r) /. x) s)) samples;
  }
