module Eval = Hecate_ckks.Eval
module Params = Hecate_ckks.Params
module Costmodel = Hecate.Costmodel
module Stats = Hecate_support.Stats

type probe = { cls : Costmodel.op_class; num_primes : int; n : int; call : unit -> unit }

(* Each class is timed in the destination form [Schedule.run] executes,
   writing into storage made once here, as a run's register file is: the
   allocating forms would also time a fresh result's allocation, which no
   executed instruction pays. *)
let probes params =
  let eval = Eval.create ~seed:0xBEEF params ~rotations:[ 1 ] in
  let n = params.Params.n in
  let levels = params.Params.levels in
  let v = Array.init (Params.slots params) (fun i -> 0.5 +. (0.001 *. float_of_int (i mod 7))) in
  let scale = 0x1p20 in
  let scratch = Eval.scratch eval ~level:0 in
  let slot = Eval.slot eval ~level:0 in
  let dst = Eval.register eval ~level:0 in
  let fan = List.init 3 (fun _ -> Eval.register eval ~level:0) in
  let fresh = Eval.encrypt_vector eval ~scale v in
  let rec down c l = if l = 0 then c else down (Eval.mod_switch eval c) (l - 1) in
  let at level =
    let c = down fresh level in
    let pt = Eval.encode eval ~level ~scale v in
    let probe cls call = { cls; num_primes = levels + 1 - level; n; call } in
    [
      probe Costmodel.Encode (fun () -> ignore (Eval.encode_into eval ~dst:slot ~level ~scale v));
      probe Costmodel.Cipher_add (fun () -> ignore (Eval.add_into eval ~dst c c));
      probe Costmodel.Plain_add (fun () -> ignore (Eval.add_plain_into eval ~dst c pt));
      probe Costmodel.Cipher_mul (fun () -> ignore (Eval.mul_into eval ~scratch ~dst c c));
      probe Costmodel.Plain_mul (fun () -> ignore (Eval.mul_plain_into eval ~dst c pt));
      probe Costmodel.Rotate (fun () -> ignore (Eval.rotate_into eval ~scratch ~dst c 1));
      (* a 3-rotation fan, right after the single rotation [table] reads with it *)
      probe Costmodel.Rotate_hoisted (fun () ->
          ignore (Eval.rotate_many_into eval ~scratch ~dsts:fan c [ 1; 1; 1 ]));
    ]
    @
    if level = levels then []
    else
      let squared = Eval.mul eval c c in
      [
        probe Costmodel.Rescale (fun () -> ignore (Eval.rescale_into eval ~scratch ~dst squared));
        probe Costmodel.Mul_rescale (fun () ->
            ignore (Eval.mul_rescale_into eval ~scratch ~dst c c));
        probe Costmodel.Modswitch (fun () -> ignore (Eval.mod_switch_into eval ~dst c));
      ]
  in
  Array.of_list (List.concat_map at (List.init (levels + 1) Fun.id))

let table probes (timing : Stats.timing) =
  let table = Hashtbl.create 64 in
  Array.iteri
    (fun i p ->
      let seconds =
        match p.cls with
        | Costmodel.Rotate_hoisted ->
            (* a fan pays the decomposition once, so (fan - single) / 2 in
               each round isolates the per-extra-rotation cost (the single
               rotation is the probe before); clamp against timer noise
               driving the difference negative *)
            let single = timing.Stats.samples.(i - 1) in
            let extra r fan = (fan -. single.(r)) /. 2. in
            Float.max
              (Stats.median (Array.mapi extra timing.Stats.samples.(i)))
              (0.05 *. timing.Stats.median.(i - 1))
        | _ -> timing.Stats.median.(i)
      in
      Hashtbl.replace table (p.cls, p.num_primes, p.n) seconds)
    probes;
  table

let measure ?(reps = 3) params =
  let probes = probes params in
  table probes
    (Stats.interleave ~min_sample_s:1e-4 ~rounds:reps
       (Array.map (fun p -> Stats.calls p.call) probes))

let cache : (int * int * int * int, Costmodel.t) Hashtbl.t = Hashtbl.create 8

(* held while the table is read or filled, so that callers on several
   domains share one model per shape *)
let cache_lock = Mutex.create ()

let cached_model ?reps ~n ~levels ~q0_bits ~sf_bits () =
  let key = (n, levels, q0_bits, sf_bits) in
  Mutex.protect cache_lock (fun () ->
      match Hashtbl.find_opt cache key with
      | Some m -> m
      | None ->
          let params = Params.create ~n ~q0_bits ~sf_bits ~levels () in
          let m = Costmodel.of_table (measure ?reps params) ~fallback:(Costmodel.analytic ()) in
          Hashtbl.replace cache key m;
          m)
