module Eval = Hecate_ckks.Eval
module Params = Hecate_ckks.Params
module Costmodel = Hecate.Costmodel

let time_reps reps f =
  Hecate_support.Stats.time_median ~warmup:1 ~min_sample_s:1e-4 ~reps (fun () -> ignore (f ()))

(* Each class is timed in the destination form [Schedule.run] executes,
   writing into storage made once here, as a run's register file is: the
   allocating forms would also time a fresh result's allocation, which no
   executed instruction pays. *)
let measure ?(reps = 3) eval =
  let params = Eval.params eval in
  let n = params.Params.n in
  let levels = params.Params.levels in
  let table = Hashtbl.create 64 in
  let slots = Params.slots params in
  let v = Array.init slots (fun i -> 0.5 +. (0.001 *. float_of_int (i mod 7))) in
  let scale = 0x1p20 in
  let scratch = Eval.scratch eval ~level:0 in
  let slot = Eval.slot eval ~level:0 in
  let dst = Eval.register eval ~level:0 and other = Eval.register eval ~level:0 in
  let fan = List.init 3 (fun _ -> Eval.register eval ~level:0) in
  let fresh = Eval.encrypt_vector eval ~scale v in
  let record cls ~level seconds =
    Hashtbl.replace table (cls, levels + 1 - level, n) seconds
  in
  let ct = ref fresh in
  for level = 0 to levels do
    let c = !ct in
    let pt = Eval.encode eval ~level ~scale v in
    record Costmodel.Encode ~level
      (time_reps reps (fun () -> Eval.encode_into eval ~dst:slot ~level ~scale v));
    record Costmodel.Cipher_add ~level (time_reps reps (fun () -> Eval.add_into eval ~dst c c));
    record Costmodel.Plain_add ~level
      (time_reps reps (fun () -> Eval.add_plain_into eval ~dst c pt));
    record Costmodel.Cipher_mul ~level
      (time_reps reps (fun () -> Eval.mul_into eval ~scratch ~dst c c));
    record Costmodel.Plain_mul ~level
      (time_reps reps (fun () -> Eval.mul_plain_into eval ~dst c pt));
    (try
       let t_rot = time_reps reps (fun () -> Eval.rotate_into eval ~scratch ~dst c 1) in
       record Costmodel.Rotate ~level t_rot;
       (* marginal hoisted rotation: a 3-rotation fan pays the decomposition
          once, so (fan - single) / 2 isolates the per-extra-rotation cost;
          clamp against timer noise driving the difference negative *)
       let t_fan =
         time_reps reps (fun () -> Eval.rotate_many_into eval ~scratch ~dsts:fan c [ 1; 1; 1 ])
       in
       record Costmodel.Rotate_hoisted ~level (Float.max ((t_fan -. t_rot) /. 2.) (0.05 *. t_rot))
     with Not_found -> ());
    if level < levels then begin
      let squared = Eval.mul_into eval ~scratch ~dst:other c c in
      record Costmodel.Rescale ~level
        (time_reps reps (fun () -> Eval.rescale_into eval ~scratch ~dst squared));
      record Costmodel.Mul_rescale ~level
        (time_reps reps (fun () -> Eval.mul_rescale_into eval ~scratch ~dst c c));
      record Costmodel.Modswitch ~level
        (time_reps reps (fun () -> Eval.mod_switch_into eval ~dst c));
      ct := Eval.mod_switch eval c
    end
  done;
  table

let model_for ?reps eval =
  Costmodel.of_table (measure ?reps eval) ~fallback:(Costmodel.analytic ())

let cache : (int * int * int * int, Costmodel.t) Hashtbl.t = Hashtbl.create 8

let cached_model ?reps ~n ~levels ~q0_bits ~sf_bits () =
  let key = (n, levels, q0_bits, sf_bits) in
  match Hashtbl.find_opt cache key with
  | Some m -> m
  | None ->
      let params = Params.create ~n ~q0_bits ~sf_bits ~levels () in
      let eval = Eval.create ~seed:0xBEEF params ~rotations:[ 1 ] in
      let m = model_for ?reps eval in
      Hashtbl.replace cache key m;
      m
