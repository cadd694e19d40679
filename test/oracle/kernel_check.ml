(* Whole-program differential check of the fast kernels against the
   reference kernels ([Kernels.use_naive]): a program compiled as the
   repository benchmark compiles it, keyed and executed through [Interp]
   from one seed, once under each kernel set. The decrypted outputs must
   be equal bit for bit, so every key switch, rescale and rotation the
   program runs agrees in every residue. *)

module Driver = Hecate.Driver
module Interp = Hecate_backend.Interp
module Kernels = Hecate_support.Kernels
module Apps = Hecate_apps.Apps
module Batch_apps = Hecate_apps.Batch_apps
module Lower = Hecate_batch.Lower

(* The inputs the benchmark's synthetic data gives [name]: the app's own,
   or for the lowered matvec its scalar inputs packed into slots. *)
let inputs name =
  match name with
  | "matvec" -> (
      let m = Batch_apps.matvec () in
      match Lower.lower ~spec:Lower.Auto m.Batch_apps.surface with
      | Error d -> Hecate_ir.Diagnostic.error d
      | Ok l -> List.map (fun (n, d) -> (n, Lower.pack_input l n d)) m.Batch_apps.inputs)
  | _ ->
      (List.find (fun (a : Apps.t) -> a.Apps.name = name) (Apps.reduced_suite ())).Apps.inputs

let compiled scheme (t : Modswitch_sweep.target) =
  Driver.compile ~pool_size:1 ?passes:t.Modswitch_sweep.cleanup scheme ~sf_bits:28
    ~waterline_bits:t.Modswitch_sweep.waterline t.Modswitch_sweep.prog

(* Key generation runs under the same kernels as the execution, so the
   check also covers the transforms and products keygen uses. *)
let outputs ~naive ~seed (t : Modswitch_sweep.target) (c : Driver.compiled) inputs =
  Kernels.with_naive naive (fun () ->
      let rotations = Interp.required_rotations c.Driver.prog in
      let eval = Interp.context ~seed ~params:c.Driver.params ~rotations () in
      (Interp.execute eval ~waterline_bits:t.Modswitch_sweep.waterline c.Driver.prog ~inputs)
        .Interp.outputs)

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* [Error] names the first output whose fast and reference values
   differ. *)
let check_program ~seed scheme name =
  let t = Modswitch_sweep.standard name in
  let c = compiled scheme t in
  let inputs = inputs name in
  let fast = outputs ~naive:false ~seed t c inputs in
  let reference = outputs ~naive:true ~seed t c inputs in
  if List.length fast <> List.length reference then
    Error (Printf.sprintf "%s seed %d: output counts differ" name seed)
  else
    match
      List.find_index (fun (f, r) -> not (same_bits f r)) (List.combine fast reference)
    with
    | None -> Ok (List.length fast)
    | Some i -> Error (Printf.sprintf "%s seed %d: output %d differs" name seed i)
