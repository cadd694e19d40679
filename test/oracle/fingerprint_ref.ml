(* Hecate_ir.Prog's fingerprint and structural digest as they were before
   the canonical serialization was written in one walk through Hexfloat:
   [Prog.canonicalize] first, then [ksprintf] once per float and once per
   operand id. Kept verbatim as the differential oracle for
   [Prog.fingerprint] and [Prog.structural_digest]: plan cache keys, and
   with them every on-disk entry, depend on these bytes. *)

open Hecate_ir
open Prog

(* Byte-serialize a canonical program for hashing. Floats are rendered
   with %h (exact binary representation), so the fingerprint never
   depends on decimal rounding. *)
let serialize_canonical buf p =
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "hecate-ir-v1;slots=%d;ops=%d;" p.slot_count (Array.length p.body);
  Array.iter
    (fun o ->
      (match o.kind with
      | Input { name } -> addf "in(%s)" name
      | Const { value = Scalar x } -> addf "cs(%h)" x
      | Const { value = Vector v } ->
          Buffer.add_string buf "cv(";
          Array.iter (fun x -> addf "%h," x) v;
          Buffer.add_char buf ')'
      | Encode { scale; level } -> addf "enc(%h,%d)" scale level
      | Add -> Buffer.add_string buf "add"
      | Sub -> Buffer.add_string buf "sub"
      | Mul -> Buffer.add_string buf "mul"
      | Negate -> Buffer.add_string buf "neg"
      | Rotate { amount } -> addf "rot(%d)" amount
      | Rescale -> Buffer.add_string buf "rs"
      | Modswitch -> Buffer.add_string buf "ms"
      | Upscale { target_scale } -> addf "up(%h)" target_scale
      | Downscale { waterline } -> addf "down(%h)" waterline);
      Buffer.add_char buf '[';
      Array.iter (fun a -> addf "%d," a) o.args;
      Buffer.add_string buf "];")
    p.body;
  addf "out=";
  List.iter (fun v -> addf "%d," v) p.outputs

let fingerprint p =
  let buf = Buffer.create 1024 in
  serialize_canonical buf (canonicalize p);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* A coarser hash than [fingerprint]: the canonical kind-skeleton with
   every attribute (constants, rotation amounts, scales) elided. Programs
   that differ only in such attributes collide here, which is exactly the
   "structurally similar" bucket the plan corpus warm-starts from — their
   SMU graphs are isomorphic, so a good plan for one is a credible seed
   for the other. *)
let structural_digest p =
  let c = canonicalize p in
  let buf = Buffer.create 256 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "hecate-skel-v1;slots=%d;ops=%d;" c.slot_count (Array.length c.body);
  Array.iter
    (fun o ->
      let tag =
        match o.kind with
        | Input _ -> "in"
        | Const _ -> "c"
        | Encode _ -> "enc"
        | Add -> "add"
        | Sub -> "sub"
        | Mul -> "mul"
        | Negate -> "neg"
        | Rotate _ -> "rot"
        | Rescale -> "rs"
        | Modswitch -> "ms"
        | Upscale _ -> "up"
        | Downscale _ -> "down"
      in
      Buffer.add_string buf tag;
      Buffer.add_char buf '[';
      Array.iter (fun a -> addf "%d," a) o.args;
      Buffer.add_string buf "];")
    c.body;
  addf "out=";
  List.iter (fun v -> addf "%d," v) c.outputs;
  Digest.to_hex (Digest.string (Buffer.contents buf))
