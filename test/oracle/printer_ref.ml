(* Hecate_ir.Printer as it was before it wrote through Hexfloat: [Format]
   with "%h" once per float. Kept verbatim as the differential oracle for
   [Printer.to_string], which must print the same bytes. *)

open Hecate_ir

let pp_const fmt = function
  | Prog.Scalar x -> Format.fprintf fmt "%h" x
  | Prog.Vector v ->
      Format.fprintf fmt "[";
      Array.iteri (fun i x -> Format.fprintf fmt "%s%h" (if i = 0 then "" else ", ") x) v;
      Format.fprintf fmt "]"

let pp_op ?(provenance = false) fmt (o : Prog.op) =
  let arg i = Format.asprintf "%%%d" o.args.(i) in
  (match o.kind with
  | Prog.Input { name } -> Format.fprintf fmt "%%%d = input \"%s\"" o.id name
  | Prog.Const { value } -> Format.fprintf fmt "%%%d = const %a" o.id pp_const value
  | Prog.Encode { scale; level } ->
      Format.fprintf fmt "%%%d = encode %s, scale=%h, level=%d" o.id (arg 0) scale level
  | Prog.Add -> Format.fprintf fmt "%%%d = add %s, %s" o.id (arg 0) (arg 1)
  | Prog.Sub -> Format.fprintf fmt "%%%d = sub %s, %s" o.id (arg 0) (arg 1)
  | Prog.Mul -> Format.fprintf fmt "%%%d = mul %s, %s" o.id (arg 0) (arg 1)
  | Prog.Negate -> Format.fprintf fmt "%%%d = negate %s" o.id (arg 0)
  | Prog.Rotate { amount } -> Format.fprintf fmt "%%%d = rotate %s, %d" o.id (arg 0) amount
  | Prog.Rescale -> Format.fprintf fmt "%%%d = rescale %s" o.id (arg 0)
  | Prog.Modswitch -> Format.fprintf fmt "%%%d = modswitch %s" o.id (arg 0)
  | Prog.Upscale { target_scale } ->
      Format.fprintf fmt "%%%d = upscale %s, %h" o.id (arg 0) target_scale
  | Prog.Downscale { waterline } ->
      Format.fprintf fmt "%%%d = downscale %s, %h" o.id (arg 0) waterline);
  (match o.ty with
  | Types.Free -> ()
  | ty -> Format.fprintf fmt " : %a" Types.pp ty);
  match o.prov with
  | Some p when provenance ->
      Format.fprintf fmt "  # !from %s" (Prog.provenance_to_string p)
  | _ -> ()

let pp ?(provenance = false) fmt (p : Prog.t) =
  Format.fprintf fmt "func %s(" p.name;
  List.iteri
    (fun i v ->
      match (Prog.op p v).kind with
      | Prog.Input { name } ->
          Format.fprintf fmt "%s%%%d: cipher \"%s\"" (if i = 0 then "" else ", ") v name
      | _ -> assert false)
    p.inputs;
  Format.fprintf fmt ") slots=%d {@\n" p.slot_count;
  Prog.iter
    (fun o ->
      match o.kind with
      | Prog.Input _ -> ()
      | _ -> Format.fprintf fmt "  %a@\n" (pp_op ~provenance) o)
    p;
  Format.fprintf fmt "  return %s@\n}@\n"
    (String.concat ", " (List.map (Printf.sprintf "%%%d") p.outputs))

let to_string ?(provenance = false) p = Format.asprintf "%a" (pp ~provenance) p
