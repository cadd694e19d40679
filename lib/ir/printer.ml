(* The text is written into one [Buffer]; floats go through [Hexfloat], the
   writer the fingerprint uses, and print as "%h" would. *)

let add_value buf v =
  Buffer.add_char buf '%';
  Buffer.add_string buf (Int.to_string v)

let add_const buf = function
  | Prog.Scalar x -> Hexfloat.add buf x
  | Prog.Vector v ->
      Buffer.add_char buf '[';
      Array.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf ", ";
          Hexfloat.add buf x)
        v;
      Buffer.add_char buf ']'

let add_op ~provenance buf (o : Prog.op) =
  let op name =
    add_value buf o.id;
    Buffer.add_string buf " = ";
    Buffer.add_string buf name;
    Buffer.add_char buf ' '
  in
  let arg i = add_value buf o.args.(i) in
  let args2 name =
    op name;
    arg 0;
    Buffer.add_string buf ", ";
    arg 1
  in
  (match o.kind with
  | Prog.Input { name } ->
      op "input";
      Buffer.add_char buf '"';
      Buffer.add_string buf name;
      Buffer.add_char buf '"'
  | Prog.Const { value } ->
      op "const";
      add_const buf value
  | Prog.Encode { scale; level } ->
      op "encode";
      arg 0;
      Buffer.add_string buf ", scale=";
      Hexfloat.add buf scale;
      Buffer.add_string buf ", level=";
      Buffer.add_string buf (Int.to_string level)
  | Prog.Add -> args2 "add"
  | Prog.Sub -> args2 "sub"
  | Prog.Mul -> args2 "mul"
  | Prog.Negate ->
      op "negate";
      arg 0
  | Prog.Rotate { amount } ->
      op "rotate";
      arg 0;
      Buffer.add_string buf ", ";
      Buffer.add_string buf (Int.to_string amount)
  | Prog.Rescale ->
      op "rescale";
      arg 0
  | Prog.Modswitch ->
      op "modswitch";
      arg 0
  | Prog.Upscale { target_scale } ->
      op "upscale";
      arg 0;
      Buffer.add_string buf ", ";
      Hexfloat.add buf target_scale
  | Prog.Downscale { waterline } ->
      op "downscale";
      arg 0;
      Buffer.add_string buf ", ";
      Hexfloat.add buf waterline);
  (match o.ty with
  | Types.Free -> ()
  | ty ->
      Buffer.add_string buf " : ";
      Buffer.add_string buf (Types.to_string ty));
  match o.prov with
  | Some p when provenance ->
      Buffer.add_string buf "  # !from ";
      Buffer.add_string buf (Prog.provenance_to_string p)
  | _ -> ()

let to_string ?(provenance = false) (p : Prog.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "func ";
  Buffer.add_string buf p.name;
  Buffer.add_char buf '(';
  List.iteri
    (fun i v ->
      match (Prog.op p v).kind with
      | Prog.Input { name } ->
          if i > 0 then Buffer.add_string buf ", ";
          add_value buf v;
          Buffer.add_string buf ": cipher \"";
          Buffer.add_string buf name;
          Buffer.add_char buf '"'
      | _ -> assert false)
    p.inputs;
  Buffer.add_string buf ") slots=";
  Buffer.add_string buf (Int.to_string p.slot_count);
  Buffer.add_string buf " {\n";
  Prog.iter
    (fun o ->
      match o.kind with
      | Prog.Input _ -> ()
      | _ ->
          Buffer.add_string buf "  ";
          add_op ~provenance buf o;
          Buffer.add_char buf '\n')
    p;
  Buffer.add_string buf "  return ";
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_string buf ", ";
      add_value buf v)
    p.outputs;
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

(* Line by line, each newline a forced one, as the text was laid out when
   this printer wrote through [Format] itself. *)
let pp ?provenance fmt p =
  let lines = String.split_on_char '\n' (to_string ?provenance p) in
  (* the text ends in a newline: the last element is empty *)
  List.iteri
    (fun i line ->
      if i > 0 then Format.pp_force_newline fmt ();
      Format.pp_print_string fmt line)
    lines
