module Prog = Hecate_ir.Prog
module Types = Hecate_ir.Types

let input = 0
let const = 1
let encode = 2
let add = 3
let sub = 4
let mul = 5
let negate = 6
let rotate = 7
let rescale = 8
let modswitch = 9
let upscale = 10
let downscale = 11

let code_of (kind : Prog.kind) =
  match kind with
  | Prog.Input _ -> input
  | Prog.Const _ -> const
  | Prog.Encode _ -> encode
  | Prog.Add -> add
  | Prog.Sub -> sub
  | Prog.Mul -> mul
  | Prog.Negate -> negate
  | Prog.Rotate _ -> rotate
  | Prog.Rescale -> rescale
  | Prog.Modswitch -> modswitch
  | Prog.Upscale _ -> upscale
  | Prog.Downscale _ -> downscale

let free = 0
let plain = 1
let cipher = 2

type t = {
  hashcons : bool;
  mutable n : int;
  mutable code : int array;
  mutable a0 : int array;
  mutable a1 : int array;
  mutable iattr : int array;
  mutable fattr : float array;
  mutable src : int array;
  mutable tag : int array;
  mutable scale : float array;
  mutable level : int array;
  mutable table : int array; (* ids, -1 empty; at most half full *)
  mutable mask : int;
}

(* a power of two at least twice [cap] *)
let table_size cap =
  let size = ref 16 in
  while !size < 2 * cap do
    size := 2 * !size
  done;
  !size

let create ~hashcons cap =
  let cap = Int.max 16 cap in
  let size = if hashcons then table_size cap else 1 in
  {
    hashcons;
    n = 0;
    code = Array.make cap 0;
    a0 = Array.make cap 0;
    a1 = Array.make cap 0;
    iattr = Array.make cap 0;
    fattr = Array.make cap 0.;
    src = Array.make cap 0;
    tag = Array.make cap 0;
    scale = Array.make cap 0.;
    level = Array.make cap 0;
    table = Array.make size (-1);
    mask = size - 1;
  }

(* [compare]'s equivalence classes, as [cse] compares float attributes *)
let float_hash x =
  if x = 0. then 0
  else if Float.is_nan x then 1
  else
    let b = Int64.bits_of_float x in
    Int64.to_int b lxor Int64.to_int (Int64.shift_right_logical b 32)

let hash b i =
  let h =
    (((((((b.code.(i) * 31) + b.a0.(i)) * 31) + b.a1.(i)) * 31) + b.iattr.(i)) * 31)
    + float_hash b.fattr.(i)
  in
  let h = h * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

let same b i j =
  b.code.(i) = b.code.(j)
  && b.a0.(i) = b.a0.(j)
  && b.a1.(i) = b.a1.(j)
  && b.iattr.(i) = b.iattr.(j)
  && Float.equal b.fattr.(i) b.fattr.(j)

(* the entry equal to op [i], or [i], which is added *)
let find_or_add b i =
  let rec probe s =
    let j = Array.unsafe_get b.table s in
    if j < 0 then begin
      b.table.(s) <- i;
      i
    end
    else if same b i j then j
    else probe ((s + 1) land b.mask)
  in
  probe (hash b i land b.mask)

let grow b =
  let cap = 2 * Array.length b.code in
  let extend a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 b.n;
    a'
  in
  b.code <- extend b.code 0;
  b.a0 <- extend b.a0 0;
  b.a1 <- extend b.a1 0;
  b.iattr <- extend b.iattr 0;
  b.fattr <- extend b.fattr 0.;
  b.src <- extend b.src 0;
  b.tag <- extend b.tag 0;
  b.scale <- extend b.scale 0.;
  b.level <- extend b.level 0;
  if b.hashcons then begin
    let size = table_size cap in
    b.table <- Array.make size (-1);
    b.mask <- size - 1;
    for i = 0 to b.n - 1 do
      if b.code.(i) <> input then ignore (find_or_add b i)
    done
  end

let clear b =
  b.n <- 0;
  if b.hashcons then Array.fill b.table 0 (Array.length b.table) (-1)

let emit b ~src code a0 a1 iattr fattr tag scale level =
  if b.n = Array.length b.code then grow b;
  let i = b.n in
  b.code.(i) <- code;
  b.a0.(i) <- a0;
  b.a1.(i) <- a1;
  b.iattr.(i) <- iattr;
  b.fattr.(i) <- fattr;
  b.src.(i) <- src;
  b.tag.(i) <- tag;
  b.scale.(i) <- scale;
  b.level.(i) <- (if tag = free then -1 else level);
  (* inputs never merge, as in [cse] *)
  let j = if b.hashcons && code <> input then find_or_add b i else i in
  if j = i then b.n <- i + 1;
  j

let ty b i : Types.t =
  let t = b.tag.(i) in
  if t = free then Types.Free
  else
    let s = { Types.scale = b.scale.(i); level = b.level.(i) } in
    if t = plain then Types.Plain s else Types.Cipher s

let to_prog b (source : Prog.t) ~outputs =
  let body =
    Array.init b.n (fun i ->
        let src = b.src.(i) in
        let code = b.code.(i) in
        let kind : Prog.kind =
          if src >= 0 then (Prog.op source src).Prog.kind
          else if code = encode then Prog.Encode { scale = b.fattr.(i); level = b.iattr.(i) }
          else if code = rescale then Prog.Rescale
          else if code = modswitch then Prog.Modswitch
          else if code = upscale then Prog.Upscale { target_scale = b.fattr.(i) }
          else if code = downscale then Prog.Downscale { waterline = b.fattr.(i) }
          else invalid_arg "Flat.to_prog: an emitted op without a kind"
        in
        let args =
          let a = b.a0.(i) and c = b.a1.(i) in
          if a < 0 then [||] else if c < 0 then [| a |] else [| a; c |]
        in
        let prov = if src >= 0 then (Prog.op source src).Prog.prov else None in
        { Prog.id = i; kind; args; ty = ty b i; prov })
  in
  let inputs =
    List.filter_map
      (fun (o : Prog.op) ->
        match o.Prog.kind with Prog.Input _ -> Some o.Prog.id | _ -> None)
      (Array.to_list body)
  in
  let p = { source with Prog.body; inputs; outputs } in
  match Prog.validate p with Ok () -> p | Error msg -> invalid_arg ("Flat.to_prog: " ^ msg)
