module Prog = Hecate_ir.Prog
module Typing = Hecate_ir.Typing

(* the kinds early-modswitch lets absorb a modswitch ([Passes.absorbs]) *)
let absorbs code = code >= Flat.encode && code <> Flat.modswitch

(* What a scored source program keeps across candidates. *)
type source = {
  prog : Prog.t;
  classes : int array; (* a constant's class: the first constant equal to it *)
}

module Const_table = Hashtbl.Make (struct
  type t = Prog.kind

  (* [compare] equates both zeros and all NaNs, as [cse] does, and
     [Hashtbl.hash] hashes them alike *)
  let equal a b = compare a b = 0
  let hash = Hashtbl.hash
end)

(* One candidate's working storage, reused from candidate to candidate:
   [gen.flat] the program, [next] the one an early-modswitch round
   rebuilds; the others are per-op work arrays, grown with the program. *)
type scratch = {
  src : source;
  gen : Codegen.target; (* [gen.flat] is the program *)
  mutable next : Flat.t;
  outputs : int array; (* the program's outputs and inputs, in [gen.flat] *)
  inputs : int array;
  mutable w_uses : int array;
  mutable w_live : int array;
  mutable w_base : int array;
  mutable w_depth : int array;
  mutable w_lowest : int array;
  mutable w_deepest : int array;
  mutable w_absorbed : int array;
  mutable w_first : int array;
  mutable w_layers : int array;
  mutable w_renamed : int array;
}

let scratch src =
  let n = Prog.num_ops src.prog in
  let cap = Int.max 16 (2 * n) in
  let ints () = Array.make cap 0 in
  {
    src;
    gen = Codegen.target (Flat.create ~hashcons:true cap) ~classes:src.classes src.prog;
    next = Flat.create ~hashcons:true cap;
    outputs = Array.of_list src.prog.Prog.outputs;
    inputs = Array.of_list src.prog.Prog.inputs;
    w_uses = ints ();
    w_live = ints ();
    w_base = ints ();
    w_depth = ints ();
    w_lowest = ints ();
    w_deepest = ints ();
    w_absorbed = ints ();
    w_first = ints ();
    w_layers = ints ();
    w_renamed = ints ();
  }

let ensure_work s n =
  if Array.length s.w_uses < n then begin
    let cap = Int.max n (2 * Array.length s.w_uses) in
    let ints () = Array.make cap 0 in
    s.w_uses <- ints ();
    s.w_live <- ints ();
    s.w_base <- ints ();
    s.w_depth <- ints ();
    s.w_lowest <- ints ();
    s.w_deepest <- ints ();
    s.w_absorbed <- ints ();
    s.w_first <- ints ();
    s.w_layers <- ints ();
    s.w_renamed <- ints ()
  end

(* ------------------------------------------------------------------ *)
(* Liveness and use counts                                              *)
(* ------------------------------------------------------------------ *)

(* [w_live]: reached from an output or an input; [w_uses]: uses by live
   ops, an output counting one. *)
let liveness s =
  let b = s.gen.Codegen.flat in
  let n = b.Flat.n in
  ensure_work s n;
  let live = s.w_live and uses = s.w_uses in
  Array.fill live 0 n 0;
  Array.fill uses 0 n 0;
  Array.iter (fun v -> live.(v) <- 1) s.outputs;
  Array.iter (fun v -> live.(v) <- 1) s.inputs;
  for i = n - 1 downto 0 do
    if live.(i) = 1 then begin
      let a = b.Flat.a0.(i) in
      if a >= 0 then begin
        live.(a) <- 1;
        uses.(a) <- uses.(a) + 1;
        let a = b.Flat.a1.(i) in
        if a >= 0 then begin
          live.(a) <- 1;
          uses.(a) <- uses.(a) + 1
        end
      end
    end
  done;
  Array.iter (fun v -> uses.(v) <- uses.(v) + 1) s.outputs

(* [Passes.movable]: a live modswitch whose operand has one use and absorbs *)
let movable s =
  let b = s.gen.Codegen.flat in
  let rec go i =
    i < b.Flat.n
    && ((s.w_live.(i) = 1
        && b.Flat.code.(i) = Flat.modswitch
        &&
        let x = b.Flat.a0.(i) in
        s.w_uses.(x) = 1 && absorbs b.Flat.code.(x))
       || go (i + 1))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Early-modswitch                                                      *)
(* ------------------------------------------------------------------ *)

(* One round of [Passes.absorb_modswitches] over the live ops of
   [gen.flat], rebuilt into [next], which numbers every op as the round's
   value numbering does; then [next] becomes [gen.flat]. Each op's base is
   its nearest non-modswitch definition and its depth the modswitches above
   it; a base absorbs as many layers as its shallowest live use sits
   below it, or its deepest when no live use has a layer (a base no live
   op reads keeps its dead chains' count, as the pass does). Each base is
   re-emitted with its operands that many layers deeper (an encode raises
   its level attribute instead), and each surviving layer is a modswitch
   emitted where a use first needs it. *)
let absorb s =
  let b = s.gen.Codegen.flat and nb = s.next in
  let n = b.Flat.n in
  let live = s.w_live and base = s.w_base and depth = s.w_depth in
  let lowest = s.w_lowest and deepest = s.w_deepest and absorbed = s.w_absorbed in
  for i = 0 to n - 1 do
    if live.(i) = 1 && b.Flat.code.(i) = Flat.modswitch then begin
      let a = b.Flat.a0.(i) in
      base.(i) <- base.(a);
      depth.(i) <- depth.(a) + 1
    end
    else begin
      base.(i) <- i;
      depth.(i) <- 0
    end
  done;
  Array.fill lowest 0 n max_int;
  Array.fill deepest 0 n 0;
  Array.fill absorbed 0 n 0;
  let reach ~live b layer =
    if live && layer < lowest.(b) then lowest.(b) <- layer;
    if layer > deepest.(b) then deepest.(b) <- layer
  in
  Array.iter (fun v -> reach ~live:true base.(v) depth.(v)) s.outputs;
  for i = n - 1 downto 0 do
    if live.(i) = 1 then
      let code = b.Flat.code.(i) in
      if code = Flat.modswitch then reach ~live:false base.(i) depth.(i)
      else begin
        if absorbs code then
          absorbed.(i) <- (if lowest.(i) < max_int then lowest.(i) else deepest.(i));
        let shift = if code = Flat.encode then 0 else absorbed.(i) in
        let a = b.Flat.a0.(i) in
        if a >= 0 then begin
          reach ~live:true base.(a) (depth.(a) + shift);
          let a = b.Flat.a1.(i) in
          if a >= 0 then reach ~live:true base.(a) (depth.(a) + shift)
        end
      end
  done;
  (* the layers of base [x] above the absorbed ones are
     [w_layers.(first.(x) + d - absorbed.(x) - 1)], -1 until emitted *)
  let first = s.w_first and layers = s.w_layers and renamed = s.w_renamed in
  let count = ref 0 in
  for x = 0 to n - 1 do
    if live.(x) = 1 && b.Flat.code.(x) <> Flat.modswitch then begin
      first.(x) <- !count;
      count := !count + deepest.(x) - absorbed.(x)
    end
  done;
  if !count > Array.length layers then s.w_layers <- Array.make (2 * !count) 0;
  let layers = s.w_layers in
  Array.fill layers 0 !count (-1);
  Flat.clear nb;
  let rec node x d =
    if d = absorbed.(x) then renamed.(x)
    else
      let k = first.(x) + d - absorbed.(x) - 1 in
      let l = layers.(k) in
      if l >= 0 then l
      else begin
        let below = node x (d - 1) in
        let l =
          Flat.emit nb ~src:(-1) Flat.modswitch below (-1) 0 0. b.Flat.tag.(x) b.Flat.scale.(x)
            (b.Flat.level.(x) + d)
        in
        layers.(k) <- l;
        l
      end
  in
  let operand shift a = if a < 0 then -1 else node base.(a) (depth.(a) + shift) in
  for i = 0 to n - 1 do
    if live.(i) = 1 && b.Flat.code.(i) <> Flat.modswitch then begin
      let code = b.Flat.code.(i) and k = absorbed.(i) in
      let shift = if code = Flat.encode then 0 else k in
      let a0 = operand shift b.Flat.a0.(i) in
      let a1 = operand shift b.Flat.a1.(i) in
      let iattr = if code = Flat.encode then b.Flat.iattr.(i) + k else b.Flat.iattr.(i) in
      renamed.(i) <-
        Flat.emit nb ~src:b.Flat.src.(i) code a0 a1 iattr b.Flat.fattr.(i) b.Flat.tag.(i)
          b.Flat.scale.(i) (b.Flat.level.(i) + k)
    end
  done;
  Array.iteri (fun j v -> s.outputs.(j) <- node base.(v) depth.(v)) s.outputs;
  Array.iteri (fun j v -> s.inputs.(j) <- renamed.(v)) s.inputs;
  s.gen.Codegen.flat <- nb;
  s.next <- b

let max_rounds = 64

(* [Passes.finalize]'s fixpoint on what the generator emitted: rounds of
   early-modswitch until nothing is movable. Leaves [w_live] and [w_uses]
   for the final program. *)
let finalize s ~early_modswitch =
  liveness s;
  if early_modswitch then begin
    let rounds = ref 0 in
    while movable s do
      if !rounds = max_rounds then
        invalid_arg
          (Printf.sprintf "Passes.finalize: did not converge within %d iterations" max_rounds);
      incr rounds;
      absorb s;
      liveness s
    done
  end

(* ------------------------------------------------------------------ *)
(* Parameters and the count matrix                                      *)
(* ------------------------------------------------------------------ *)

(* [Paramselect.of_prog] over the live ops' types *)
let params ?q0_bits ~sf_bits s =
  let b = s.gen.Codegen.flat in
  let needed = ref 0 in
  for i = 0 to b.Flat.n - 1 do
    if s.w_live.(i) = 1 && b.Flat.tag.(i) <> Flat.free then
      needed :=
        Paramselect.needed ?q0_bits ~sf_bits !needed ~scale:b.Flat.scale.(i)
          ~level:b.Flat.level.(i)
  done;
  Paramselect.of_chain_levels ?q0_bits ~sf_bits ~slot_count:s.src.prog.Prog.slot_count !needed

(* Where [Select] keeps a value: [w_renamed] is reused for it. *)
let l_none = 0
let l_reg = 1
let l_slot = 2

(* The matrix [Estimator.counts] counts on the finalized program: what
   [Select] emits for each live op, with [Fusion]'s fused multiplies (a
   ciphertext product whose one use is a rescale runs there) and rotation
   fans (a value rotated by k distinct amounts runs one rotation and k - 1
   hoisted ones, at its first), and [Select]'s refusals: an operand in the
   wrong place raises, as an output that is not a ciphertext fails the type
   check. *)
let count_matrix s (params : Paramselect.t) =
  let b = s.gen.Codegen.flat in
  let n = b.Flat.n in
  let live = s.w_live and uses = s.w_uses in
  let loc = s.w_renamed and fused = s.w_base and rotations = s.w_depth in
  Array.fill fused 0 n 0;
  Array.fill rotations 0 n 0;
  for i = 0 to n - 1 do
    if live.(i) = 1 then
      let c = b.Flat.code.(i) in
      if c = Flat.rescale then begin
        let m = b.Flat.a0.(i) in
        if
          b.Flat.code.(m) = Flat.mul && uses.(m) = 1
          && b.Flat.tag.(b.Flat.a0.(m)) = Flat.cipher
          && b.Flat.tag.(b.Flat.a1.(m)) = Flat.cipher
        then begin
          fused.(m) <- 1;
          fused.(i) <- 1
        end
      end
      else if c = Flat.rotate then rotations.(b.Flat.a0.(i)) <- rotations.(b.Flat.a0.(i)) + 1
  done;
  let counts = Estimator.create ~levels:params.Paramselect.chain_levels in
  let add cls level k = Estimator.add counts cls ~level k in
  let fail what = invalid_arg ("Select: " ^ what) in
  let cipher v = if loc.(v) <> l_reg then fail "expected a ciphertext value" in
  (* the level an instruction runs at: its first operand's *)
  let at i = b.Flat.level.(b.Flat.a0.(i)) in
  for i = 0 to n - 1 do
    if live.(i) = 1 then begin
      let c = b.Flat.code.(i) in
      loc.(i) <- l_reg;
      if c = Flat.const then loc.(i) <- l_none
      else if c = Flat.input then ()
      else if c = Flat.encode then begin
        if b.Flat.code.(b.Flat.a0.(i)) <> Flat.const then fail "encode of a non-free value";
        loc.(i) <- l_slot;
        add Costmodel.Encode b.Flat.iattr.(i) 1
      end
      else if c = Flat.add || c = Flat.sub || c = Flat.mul then begin
        let x = b.Flat.a0.(i) and y = b.Flat.a1.(i) in
        if c = Flat.mul && fused.(i) = 1 then loc.(i) <- l_none
        else if loc.(x) = l_reg && loc.(y) = l_reg then
          add (if c = Flat.mul then Costmodel.Cipher_mul else Costmodel.Cipher_add) (at i) 1
        else if loc.(x) = l_reg && loc.(y) = l_slot then
          add (if c = Flat.mul then Costmodel.Plain_mul else Costmodel.Plain_add) (at i) 1
        else if loc.(y) = l_reg && loc.(x) = l_slot then
          (* a reversed subtraction runs sub_plain, then negate *)
          if c = Flat.mul then add Costmodel.Plain_mul (at i) 1
          else add Costmodel.Plain_add (at i) (if c = Flat.sub then 2 else 1)
        else
          fail
            (if c = Flat.mul then "mul operands must pair a ciphertext with a plaintext"
             else "additive operands must pair a ciphertext with a plaintext")
      end
      else if c = Flat.modswitch && loc.(b.Flat.a0.(i)) = l_slot then begin
        loc.(i) <- l_slot;
        add Costmodel.Modswitch (at i) 1
      end
      else if c = Flat.rescale && fused.(i) = 1 then begin
        let m = b.Flat.a0.(i) in
        cipher b.Flat.a0.(m);
        cipher b.Flat.a1.(m);
        add Costmodel.Mul_rescale (at i) 1
      end
      else begin
        (* one ciphertext operand *)
        let x = b.Flat.a0.(i) in
        if c = Flat.rotate then begin
          (* the first rotation of [x] runs the fan; the others run nothing *)
          if rotations.(x) > 0 then begin
            cipher x;
            add Costmodel.Rotate (at i) 1;
            if rotations.(x) > 1 then add Costmodel.Rotate_hoisted (at i) (rotations.(x) - 1);
            rotations.(x) <- 0
          end
        end
        else begin
          cipher x;
          if c = Flat.negate then add Costmodel.Plain_add (at i) 1
          else if c = Flat.rescale then add Costmodel.Rescale (at i) 1
          else if c = Flat.modswitch then add Costmodel.Modswitch (at i) 1
          else if c = Flat.upscale then begin
            add Costmodel.Encode (at i) 1;
            add Costmodel.Plain_mul (at i) 1
          end
          else begin
            add Costmodel.Encode (at i) 1;
            add Costmodel.Plain_mul (at i) 1;
            add Costmodel.Rescale (at i) 1
          end
        end
      end
    end
  done;
  Array.iter
    (fun v ->
      if b.Flat.tag.(v) <> Flat.cipher then
        invalid_arg "Typing.check: an output is not a ciphertext";
      cipher v)
    s.outputs;
  counts

(* ------------------------------------------------------------------ *)
(* The scorer                                                           *)
(* ------------------------------------------------------------------ *)

type generator = Waterline | Pars of { downscale_analysis : bool }

type t = {
  cfg : Typing.config;
  generator : generator;
  early_modswitch : bool;
  q0_bits : int option;
  sf_bits : int;
  src : source;
  lock : Mutex.t;
  mutable free : scratch list; (* idle scratch, one per domain at work *)
}

(* What the model covers: a source the code generators accept whose every
   op but an input is used, as the cleanup pipelines leave it. A dead op
   would reach early-modswitch when the first value numbering merges
   nothing, and its uses would count there. *)
let create cfg generator ~early_modswitch ?q0_bits ~sf_bits (prog : Prog.t) =
  let uses = Prog.use_counts prog in
  let modelled =
    Array.for_all
      (fun (o : Prog.op) ->
        match o.Prog.kind with
        | Prog.Input _ -> true
        | Prog.Const _ | Prog.Add | Prog.Sub | Prog.Mul | Prog.Negate | Prog.Rotate _ ->
            uses.(o.Prog.id) > 0
        | Prog.Encode _ | Prog.Rescale | Prog.Modswitch | Prog.Upscale _ | Prog.Downscale _ ->
            false)
      prog.Prog.body
  in
  if not modelled then None
  else
    let table = Const_table.create 16 in
    let classes =
      Array.map
        (fun (o : Prog.op) ->
          match o.Prog.kind with
          | Prog.Const _ -> (
              match Const_table.find_opt table o.Prog.kind with
              | Some c -> c
              | None ->
                  Const_table.add table o.Prog.kind o.Prog.id;
                  o.Prog.id)
          | _ -> 0)
        prog.Prog.body
    in
    Some
      {
        cfg;
        generator;
        early_modswitch;
        q0_bits;
        sf_bits;
        src = { prog; classes };
        lock = Mutex.create ();
        free = [];
      }

let take t =
  Mutex.protect t.lock (fun () ->
      match t.free with
      | s :: rest ->
          t.free <- rest;
          s
      | [] -> scratch t.src)

let give t s = Mutex.protect t.lock (fun () -> t.free <- s :: t.free)

let with_scratch t f =
  let s = take t in
  match f s with
  | r ->
      give t s;
      r
  | exception e ->
      give t s;
      raise e

let count t ~hook =
  with_scratch t (fun s ->
      let gen = s.gen in
      Flat.clear gen.Codegen.flat;
      let prog = t.src.prog in
      (match t.generator with
      | Waterline -> Codegen.emit_waterline t.cfg ~hook gen prog
      | Pars { downscale_analysis } -> Codegen.emit_pars t.cfg ~hook ~downscale_analysis gen prog);
      List.iteri (fun j v -> s.outputs.(j) <- gen.Codegen.mapped.(v)) prog.Prog.outputs;
      List.iteri (fun j v -> s.inputs.(j) <- gen.Codegen.mapped.(v)) prog.Prog.inputs;
      finalize s ~early_modswitch:t.early_modswitch;
      let params = params ?q0_bits:t.q0_bits ~sf_bits:t.sf_bits s in
      (params, count_matrix s params))

let cost t ~model ~hook =
  let params, counts = count t ~hook in
  Estimator.price ~model ~params ~n:params.Paramselect.secure_n counts
