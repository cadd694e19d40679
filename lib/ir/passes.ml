(* Rebuild helper: keep ops selected by [keep], remapping operand ids,
   each first sent through [redirect] when one is given. Assumes every
   kept op only references kept ops. An op that keeps its id and its
   operands is carried over as it is: a fresh copy stored in a large body
   array would cost a promotion out of the minor heap. *)
let rebuild ?redirect (p : Prog.t) ~keep =
  let n = Prog.num_ops p in
  let remap = Array.make n (-1) in
  let id = match redirect with None -> fun a -> remap.(a) | Some r -> fun a -> remap.(r.(a)) in
  let rec same args k =
    k < 0 || (id (Array.unsafe_get args k) = Array.unsafe_get args k && same args (k - 1))
  in
  let kept = ref 0 in
  Array.iter (fun k -> if k then incr kept) keep;
  let body = Array.make !kept Prog.placeholder in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if keep.(i) then begin
      let o = Prog.op p i in
      body.(!count) <-
        (let args = o.Prog.args in
         if i = !count && same args (Array.length args - 1) then o
         else { o with Prog.id = !count; args = Array.map id args });
      remap.(i) <- !count;
      incr count
    end
  done;
  {
    p with
    Prog.body;
    inputs = List.map id p.Prog.inputs;
    outputs = List.map id p.Prog.outputs;
  }

let dce (p : Prog.t) =
  let n = Prog.num_ops p in
  let live = Array.make n false in
  let rec mark v =
    if not live.(v) then begin
      live.(v) <- true;
      Array.iter mark (Prog.op p v).Prog.args
    end
  in
  List.iter mark p.Prog.outputs;
  (* inputs are part of the signature *)
  List.iter (fun v -> live.(v) <- true) p.Prog.inputs;
  if Array.for_all Fun.id live then p else rebuild p ~keep:live

(* Keys for value numbering: an op's kind and its already-numbered
   operands. Equality is [compare]'s on floats (so [0.] = [-0.] and every
   NaN equals every NaN) and the hash agrees with it. The polymorphic
   [Hashtbl.hash] is not used because it reads only the first few floats
   of a constant: every weight vector with a common zero prefix would
   share one bucket, and each lookup would walk a chain of full
   structural compares. The hash is computed once per key and compared
   before anything else. *)
module Key = struct
  type t = { kind : Prog.kind; args : int array; hash : int }

  let float_eq (a : float) b = compare a b = 0

  (* hand-written loops: the polymorphic Array iterators box every float *)
  let floats_eq (x : float array) (y : float array) =
    x == y
    || Array.length x = Array.length y
       &&
       let rec go i =
         i < 0 || (float_eq (Array.unsafe_get x i) (Array.unsafe_get y i) && go (i - 1))
       in
       go (Array.length x - 1)

  let kind_eq (a : Prog.kind) (b : Prog.kind) =
    match (a, b) with
    | Prog.Input { name = x }, Prog.Input { name = y } -> String.equal x y
    | Prog.Const { value = Prog.Scalar x }, Prog.Const { value = Prog.Scalar y } -> float_eq x y
    | Prog.Const { value = Prog.Vector x }, Prog.Const { value = Prog.Vector y } -> floats_eq x y
    | Prog.Encode { scale = s1; level = l1 }, Prog.Encode { scale = s2; level = l2 } ->
        float_eq s1 s2 && l1 = l2
    | Prog.Rotate { amount = x }, Prog.Rotate { amount = y } -> x = y
    | Prog.Upscale { target_scale = x }, Prog.Upscale { target_scale = y } -> float_eq x y
    | Prog.Downscale { waterline = x }, Prog.Downscale { waterline = y } -> float_eq x y
    | Prog.Add, Prog.Add | Prog.Sub, Prog.Sub | Prog.Mul, Prog.Mul | Prog.Negate, Prog.Negate
    | Prog.Rescale, Prog.Rescale | Prog.Modswitch, Prog.Modswitch ->
        true
    | _ -> false

  let args_eq (x : int array) (y : int array) =
    Array.length x = Array.length y
    &&
    let rec go i = i < 0 || (Array.unsafe_get x i = Array.unsafe_get y i && go (i - 1)) in
    go (Array.length x - 1)

  let equal a b = a.hash = b.hash && kind_eq a.kind b.kind && args_eq a.args b.args

  let mix h x = (h * 31) + x [@@inline]

  (* [compare]'s equivalence classes: both zeros, and all NaNs, hash alike *)
  let float_hash x =
    if x = 0. then 0
    else if Float.is_nan x then 1
    else
      let b = Int64.bits_of_float x in
      Int64.to_int b lxor Int64.to_int (Int64.shift_right_logical b 32)
  [@@inline]

  (* The first and last [ends] non-zero slots, with their positions. A
     sparse vector is read whole, so vectors that differ anywhere after a
     long common zero prefix (weight diagonals, slot masks) land in
     different buckets. A dense one is read only at its two ends: every
     SMSE candidate's [finalize] numbers its values, once in its walk and
     again as early-modswitch rebuilds, and reading every slot of LeNet's
     weights each time would cost more than the lookups save. *)
  let ends = 8

  let floats_hash (v : float array) =
    let n = Array.length v in
    let h = ref n and i = ref 0 and seen = ref 0 in
    while !i < n && !seen < ends do
      let x = Array.unsafe_get v !i in
      if x <> 0. then begin
        h := mix (mix !h !i) (float_hash x);
        incr seen
      end;
      incr i
    done;
    let j = ref (n - 1) and seen = ref 0 in
    while !j >= !i && !seen < ends do
      let x = Array.unsafe_get v !j in
      if x <> 0. then begin
        h := mix (mix !h !j) (float_hash x);
        incr seen
      end;
      decr j
    done;
    !h

  let kind_hash : Prog.kind -> int = function
    | Prog.Input { name } -> mix 1 (Hashtbl.hash name)
    | Prog.Const { value = Prog.Scalar x } -> mix 2 (float_hash x)
    | Prog.Const { value = Prog.Vector v } -> mix 3 (floats_hash v)
    | Prog.Encode { scale; level } -> mix (mix 4 (float_hash scale)) level
    | Prog.Add -> 5
    | Prog.Sub -> 6
    | Prog.Mul -> 7
    | Prog.Negate -> 8
    | Prog.Rotate { amount } -> mix 9 amount
    | Prog.Rescale -> 10
    | Prog.Modswitch -> 11
    | Prog.Upscale { target_scale } -> mix 12 (float_hash target_scale)
    | Prog.Downscale { waterline } -> mix 13 (float_hash waterline)

  let hash k = k.hash

  (* [mix] alone leaves the low bits, which pick the bucket, a near-linear
     function of the operand ids; [Hashtbl.hash] on the int scrambles them *)
  let make kind args =
    let h = ref (kind_hash kind) in
    for i = 0 to Array.length args - 1 do
      h := mix !h (Array.unsafe_get args i)
    done;
    { kind; args; hash = Hashtbl.hash !h }
end

module Value_table = Hashtbl.Make (Key)

let cse (p : Prog.t) =
  let n = Prog.num_ops p in
  let canon = Array.make n (-1) in
  let table = Value_table.create n in
  let merged = ref false in
  for i = 0 to n - 1 do
    let o = Prog.op p i in
    match o.Prog.kind with
    | Prog.Input _ -> canon.(i) <- i (* never merge distinct inputs *)
    | kind -> (
        let key = Key.make kind (Array.map (fun a -> canon.(a)) o.Prog.args) in
        match Value_table.find_opt table key with
        | Some j ->
            canon.(i) <- j;
            merged := true
        | None ->
            Value_table.add table key i;
            canon.(i) <- i)
  done;
  if not !merged then p
  else begin
    (* Redirect every use to the canonical op, then drop duplicates. *)
    let redirected =
      {
        p with
        Prog.body =
          Array.map
            (fun (o : Prog.op) -> { o with Prog.args = Array.map (fun a -> canon.(a)) o.Prog.args })
            p.Prog.body;
        outputs = List.map (fun v -> canon.(v)) p.Prog.outputs;
      }
    in
    dce redirected
  end

let fold_values slot_count (kind : Prog.kind) (args : Prog.const_value list) =
  let to_vec = function
    | Prog.Scalar x -> Array.make slot_count x
    | Prog.Vector v ->
        let out = Array.make slot_count 0. in
        Array.blit v 0 out 0 (min slot_count (Array.length v));
        out
  in
  match (kind, args) with
  | Prog.Add, [ Prog.Scalar a; Prog.Scalar b ] -> Some (Prog.Scalar (a +. b))
  | Prog.Sub, [ Prog.Scalar a; Prog.Scalar b ] -> Some (Prog.Scalar (a -. b))
  | Prog.Mul, [ Prog.Scalar a; Prog.Scalar b ] -> Some (Prog.Scalar (a *. b))
  | Prog.Negate, [ Prog.Scalar a ] -> Some (Prog.Scalar (-.a))
  | Prog.Rotate _, [ (Prog.Scalar _ as s) ] -> Some s
  | Prog.Add, [ a; b ] ->
      let va = to_vec a and vb = to_vec b in
      Some (Prog.Vector (Array.init slot_count (fun i -> va.(i) +. vb.(i))))
  | Prog.Sub, [ a; b ] ->
      let va = to_vec a and vb = to_vec b in
      Some (Prog.Vector (Array.init slot_count (fun i -> va.(i) -. vb.(i))))
  | Prog.Mul, [ a; b ] ->
      let va = to_vec a and vb = to_vec b in
      Some (Prog.Vector (Array.init slot_count (fun i -> va.(i) *. vb.(i))))
  | Prog.Negate, [ a ] ->
      let va = to_vec a in
      Some (Prog.Vector (Array.map (fun x -> -.x) va))
  | Prog.Rotate { amount }, [ a ] ->
      let va = to_vec a in
      let r = ((amount mod slot_count) + slot_count) mod slot_count in
      Some (Prog.Vector (Array.init slot_count (fun i -> va.((i + r) mod slot_count))))
  | _ -> None

(* the ops [constant_fold] folds first: arithmetic over constant operands
   only. Anything it folds later has one of these below it. *)
let foldable (p : Prog.t) =
  let body = p.Prog.body in
  let is_const a =
    match (Array.unsafe_get body a).Prog.kind with Prog.Const _ -> true | _ -> false
  in
  let rec all_const args k =
    k < 0 || (is_const (Array.unsafe_get args k) && all_const args (k - 1))
  in
  let rec go i =
    i >= 0
    && ((match body.(i).Prog.kind with
        | Prog.Add | Prog.Sub | Prog.Mul | Prog.Negate | Prog.Rotate _ ->
            let args = body.(i).Prog.args in
            all_const args (Array.length args - 1)
        | _ -> false)
       || go (i - 1))
  in
  go (Array.length body - 1)

let constant_fold (p : Prog.t) =
  if not (foldable p) then dce p
  else begin
    let n = Prog.num_ops p in
    let const_of = Array.make n None in
    let body =
      Array.map
        (fun (o : Prog.op) ->
          match o.Prog.kind with
          | Prog.Const { value } ->
              const_of.(o.Prog.id) <- Some value;
              o
          | Prog.Add | Prog.Sub | Prog.Mul | Prog.Negate | Prog.Rotate _ -> (
              let arg_consts = Array.map (fun a -> const_of.(a)) o.Prog.args in
              if Array.for_all Option.is_some arg_consts then
                match
                  fold_values p.Prog.slot_count o.Prog.kind
                    (Array.to_list (Array.map Option.get arg_consts))
                with
                | Some value ->
                    const_of.(o.Prog.id) <- Some value;
                    { o with Prog.kind = Prog.Const { value }; args = [||] }
                | None -> o
              else o)
          | _ -> o)
        p.Prog.body
    in
    dce { p with Prog.body }
  end

let fold_rotations_once (p : Prog.t) =
  let n = Prog.num_ops p in
  let uses = Prog.use_counts p in
  let norm amount = ((amount mod p.Prog.slot_count) + p.Prog.slot_count) mod p.Prog.slot_count in
  (* forward pass: each rotate looks through a single-use rotate operand *)
  let replaced = Array.make n (-1) in
  let changed = ref false in
  let body =
    Array.map
      (fun (o : Prog.op) ->
        let args = o.Prog.args in
        match o.Prog.kind with
        | Prog.Rotate { amount } -> (
            let src = args.(0) in
            let combined, root =
              match (Prog.op p src).Prog.kind with
              | Prog.Rotate { amount = inner } when uses.(src) = 1 ->
                  (norm (amount + inner), (Prog.op p src).Prog.args.(0))
              | _ -> (norm amount, src)
            in
            if combined = 0 || combined <> amount || root <> src then changed := true;
            if combined = 0 then begin
              replaced.(o.Prog.id) <- root;
              (* keep a placeholder op; DCE removes it after redirection *)
              { o with Prog.kind = Prog.Rotate { amount = 0 }; args = [| root |] }
            end
            else { o with Prog.kind = Prog.Rotate { amount = combined }; args = [| root |] })
        | _ -> o)
      p.Prog.body
  in
  if not !changed then dce p
  else begin
    (* redirect uses of zero-rotations to their roots *)
    let rec resolve v = if replaced.(v) >= 0 then resolve replaced.(v) else v in
    let redirected =
      {
        p with
        Prog.body =
          Array.map
            (fun (o : Prog.op) -> { o with Prog.args = Array.map resolve o.Prog.args })
            body;
        outputs = List.map resolve p.Prog.outputs;
      }
    in
    dce redirected
  end

(* chains of three or more rotations fold one pair per pass *)
let fold_rotations p =
  let rec fix p =
    let p' = fold_rotations_once p in
    if Prog.num_ops p' < Prog.num_ops p then fix p' else p'
  in
  fix p

(* [mul (mul x c1) c2] => [mul x (c1*c2)] for constant operands c1, c2.
   Detection runs over the original program while emission maps already-
   rewritten operands, so a chain shortens by one link per application;
   the enclosing fixpoint flattens longer chains. Inner multiplies with
   other remaining uses keep them; dce drops the rest. *)
let fold_plain_muls (p : Prog.t) =
  let n = Prog.num_ops p in
  let const_of v =
    match (Prog.op p v).Prog.kind with
    | Prog.Const { value } -> Some value
    | _ -> None
  in
  (* a Mul split into (non-const operand, const operand value) when exactly
     one operand is a direct constant *)
  let split v =
    match (Prog.op p v).Prog.kind with
    | Prog.Mul -> (
        let args = (Prog.op p v).Prog.args in
        match (const_of args.(0), const_of args.(1)) with
        | None, Some c -> Some (args.(0), c)
        | Some c, None -> Some (args.(1), c)
        | _ -> None)
    | _ -> None
  in
  let fusable = Array.make n None in
  let any = ref false in
  for i = 0 to n - 1 do
    match split i with
    | Some (inner, c2) -> (
        match split inner with
        | Some (x, c1) -> (
            match fold_values p.Prog.slot_count Prog.Mul [ c1; c2 ] with
            | Some folded ->
                fusable.(i) <- Some (x, folded);
                any := true
            | None -> ())
        | None -> ())
    | None -> ()
  done;
  if not !any then p
  else begin
    let rw = Prog.Rewriter.create p in
    for i = 0 to n - 1 do
      let o = Prog.op p i in
      let mapped = Array.map (Prog.Rewriter.mapped rw) o.Prog.args in
      let id =
        match fusable.(i) with
        | Some (x, folded) ->
            let c =
              Prog.Rewriter.emit rw (Prog.Const { value = folded }) [||] Types.Free
            in
            Prog.Rewriter.emit ?prov:o.Prog.prov rw Prog.Mul
              [| Prog.Rewriter.mapped rw x; c |]
              Types.Free
        | None -> Prog.Rewriter.emit ?prov:o.Prog.prov rw o.Prog.kind mapped o.Prog.ty
      in
      Prog.Rewriter.set_mapped rw ~old_value:o.Prog.id id
    done;
    dce (Prog.Rewriter.finish rw)
  end

(* EVA's early-modswitch, as one backward analysis and one rebuild.

   A modswitch applied to the single use of an absorbing op is absorbed:
   the op runs one level lower and each of its operands (or, for [encode],
   its level attribute) takes the modswitch instead. Applied until nothing
   moves, each absorption can enable the next one up the chain. The pass
   computes that closure directly instead of re-sweeping the program once
   per moved layer.

   Resolve every value to a base (its nearest non-modswitch definition) and
   a depth (the explicit modswitches in between): a modswitch layer is a
   (base, depth) pair, and the program ends up with one [modswitch] per
   surviving layer, however many the input spelled out. A base [x] absorbs
   layers one at a time, and only while every live use of [x] (an operand
   of a non-modswitch op, or an output) sits at least one layer deeper than
   what [x] has absorbed so far. When consumer [y] absorbs [k] layers, its
   operand moves [k] layers deeper, except under [encode], which takes the
   layers into its attribute. So, in reverse id order:

     absorbed x = min over live uses of (depth + absorbed y)   (depth alone
                  for outputs and [encode] operands)

   A base with no live uses absorbs the longest modswitch chain hanging off
   it: a dead [modswitch] is absorbed like any other, but it never holds
   the base back, because it merges into the layer node it duplicates.

   A base absorbs its first layer only once its modswitches are one op, and
   duplicates merge only in a rewrite that changes something else. So
   whether anything changes at all is the literal test below: some
   modswitch whose operand can absorb and has no other use. If there is
   none, the input comes back physically, duplicates and all.

   Each surviving layer becomes one [modswitch] op, placed at the first of
   the points that create it, in program order: an explicit [modswitch] of
   the input (which keeps its provenance) or the wrapper the [k]-th
   absorption of consumer [y] puts in front of [y] for each operand
   (without provenance). The wrappers of one consumer come in absorption
   order, and operand order within an absorption. *)

let absorbs : Prog.kind -> bool = function
  | Prog.Add | Prog.Sub | Prog.Mul | Prog.Negate | Prog.Rotate _ | Prog.Rescale | Prog.Upscale _
  | Prog.Downscale _ | Prog.Encode _ ->
      true
  | Prog.Input _ | Prog.Const _ | Prog.Modswitch -> false

(* the literal test for "anything moves" *)
let movable (p : Prog.t) uses =
  let body = p.Prog.body in
  Array.exists
    (fun (o : Prog.op) ->
      match o.Prog.kind with
      | Prog.Modswitch ->
          let x = o.Prog.args.(0) in
          uses.(x) = 1 && absorbs body.(x).Prog.kind
      | _ -> false)
    body

(* Open-addressing value table over op ids, for the value numbering
   [finalize] does without [Key]s: [same cand j] compares the op being
   numbered with entry [j], so a lookup allocates nothing. *)
module Vn = struct
  type t = { ids : int array; hashes : int array; mask : int }

  (* at most two thirds full: a table of up to 256 slots, for up to 170
     ops, stays in the minor heap *)
  let create n =
    let size = ref 16 in
    while 2 * !size < 3 * n do
      size := 2 * !size
    done;
    { ids = Array.make !size (-1); hashes = Array.make !size 0; mask = !size - 1 }

  (* [Key.mix] leaves the low bits, which pick the slot, a near-linear
     function of the operand ids *)
  let scramble h =
    let h = h * 0x2545F4914F6CDD1D in
    h lxor (h lsr 29)
  [@@inline]

  (* the entry [same] matches, or [cand], which is added *)
  let find_or_add t ~same h cand =
    let rec probe s =
      let j = Array.unsafe_get t.ids s in
      if j < 0 then begin
        Array.unsafe_set t.ids s cand;
        Array.unsafe_set t.hashes s h;
        cand
      end
      else if Array.unsafe_get t.hashes s = h && same cand j then j
      else probe ((s + 1) land t.mask)
    in
    probe (h land t.mask)
end

(* The analysis and rebuild of [early_modswitch], on a program where
   [movable] holds. With [value_number], every op is looked up among the
   ops emitted before it, as [cse] would number it, and a duplicate is
   not emitted: its uses go to the first. That needs a program without
   duplicates, as [finalize] hands it: an op without operands is emitted
   with its kind unchanged, so it cannot meet its equal, and is not looked
   up. Returns the program and whether anything merged; without a merge
   the program is the one [early_modswitch] returns. *)
let absorb_modswitches ~value_number (p : Prog.t) =
  let body = p.Prog.body in
  let n = Array.length body in
  let base = Array.make n 0 and depth = Array.make n 0 in
  for i = 0 to n - 1 do
    match body.(i).Prog.kind with
    | Prog.Modswitch ->
        let a = body.(i).Prog.args.(0) in
        base.(i) <- base.(a);
        depth.(i) <- depth.(a) + 1
    | _ -> base.(i) <- i
  done;
  (* lowest.(b): the shallowest layer a live use of [b] ends up at;
     deepest.(b): the deepest layer any use reaches, dead chains included *)
  let lowest = Array.make n max_int and deepest = Array.make n 0 in
  let reach ~live b layer =
    if live && layer < lowest.(b) then lowest.(b) <- layer;
    if layer > deepest.(b) then deepest.(b) <- layer
  in
  List.iter (fun v -> reach ~live:true base.(v) depth.(v)) p.Prog.outputs;
  let absorbed = Array.make n 0 in
  for i = n - 1 downto 0 do
    let o = body.(i) in
    match o.Prog.kind with
    | Prog.Modswitch -> reach ~live:false base.(i) depth.(i)
    | kind ->
        if absorbs kind then
          absorbed.(i) <- (if lowest.(i) < max_int then lowest.(i) else deepest.(i));
        let shift = match kind with Prog.Encode _ -> 0 | _ -> absorbed.(i) in
        Array.iter (fun a -> reach ~live:true base.(a) (depth.(a) + shift)) o.Prog.args
  done;
  (* the surviving layers of base [b] are absorbed.(b)+1 .. deepest.(b);
     layer_at.(first.(b) + d - absorbed.(b) - 1) is layer d's new op *)
  let first = Array.make n 0 in
  let layers = ref 0 and bases = ref 0 in
  for b = 0 to n - 1 do
    match body.(b).Prog.kind with
    | Prog.Modswitch -> ()
    | _ ->
        first.(b) <- !layers;
        layers := !layers + deepest.(b) - absorbed.(b);
        incr bases
  done;
  let layer_at = Array.make !layers (-1) in
  let size = !bases + !layers in
  let ops = Array.make size Prog.placeholder in
  let count = ref 0 and merged = ref false in
  let table = Vn.create (if value_number then size else 0) in
  let same i j =
    Key.kind_eq ops.(i).Prog.kind ops.(j).Prog.kind
    && Key.args_eq ops.(i).Prog.args ops.(j).Prog.args
  in
  let emit ?prov kind args =
    let id = !count in
    ops.(id) <- { Prog.id; kind; args; ty = Types.Free; prov };
    match kind with
    | Prog.Input _ ->
        incr count;
        id
    | _ when (not value_number) || Array.length args = 0 ->
        incr count;
        id
    | _ ->
        let h = ref (Key.kind_hash kind) in
        for k = 0 to Array.length args - 1 do
          h := Key.mix !h (Array.unsafe_get args k)
        done;
        let j = Vn.find_or_add table ~same (Vn.scramble !h) id in
        if j = id then incr count else merged := true;
        j
  in
  let renamed = Array.make n (-1) in
  let node b d =
    if d = absorbed.(b) then renamed.(b) else layer_at.(first.(b) + d - absorbed.(b) - 1)
  in
  (* the first request for a surviving layer creates it *)
  let request ?prov b d =
    if d > absorbed.(b) then begin
      let k = first.(b) + d - absorbed.(b) - 1 in
      if layer_at.(k) < 0 then layer_at.(k) <- emit ?prov Prog.Modswitch [| node b (d - 1) |]
    end
  in
  let operand shift a = node base.(a) (depth.(a) + shift) in
  for i = 0 to n - 1 do
    let o = body.(i) in
    let prov = o.Prog.prov in
    match o.Prog.kind with
    | Prog.Modswitch -> request ?prov base.(i) depth.(i)
    | Prog.Encode { scale; level } ->
        renamed.(i) <-
          emit ?prov
            (Prog.Encode { scale; level = level + absorbed.(i) })
            (Array.map (operand 0) o.Prog.args)
    | kind ->
        let k = absorbed.(i) in
        for j = 1 to k do
          Array.iter (fun a -> request base.(a) (depth.(a) + j)) o.Prog.args
        done;
        renamed.(i) <- emit ?prov kind (Array.map (operand k) o.Prog.args)
  done;
  ( {
      p with
      Prog.body = (if !count = size then ops else Array.sub ops 0 !count);
      inputs = List.map (fun v -> renamed.(v)) p.Prog.inputs;
      outputs = List.map (operand 0) p.Prog.outputs;
    },
    !merged )

let early_modswitch (p : Prog.t) =
  if not (movable p (Prog.use_counts p)) then p
  else
    let out, _ = absorb_modswitches ~value_number:false p in
    match Prog.validate out with
    | Ok () -> out
    | Error msg -> invalid_arg ("Passes.early_modswitch: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Finalize in one sweep                                                *)
(* ------------------------------------------------------------------ *)

(* [cse] with one rebuild: the same numbering, over the [Vn] table, and
   when something merged, the redirection of every use and the [dce]
   after it as one compaction, where [cse] copies every op twice. The
   input comes back physically when nothing merges. *)
let value_number (p : Prog.t) =
  let body = p.Prog.body in
  let n = Array.length body in
  let canon = Array.make n 0 in
  let table = Vn.create n in
  let same i j =
    let oi = Array.unsafe_get body i and oj = Array.unsafe_get body j in
    Key.kind_eq oi.Prog.kind oj.Prog.kind
    &&
    let a = oi.Prog.args and b = oj.Prog.args in
    Array.length a = Array.length b
    &&
    let rec go k =
      k < 0 || (canon.(Array.unsafe_get a k) = canon.(Array.unsafe_get b k) && go (k - 1))
    in
    go (Array.length a - 1)
  in
  let merged = ref false in
  for i = 0 to n - 1 do
    match body.(i).Prog.kind with
    | Prog.Input _ -> canon.(i) <- i (* never merge distinct inputs *)
    | kind ->
        let args = body.(i).Prog.args in
        let h = ref (Key.kind_hash kind) in
        for k = 0 to Array.length args - 1 do
          h := Key.mix !h canon.(Array.unsafe_get args k)
        done;
        let j = Vn.find_or_add table ~same (Vn.scramble !h) i in
        canon.(i) <- j;
        if j <> i then merged := true
  done;
  if not !merged then p
  else begin
    (* liveness through the redirected uses: only canonical ops get marked *)
    let live = Array.make n false in
    List.iter (fun v -> live.(canon.(v)) <- true) p.Prog.outputs;
    List.iter (fun v -> live.(v) <- true) p.Prog.inputs;
    for i = n - 1 downto 0 do
      if live.(i) then Array.iter (fun a -> live.(canon.(a)) <- true) body.(i).Prog.args
    done;
    rebuild ~redirect:canon p ~keep:live
  end

(* A program has a dead op exactly when some op other than an input has no
   use: the last dead op cannot have one. *)
let has_dead (p : Prog.t) uses =
  let body = p.Prog.body in
  let rec go i =
    i >= 0
    && ((uses.(i) = 0 && match body.(i).Prog.kind with Prog.Input _ -> false | _ -> true)
       || go (i - 1))
  in
  go (Array.length body - 1)

let max_iterations = 64

(* One iteration of the reference body per round, each pass computed from
   what the round already knows:
   - [cse] is [value_number]; [clean] says the program is the output of
     an earlier round that folded nothing, so it has no duplicate, no
     dead op and nothing to fold, and every pass but early-modswitch
     hands it back;
   - early-modswitch runs its [movable] scan on use counts [uses] carries
     over when they are the program's own, and when it moves something,
     its rebuild numbers the ops it emits, which is the [cse] after it;
   - [constant-fold] is [dce] unless [foldable] finds work, which no
     pass here creates, so a clean round skips the scan;
   - [dce] is needed only where no compaction ran, and the use counts
     tell whether it is.
   A round stops the loop under the fixpoint's own test. *)
let finalize ~early_modswitch (p : Prog.t) =
  let rec round p ~clean ~uses k =
    if k = 0 then
      invalid_arg
        (Printf.sprintf "Passes.finalize: did not converge within %d iterations" max_iterations);
    let q = if clean then p else value_number p in
    (* [live]: [q] is known to have no dead op, as a compaction leaves none *)
    let live = clean || q != p in
    let uses = if q == p then uses else None in
    let q, live, uses =
      if not early_modswitch then (q, live, uses)
      else
        let u = match uses with Some u -> u | None -> Prog.use_counts q in
        if not (movable q u) then (q, live, Some u)
        else
          let q', merged = absorb_modswitches ~value_number:true q in
          if merged then (dce q', true, None) else (q', false, None)
    in
    if (not clean) && foldable q then next p (dce (constant_fold q)) ~clean:false ~uses:None k
    else if live then next p q ~clean:true ~uses k
    else
      let u = match uses with Some u -> u | None -> Prog.use_counts q in
      if has_dead q u then next p (dce q) ~clean:true ~uses:None k
      else next p q ~clean:true ~uses:(Some u) k
  and next p r ~clean ~uses k =
    if r == p || Prog.equal p r then r else round r ~clean ~uses (k - 1)
  in
  round p ~clean:false ~uses:None max_iterations
