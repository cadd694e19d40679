type value = int
type const_value = Scalar of float | Vector of float array

type kind =
  | Input of { name : string }
  | Const of { value : const_value }
  | Encode of { scale : float; level : int }
  | Add
  | Sub
  | Mul
  | Negate
  | Rotate of { amount : int }
  | Rescale
  | Modswitch
  | Upscale of { target_scale : float }
  | Downscale of { waterline : float }

type provenance = { label : string; context : string list }

let provenance_to_string { label; context } = String.concat " > " (context @ [ label ])

let provenance_of_string s =
  let parts =
    String.split_on_char '>' s
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  match List.rev parts with
  | [] -> None
  | label :: rev_context -> Some { label; context = List.rev rev_context }

type op = {
  id : value;
  kind : kind;
  args : value array;
  mutable ty : Types.t;
  mutable prov : provenance option;
}

type t = {
  name : string;
  slot_count : int;
  body : op array;
  inputs : value list;
  outputs : value list;
}

let placeholder = { id = -1; kind = Add; args = [||]; ty = Types.Free; prov = None }

let discard p = Array.fill p.body 0 (Array.length p.body) placeholder

let op p v =
  if v < 0 || v >= Array.length p.body then invalid_arg "Prog.op: value id out of range";
  p.body.(v)

let num_ops p = Array.length p.body
let iter f p = Array.iter f p.body

let arity = function
  | Input _ | Const _ -> 0
  | Encode _ | Negate | Rotate _ | Rescale | Modswitch | Upscale _ | Downscale _ -> 1
  | Add | Sub | Mul -> 2

let kind_name = function
  | Input _ -> "input"
  | Const _ -> "const"
  | Encode _ -> "encode"
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Negate -> "negate"
  | Rotate _ -> "rotate"
  | Rescale -> "rescale"
  | Modswitch -> "modswitch"
  | Upscale _ -> "upscale"
  | Downscale _ -> "downscale"

(* [validate]'s rules, in its order of precedence. Each is a loop without
   a closure: the pass manager's verifier and [Rewriter.finish] run it on
   every SMSE candidate. *)
let rec operands_precede args i k =
  k < 0
  ||
  let a = Array.unsafe_get args k in
  a >= 0 && a < i && operands_precede args i (k - 1)

(* the first op breaking the id, arity or order rule, or [n] *)
let rec first_bad_op body n i =
  if i >= n then n
  else
    let o = Array.unsafe_get body i in
    let k = Array.length o.args in
    if o.id <> i || k <> arity o.kind || not (operands_precede o.args i (k - 1)) then i
    else first_bad_op body n (i + 1)

let rec all_in_range n = function [] -> true | v :: tl -> v >= 0 && v < n && all_in_range n tl

let rec all_input_ops body n = function
  | [] -> true
  | v :: tl ->
      v >= 0 && v < n
      && (match (Array.unsafe_get body v).kind with Input _ -> true | _ -> false)
      && all_input_ops body n tl

(* marks the (in-range) inputs in [declared]; false at the first repeat *)
let rec mark_distinct declared = function
  | [] -> true
  | v :: tl ->
      Bytes.get declared v = '\000'
      && begin
           Bytes.set declared v '\001';
           mark_distinct declared tl
         end

let rec first_undeclared body declared n i =
  if i >= n then -1
  else
    match (Array.unsafe_get body i).kind with
    | Input _ when Bytes.get declared i = '\000' -> i
    | _ -> first_undeclared body declared n (i + 1)

let validate p =
  let body = p.body in
  let n = Array.length body in
  let i = first_bad_op body n 0 in
  if i < n then begin
    let o = body.(i) in
    if o.id <> i then Error (Printf.sprintf "op at index %d has id %d" i o.id)
    else if Array.length o.args <> arity o.kind then
      Error
        (Printf.sprintf "op %d (%s): expected %d operands, got %d" i (kind_name o.kind)
           (arity o.kind) (Array.length o.args))
    else Error (Printf.sprintf "op %d (%s): operand does not precede use" i (kind_name o.kind))
  end
  else if not (all_in_range n p.outputs) then Error "output id out of range"
  else if p.outputs = [] then Error "program has no outputs"
  else if not (all_input_ops body n p.inputs) then Error "input list does not point at input ops"
  else
    let declared = Bytes.make n '\000' in
    if not (mark_distinct declared p.inputs) then Error "input list contains duplicates"
    else
      let i = first_undeclared body declared n 0 in
      if i >= 0 then Error (Printf.sprintf "input op %d is not in the input list" i) else Ok ()

let equal_op (a : op) (b : op) = a.id = b.id && a.kind = b.kind && a.args = b.args

let equal a b =
  a.name = b.name && a.slot_count = b.slot_count
  && Array.length a.body = Array.length b.body
  && Array.for_all2 equal_op a.body b.body
  && a.inputs = b.inputs && a.outputs = b.outputs

let use_counts p =
  let body = p.body in
  let counts = Array.make (Array.length body) 0 in
  for i = 0 to Array.length body - 1 do
    let args = (Array.unsafe_get body i).args in
    for k = 0 to Array.length args - 1 do
      let a = Array.unsafe_get args k in
      counts.(a) <- counts.(a) + 1
    done
  done;
  let rec outputs = function
    | [] -> ()
    | v :: tl ->
        counts.(v) <- counts.(v) + 1;
        outputs tl
  in
  outputs p.outputs;
  counts

let users p =
  let u = Array.make (Array.length p.body) [] in
  iter (fun o -> Array.iter (fun a -> u.(a) <- o.id :: u.(a)) o.args) p;
  Array.map List.rev u

(* ------------------------------------------------------------------ *)
(* Canonicalization and fingerprinting                                 *)
(* ------------------------------------------------------------------ *)

(* The canonical form of a program is what the content-addressed plan
   cache keys on: two programs that differ only in details that cannot
   change what the compiler produces must canonicalize identically.
   Normalized away:
     - op ordering: ops are renumbered in a deterministic DFS post-order
       from the outputs (operands visited left-to-right), so any
       topological permutation of the same DAG collides;
     - dead code: ops unreachable from the outputs are dropped (declared
       inputs are kept — they shape the calling convention — but dead
       derived computation cannot affect the artifact);
     - names: the function name and input names are replaced by
       positional placeholders ($0, $1, ... in canonical input order);
     - metadata: provenance and type annotations are stripped (types are
       recomputed by the checker from the structure alone). *)
let canonical_numbering p =
  let n = Array.length p.body in
  let order = Array.make n (-1) in
  let seq = ref [] in
  let next = ref 0 in
  let rec visit v =
    if order.(v) < 0 then begin
      Array.iter visit p.body.(v).args;
      order.(v) <- !next;
      incr next;
      seq := v :: !seq
    end
  in
  List.iter visit p.outputs;
  (* dead declared inputs still exist in the signature: keep them, after
     everything reachable, in declaration order *)
  List.iter visit p.inputs;
  (order, List.rev !seq)

let canonical_ids p = fst (canonical_numbering p)

let canonicalize p =
  let order, canonical_order = canonical_numbering p in
  let new_inputs =
    List.filter_map
      (fun v -> match p.body.(v).kind with Input _ -> Some order.(v) | _ -> None)
      canonical_order
  in
  let input_position = Hashtbl.create 8 in
  List.iteri (fun i v -> Hashtbl.replace input_position v i) new_inputs;
  let body =
    Array.of_list
      (List.map
         (fun v ->
           let o = p.body.(v) in
           let id = order.(v) in
           let kind =
             match o.kind with
             | Input _ -> Input { name = "$" ^ string_of_int (Hashtbl.find input_position id) }
             | k -> k
           in
           { id; kind; args = Array.map (fun a -> order.(a)) o.args; ty = Types.Free; prov = None })
         canonical_order)
  in
  {
    name = "$canon";
    slot_count = p.slot_count;
    body;
    inputs = new_inputs;
    outputs = List.map (fun v -> order.(v)) p.outputs;
  }

(* The canonical serialization, written in one walk over the canonical
   order without building the canonical program: ops as [canonicalize]
   numbers them, the i-th input in that order named $i. Floats go through
   [Hexfloat] (%h: the exact binary representation), so the fingerprint
   never depends on decimal rounding. *)
let add_int buf n = Buffer.add_string buf (Int.to_string n)

let canonical_digest ~header ~add_kind p =
  let order, canonical_order = canonical_numbering p in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf header;
  Buffer.add_string buf ";slots=";
  add_int buf p.slot_count;
  Buffer.add_string buf ";ops=";
  add_int buf (List.length canonical_order);
  Buffer.add_char buf ';';
  let inputs = ref 0 in
  List.iter
    (fun v ->
      let o = p.body.(v) in
      let input = !inputs in
      (match o.kind with Input _ -> incr inputs | _ -> ());
      add_kind buf ~input o.kind;
      Buffer.add_char buf '[';
      Array.iter
        (fun a ->
          add_int buf order.(a);
          Buffer.add_char buf ',')
        o.args;
      Buffer.add_string buf "];")
    canonical_order;
  Buffer.add_string buf "out=";
  List.iter
    (fun v ->
      add_int buf order.(v);
      Buffer.add_char buf ',')
    p.outputs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let add_call buf name x =
  Buffer.add_string buf name;
  Buffer.add_char buf '(';
  Hexfloat.add buf x;
  Buffer.add_char buf ')'

let fingerprint p =
  canonical_digest ~header:"hecate-ir-v1" p ~add_kind:(fun buf ~input kind ->
      match kind with
      | Input _ ->
          Buffer.add_string buf "in($";
          add_int buf input;
          Buffer.add_char buf ')'
      | Const { value = Scalar x } -> add_call buf "cs" x
      | Const { value = Vector v } ->
          Buffer.add_string buf "cv(";
          Array.iter
            (fun x ->
              Hexfloat.add buf x;
              Buffer.add_char buf ',')
            v;
          Buffer.add_char buf ')'
      | Encode { scale; level } ->
          Buffer.add_string buf "enc(";
          Hexfloat.add buf scale;
          Buffer.add_char buf ',';
          add_int buf level;
          Buffer.add_char buf ')'
      | Add -> Buffer.add_string buf "add"
      | Sub -> Buffer.add_string buf "sub"
      | Mul -> Buffer.add_string buf "mul"
      | Negate -> Buffer.add_string buf "neg"
      | Rotate { amount } ->
          Buffer.add_string buf "rot(";
          add_int buf amount;
          Buffer.add_char buf ')'
      | Rescale -> Buffer.add_string buf "rs"
      | Modswitch -> Buffer.add_string buf "ms"
      | Upscale { target_scale } -> add_call buf "up" target_scale
      | Downscale { waterline } -> add_call buf "down" waterline)

(* A coarser hash than [fingerprint]: the canonical kind-skeleton with
   every attribute (constants, rotation amounts, scales) elided. Programs
   that differ only in such attributes collide here, which is exactly the
   "structurally similar" bucket the plan corpus warm-starts from — their
   SMU graphs are isomorphic, so a good plan for one is a credible seed
   for the other. *)
let structural_digest p =
  canonical_digest ~header:"hecate-skel-v1" p ~add_kind:(fun buf ~input:_ kind ->
      Buffer.add_string buf
        (match kind with
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
        | Downscale _ -> "down"))

module Builder = struct
  type prog = t

  type t = {
    name : string;
    slot_count : int;
    mutable ops : op list; (* reversed *)
    mutable count : int;
    mutable inputs : value list; (* reversed *)
    mutable outputs : value list; (* reversed *)
    mutable scope : string list; (* innermost label first *)
  }

  let create ?(name = "main") ~slot_count () =
    { name; slot_count; ops = []; count = 0; inputs = []; outputs = []; scope = [] }

  let enter_scope b label = b.scope <- label :: b.scope

  let leave_scope b =
    match b.scope with
    | [] -> invalid_arg "Prog.Builder.leave_scope: no scope to leave"
    | _ :: rest -> b.scope <- rest

  let in_scope b label f =
    enter_scope b label;
    Fun.protect ~finally:(fun () -> leave_scope b) f

  let current_prov b =
    match b.scope with
    | [] -> None
    | label :: rest -> Some { label; context = List.rev rest }

  let emit b kind args =
    let id = b.count in
    b.ops <- { id; kind; args; ty = Types.Free; prov = current_prov b } :: b.ops;
    b.count <- id + 1;
    id

  let input b name =
    let id = emit b (Input { name }) [||] in
    b.inputs <- id :: b.inputs;
    id

  let const_scalar b x = emit b (Const { value = Scalar x }) [||]
  let const_vector b v = emit b (Const { value = Vector (Array.copy v) }) [||]
  let add b x y = emit b Add [| x; y |]
  let sub b x y = emit b Sub [| x; y |]
  let mul b x y = emit b Mul [| x; y |]
  let negate b x = emit b Negate [| x |]
  let rotate b x amount = emit b (Rotate { amount }) [| x |]
  let output b v = b.outputs <- v :: b.outputs

  let finish b =
    let p =
      {
        name = b.name;
        slot_count = b.slot_count;
        body = Array.of_list (List.rev b.ops);
        inputs = List.rev b.inputs;
        outputs = List.rev b.outputs;
      }
    in
    match validate p with
    | Ok () -> p
    | Error msg -> invalid_arg ("Prog.Builder.finish: " ^ msg)
end

module Rewriter = struct
  type prog = t

  (* Value ids are dense on both sides, so the old->new mapping and the
     emitted ops (which carry their types) live in arrays indexed by id.
     [ops] grows by doubling; slots at or past [count] hold [placeholder].
     [finish] copies the emitted ops out and fills [ops] with [placeholder]:
     a working array past 256 words lives in the major heap, and each op
     stored into it stays remembered, and is promoted at the next minor
     collection, for as long as the array holds it. *)
  type t = {
    src : prog;
    mutable ops : op array;
    mutable count : int;
    mapping : value array; (* old id -> new id; -1 until set *)
    mutable new_inputs : value list; (* reversed *)
    mutable finished : bool;
  }

  let create src =
    let n = Array.length src.body in
    { src; ops = Array.make (max 16 (2 * n)) placeholder; count = 0; mapping = Array.make n (-1);
      new_inputs = []; finished = false }

  let live r fn = if r.finished then invalid_arg ("Prog.Rewriter." ^ fn ^ ": finished rewriter")

  let emit ?prov r kind args ty =
    live r "emit";
    let id = r.count in
    if id = Array.length r.ops then begin
      let grown = Array.make (2 * id) placeholder in
      Array.blit r.ops 0 grown 0 id;
      r.ops <- grown
    end;
    r.ops.(id) <- { id; kind; args; ty; prov };
    r.count <- id + 1;
    (match kind with Input _ -> r.new_inputs <- id :: r.new_inputs | _ -> ());
    id

  let mapped r v =
    live r "mapped";
    if v < 0 || v >= Array.length r.mapping || r.mapping.(v) < 0 then raise Not_found;
    r.mapping.(v)

  let set_mapped r ~old_value v =
    live r "set_mapped";
    if old_value < 0 || old_value >= Array.length r.mapping then
      invalid_arg "Prog.Rewriter.set_mapped: value id out of range";
    r.mapping.(old_value) <- v

  let ty r v =
    live r "ty";
    if v < 0 || v >= r.count then invalid_arg "Prog.Rewriter.ty: unknown value";
    r.ops.(v).ty

  let finish r =
    live r "finish";
    let p =
      {
        name = r.src.name;
        slot_count = r.src.slot_count;
        body = Array.sub r.ops 0 r.count;
        inputs = List.rev r.new_inputs;
        outputs = List.map (mapped r) r.src.outputs;
      }
    in
    r.finished <- true;
    Array.fill r.ops 0 r.count placeholder;
    match validate p with
    | Ok () -> p
    | Error msg -> invalid_arg ("Prog.Rewriter.finish: " ^ msg)
end
