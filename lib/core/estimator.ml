type counts = { stride : int; runs : int array }

let create ~levels =
  let stride = levels + 1 in
  { stride; runs = Array.make (Costmodel.num_classes * stride) 0 }

let add c cls ~level k =
  if level < 0 then invalid_arg "Estimator: an instruction's operand is not scaled";
  if level >= c.stride then invalid_arg "Estimator: level outside the parameter set's chain";
  let i = (Costmodel.index cls * c.stride) + level in
  Array.unsafe_set c.runs i (Array.unsafe_get c.runs i + k)

(* {!Select.charges} decides what each instruction costs, for this
   estimate and for the executed report alike, so the Fig. 8
   estimator-vs-actual property compares like with like. *)
let charge c i ~level =
  match Select.charges i with
  | [] -> ()
  | [ (cls, k) ] -> add c cls ~level k
  | charges -> List.iter (fun (cls, k) -> add c cls ~level k) charges

let counts ~params p =
  let c = create ~levels:params.Paramselect.chain_levels in
  Select.iter p (fun i ~level -> charge c i ~level);
  c

let class_runs c cls =
  let base = Costmodel.index cls * c.stride in
  let k = ref 0 in
  for level = 0 to c.stride - 1 do
    k := !k + c.runs.(base + level)
  done;
  !k

let equal a b = a.stride = b.stride && a.runs = b.runs

let to_string c =
  let entries = ref [] in
  List.iter
    (fun cls ->
      for level = c.stride - 1 downto 0 do
        let k = c.runs.((Costmodel.index cls * c.stride) + level) in
        if k <> 0 then
          entries := Printf.sprintf "%s@%d=%d" (Costmodel.class_name cls) level k :: !entries
      done)
    (List.rev Costmodel.classes);
  String.concat " " !entries

(* a float field is stored unboxed: adding to it allocates nothing *)
type total = { mutable seconds : float }

let price ~model ~params ~n c =
  let total = { seconds = 0. } in
  List.iter
    (fun cls ->
      let base = Costmodel.index cls * c.stride in
      for level = 0 to c.stride - 1 do
        let k = Array.unsafe_get c.runs (base + level) in
        if k <> 0 then
          let num_primes = Paramselect.num_primes_at params ~level in
          total.seconds <-
            total.seconds +. (float_of_int k *. model.Costmodel.cost cls ~num_primes ~n)
      done)
    Costmodel.classes;
  total.seconds

let estimate ~model ~params ~n p = price ~model ~params ~n (counts ~params p)
