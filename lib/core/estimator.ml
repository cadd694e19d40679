module Prog = Hecate_ir.Prog

(* The model's cost of each (class, prime count) one estimate asks for,
   computed on first use: [costs.(index cls * stride + num_primes - 1)],
   NaN until filled. *)
type costs = {
  model : Costmodel.t;
  params : Paramselect.t;
  n : int;
  stride : int;
  costs : float array;
}

let costs ~model ~params ~n =
  let stride = params.Paramselect.chain_levels + 1 in
  { model; params; n; stride; costs = Array.make (Costmodel.num_classes * stride) Float.nan }

let fill t cls num_primes k =
  let c = t.model.Costmodel.cost cls ~num_primes ~n:t.n in
  t.costs.(k) <- c;
  c

let[@inline] cost t cls level =
  let num_primes = Paramselect.num_primes_at t.params ~level in
  let k = (Costmodel.index cls * t.stride) + num_primes - 1 in
  let c = Array.unsafe_get t.costs k in
  if Float.is_nan c then fill t cls num_primes k else c

(* An instruction's charges, priced at its level: the model's cost of each
   class times its count, summed in the order [Select.charges] lists them. *)
let[@inline] price t level = function
  | [ (cls, count) ] -> float_of_int count *. cost t cls level
  | charges ->
      List.fold_left
        (fun acc (cls, count) -> acc +. (float_of_int count *. cost t cls level))
        0. charges

(* a float field is stored unboxed: adding to it allocates nothing *)
type total = { mutable seconds : float }

(* The sum of the priced charges of the instructions that would run, in
   stream order: {!Select.charges} decides what each instruction costs, for
   this estimate and for the executed report alike, so the Fig. 8
   estimator-vs-actual property compares like with like. *)
let estimate ~model ~params ~n (p : Prog.t) =
  let t = costs ~model ~params ~n in
  let total = { seconds = 0. } in
  Select.iter p (fun i ~level ->
      match Select.charges i with
      | [] -> ()
      | charges ->
          if level < 0 then invalid_arg "Estimator: an instruction's operand is not scaled";
          total.seconds <- total.seconds +. price t level charges);
  total.seconds
