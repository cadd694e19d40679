(* Differential check of key generation and encryption against the
   verbatim copies in [Keygen_ref]: an evaluator built the way `hecatec
   run` and the repository benchmark build one must hold exactly the keys
   the old code draws from the same seed, and encrypt to exactly the
   ciphertexts it would. *)

module Eval = Hecate_ckks.Eval
module Keys = Hecate_ckks.Keys
module Params = Hecate_ckks.Params
module Encoder = Hecate_ckks.Encoder
module Poly = Hecate_rns.Poly
module Chain = Hecate_rns.Chain
module Interp = Hecate_backend.Interp
module Driver = Hecate.Driver

(* The Galois elements [Eval.create] derives from slot rotations. *)
let galois_elements (params : Params.t) rotations =
  let encoder = Encoder.create ~n:params.Params.n in
  let half = params.Params.n / 2 in
  List.filter_map
    (fun r ->
      let r = ((r mod half) + half) mod half in
      if r = 0 then None else Some (Encoder.galois_element encoder ~rotation:r))
    rotations

let first_difference checks =
  List.find_map (fun (what, same) -> if same then None else Some what) checks

let switch_key_difference what (e : Keygen_ref.switch_key) (k : Keys.switch_key) =
  let polys name a b =
    (name, Array.length a = Array.length b && Array.for_all2 Poly.equal a b)
  in
  first_difference [ polys (what ^ " k0") e.Keygen_ref.k0 k.Keys.k0; polys (what ^ " k1") e.Keygen_ref.k1 k.Keys.k1 ]

(* [None] when [actual] holds exactly the key material of [expected]. *)
let key_difference (expected : Keygen_ref.t) (actual : Keys.t) =
  let galois_elts tbl = List.sort compare (Hashtbl.fold (fun elt _ acc -> elt :: acc) tbl []) in
  match
    first_difference
      [
        ("secret coefficients", expected.Keygen_ref.secret_coeffs = actual.Keys.secret_coeffs);
        ("secret", Poly.equal expected.Keygen_ref.secret_eval actual.Keys.secret_eval);
        ("public key b", Poly.equal expected.Keygen_ref.public0 actual.Keys.public0);
        ("public key a", Poly.equal expected.Keygen_ref.public1 actual.Keys.public1);
        ("Galois elements", galois_elts expected.Keygen_ref.galois = galois_elts actual.Keys.galois);
      ]
  with
  | Some _ as d -> d
  | None -> (
      match switch_key_difference "relinearization key" expected.Keygen_ref.relin actual.Keys.relin with
      | Some _ as d -> d
      | None ->
          List.find_map
            (fun elt ->
              switch_key_difference (Printf.sprintf "Galois key %d" elt)
                (Hashtbl.find expected.Keygen_ref.galois elt)
                (Keys.galois_key actual elt))
            (galois_elts expected.Keygen_ref.galois))

(* [eval] must come from [Eval.create ~seed _ ~rotations]. Checks its keys,
   then [encryptions] encryptions of seeded random vectors, in order, since
   each advances the context's encryption generator. *)
let check_eval ?(encryptions = 3) ~seed ~rotations eval =
  let params = Eval.params eval in
  let expected =
    Keygen_ref.generate ~seed params ~galois_elements:(galois_elements params rotations)
  in
  match key_difference expected (Eval.keys eval) with
  | Some what -> Error (Printf.sprintf "seed %d: %s differs" seed what)
  | None ->
      let rng = Prng_ref.create ~seed:(seed lxor 0x7E57) in
      let draws = Random.State.make [| seed |] in
      let rec go i =
        if i = encryptions then Ok ()
        else
          let v = Array.init (Params.slots params) (fun _ -> Random.State.float draws 2. -. 1.) in
          let pt = Eval.encode eval ~level:0 ~scale:(2. ** float_of_int params.Params.sf_bits) v in
          let ct = Eval.encrypt eval pt in
          let c0, c1 = Keygen_ref.encrypt (Eval.keys eval) rng pt.Eval.poly in
          if not (Poly.equal c0 ct.Eval.c0 && Poly.equal c1 ct.Eval.c1) then
            Error (Printf.sprintf "seed %d: ciphertext %d differs" seed i)
          else go (i + 1)
      in
      go 0

(* The parameters and rotations a program compiles to, compiled as the
   repository benchmark compiles it. *)
let compiled scheme (t : Modswitch_sweep.target) =
  let c =
    Driver.compile ~pool_size:1 ?passes:t.Modswitch_sweep.cleanup scheme ~sf_bits:28
      ~waterline_bits:t.Modswitch_sweep.waterline t.Modswitch_sweep.prog
  in
  (c.Driver.params, Interp.required_rotations c.Driver.prog)

(* Builds the evaluator through [Interp.context], as `hecatec run` does. *)
let check_program ?encryptions ~seed (params, rotations) =
  check_eval ?encryptions ~seed ~rotations (Interp.context ~seed ~params ~rotations ())
