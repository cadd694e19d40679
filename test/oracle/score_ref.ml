(* The built scoring path the abstract scorer (Hecate.Scorer) replaced in
   Driver.compile, kept as its reference: every candidate generated,
   finalized through the pass manager, type-checked, given parameters and
   counted, then both programs discarded. *)

module Prog = Hecate_ir.Prog
module Driver = Hecate.Driver
module Codegen = Hecate.Codegen
module Estimator = Hecate.Estimator
module Paramselect = Hecate.Paramselect

(* [discard p] fills [p]'s body with [Prog.placeholder], leaving [p]
   invalid but its op records untouched (another program sharing them
   stays valid). A body past 256 words lives in the major heap, and every
   young op stored into it is promoted at the next minor collection, even
   once [p] is dead; after [discard] the body points at no young op. Only
   [p]'s sole owner may call it, and only when dropping [p]. *)
let discard (p : Prog.t) = Array.fill p.Prog.body 0 (Array.length p.Prog.body) Prog.placeholder

let generate ~scheme ~cfg ~hook prog =
  match scheme with
  | Driver.Eva | Driver.Smse -> Codegen.waterline cfg ~hook prog
  | Driver.Pars | Driver.Hecate -> Codegen.pars cfg ~hook prog

(* The parameters and count matrix of the built candidate; raises where
   building, checking or selecting it fails. *)
let counts ~scheme ~cfg ~early_modswitch ~hook prog =
  let managed = generate ~scheme ~cfg ~hook prog in
  let p, params = Driver.finalize ~early_modswitch ~cfg managed in
  let counts = Estimator.counts ~params p in
  discard p;
  if p != managed then discard managed;
  (params, counts)
