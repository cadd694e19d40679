(* The early-modswitch pass as it was before it became a schedule: one
   backward sweep that moves every absorbable modswitch one definition
   earlier, iterated until a sweep moves nothing. Kept verbatim as the
   differential oracle for [Passes.early_modswitch], which must produce
   the same program, with the same provenance, and hand back its input
   physically exactly when this does. *)

open Hecate_ir

let early_modswitch_once (p : Prog.t) =
  let n = Prog.num_ops p in
  let uses = Prog.use_counts p in
  (* absorbed.(v): number of modswitch layers to fold into the op defining v *)
  let absorbed = Array.make n 0 in
  let elided = Array.make n false in
  let absorbs kind =
    match kind with
    | Prog.Add | Prog.Sub | Prog.Mul | Prog.Negate | Prog.Rotate _ | Prog.Rescale | Prog.Upscale _
    | Prog.Downscale _ | Prog.Encode _ ->
        true
    | Prog.Input _ | Prog.Const _ | Prog.Modswitch -> false
  in
  for i = n - 1 downto 0 do
    let o = Prog.op p i in
    match o.Prog.kind with
    | Prog.Modswitch ->
        let x = o.Prog.args.(0) in
        let def = Prog.op p x in
        if uses.(x) = 1 && absorbs def.Prog.kind then begin
          absorbed.(x) <- absorbed.(x) + 1 + absorbed.(i);
          elided.(i) <- true
        end
    | _ -> ()
  done;
  if Array.for_all not elided then p
  else begin
    let remap = Array.make n (-1) in
    let ops = ref [] in
    let count = ref 0 in
    let emit ?prov kind args =
      let id = !count in
      ops := { Prog.id; kind; args; ty = Types.Free; prov } :: !ops;
      incr count;
      id
    in
    (* One [modswitch] per value, shared by every wrapper chain and every
       modswitch the program already had. Wrapping [mul %x, %x] yields ONE
       [modswitch %x] feeding both operands, and wrapping an operand that
       is already modswitched elsewhere reuses that op. A duplicate would
       give the base value a second use: the copies would stop being
       absorbable, and migration would stall until a cse merged them, at
       the cost of one more finalize fixpoint iteration per stall. Shared,
       this pass's own sweeps carry every absorption through. *)
    let modswitched = Hashtbl.create 16 in
    let modswitch ?prov a =
      match Hashtbl.find_opt modswitched a with
      | Some id -> id
      | None ->
          let id = emit ?prov Prog.Modswitch [| a |] in
          Hashtbl.add modswitched a id;
          id
    in
    let rec wrap v k = if k = 0 then v else modswitch (wrap v (k - 1)) in
    for i = 0 to n - 1 do
      let o = Prog.op p i in
      if elided.(i) then remap.(i) <- remap.(o.Prog.args.(0))
      else
        remap.(i) <-
          (match o.Prog.kind with
          | Prog.Modswitch -> modswitch ?prov:o.Prog.prov remap.(o.Prog.args.(0))
          | Prog.Encode { scale; level } ->
              (* the absorbed layers move into the level attribute *)
              emit ?prov:o.Prog.prov
                (Prog.Encode { scale; level = level + absorbed.(i) })
                (Array.map (fun a -> remap.(a)) o.Prog.args)
          | kind ->
              emit ?prov:o.Prog.prov kind
                (Array.map (fun a -> wrap remap.(a) absorbed.(i)) o.Prog.args))
    done;
    let out =
      {
        p with
        Prog.body = Array.of_list (List.rev !ops);
        inputs = List.map (fun v -> remap.(v)) p.Prog.inputs;
        outputs = List.map (fun v -> remap.(v)) p.Prog.outputs;
      }
    in
    match Prog.validate out with
    | Ok () -> out
    | Error msg -> invalid_arg ("Passes.early_modswitch: " ^ msg)
  end

(* One [early_modswitch_once] moves each modswitch one def earlier: the
   wrappers it emits around an absorbing op's operands only become
   absorbable themselves on the next sweep. Iterating here makes the pass
   transitive (and idempotent) as documented, instead of leaning on the
   enclosing fixpoint pipeline for the propagation — on deep programs
   (LeNet's conv chains) the per-iteration step used to exceed the pass
   manager's 64-iteration fixpoint budget and crash the compile. Each sweep
   strictly moves some modswitch earlier and never moves one later, so the
   number of sweeps is bounded by the program's dataflow depth; [num_ops]
   is a safe cap that can only be hit by a genuine non-termination bug. *)
let early_modswitch (p : Prog.t) =
  let rec fix p budget =
    if budget = 0 then p
    else
      let p' = early_modswitch_once p in
      if p' == p then p else fix p' (budget - 1)
  in
  fix p (Prog.num_ops p + 1)

(* ------------------------------------------------------------------ *)
(* Differential check                                                  *)
(* ------------------------------------------------------------------ *)

(* [None] when [actual], a pass's output on [input], is [expected], what
   its oracle makes of [input]: the same program, the same provenance, and
   the input itself in the same cases; otherwise what differs. *)
let compare ~input ~expected ~actual =
  if (expected == input) <> (actual == input) then
    Some
      (if expected == input then "the oracle returns its input, the pass a new program"
       else "the pass returns its input, the oracle a new program")
  else if not (Prog.equal expected actual) then
    let lines p = String.split_on_char '\n' (Printer.to_string p) in
    let rec first = function
      | a :: xs, b :: ys -> if a = b then first (xs, ys) else Printf.sprintf "oracle %S, pass %S" a b
      | a :: _, [] -> Printf.sprintf "the oracle has more: %S" a
      | [], b :: _ -> Printf.sprintf "the pass has more: %S" b
      | [], [] -> "programs differ"
    in
    Some (first (lines expected, lines actual))
  else
    let rec first i =
      if i >= Prog.num_ops expected then None
      else if (Prog.op expected i).Prog.prov <> (Prog.op actual i).Prog.prov then Some i
      else first (i + 1)
    in
    Option.map (Printf.sprintf "provenance differs at op %d") (first 0)

let difference ~input ~actual = compare ~input ~expected:(early_modswitch input) ~actual

let check ~input ~actual =
  match difference ~input ~actual with
  | None -> Ok ()
  | Some msg -> Error (msg ^ "\n; input:\n" ^ Printer.to_string input)

(* Counts and first failure of the calls one {!recorder} has seen. *)
type tally = { mutable calls : int; mutable changed : int; mutable failure : string option }

(* Instrumentation that checks every early-modswitch call of the pipelines
   it is passed to. In the reference finalization
   [fixpoint(cse,early-modswitch,cse,constant-fold,dce)] the pass's input
   is what the [cse] before it returned, so the dump hook keeps the last
   [cse] result and compares the next early-modswitch result against the
   oracle run on it. Compiles finalize with the fused [finalize] pass,
   which calls neither, so a compile checked this way must run the
   reference ({!check_compile} does). The hook state is not shared
   between domains: use it with [~pool_size:1]. *)
let recorder () =
  let tally = { calls = 0; changed = 0; failure = None } in
  let last = ref None in
  let dump ~pass p =
    match pass with
    | "cse" -> last := Some p
    | _ -> (
        match !last with
        | None -> ()
        | Some input ->
            tally.calls <- tally.calls + 1;
            if p != input then tally.changed <- tally.changed + 1;
            if tally.failure = None then
              match check ~input ~actual:p with
              | Ok () -> ()
              | Error msg -> tally.failure <- Some msg)
  in
  ( Pass_manager.instrumentation
      ~dump_after:(Pass_manager.Dump_passes [ "cse"; "early-modswitch" ])
      ~dump (),
    tally )

type target = { label : string; prog : Prog.t; waterline : float; cleanup : Pass_manager.pipeline option }

let app ?(waterline = 20.) name =
  let a =
    List.find (fun (a : Hecate_apps.Apps.t) -> a.Hecate_apps.Apps.name = name)
      (Hecate_apps.Apps.reduced_suite ())
  in
  { label = name; prog = a.Hecate_apps.Apps.prog; waterline; cleanup = None }

(* The batch matvec lowered to scalar IR, with the cleanup [Lower]
   recommends, as `hecatec batch` and the repository benchmark run it. *)
let lowered_matvec () =
  let m = Hecate_apps.Batch_apps.matvec () in
  match Hecate_batch.Lower.lower ~spec:Hecate_batch.Lower.Auto m.Hecate_apps.Batch_apps.surface with
  | Error d -> Diagnostic.error d
  | Ok l ->
      {
        label = "lowered matvec";
        prog = l.Hecate_batch.Lower.prog;
        waterline = 24.;
        cleanup = Some (Pass_manager.parse_exn Hecate_batch.Lower.pipeline);
      }

(* The waterlines the repository benchmark compiles each program at. *)
let standard name =
  match name with
  | "matvec" -> lowered_matvec ()
  | "SF" -> app ~waterline:24. name
  | "HCD" -> app ~waterline:22. name
  | "MLP" -> app ~waterline:15. name
  | "LeNet-r" -> app ~waterline:18. name
  | "PR E2" -> app ~waterline:25. name
  | _ -> app name

(* Every (scheme, strategy) a compile can run: the exploring schemes once
   per registered strategy, the others once. *)
let configurations () =
  let strategies = Hecate.Explore.strategy_names () in
  List.concat_map
    (fun scheme ->
      match scheme with
      | Hecate.Driver.Eva | Hecate.Driver.Pars -> [ (scheme, Hecate.Explore.default_strategy) ]
      | Hecate.Driver.Smse | Hecate.Driver.Hecate -> List.map (fun s -> (scheme, s)) strategies)
    Hecate.Driver.all_schemes

(* Compile [t] under [scheme]/[strategy], finalizing every candidate
   through the reference pipeline, and check every early-modswitch call;
   [Error] names the first difference. *)
let check_compile t (scheme, strategy) =
  let instr, tally = recorder () in
  ignore
    (Hecate.Driver.compile ~pool_size:1 ~instr ?passes:t.cleanup
       ~finalize_passes:(Pass_manager.finalize_reference ~early_modswitch:true)
       ~strategy scheme ~sf_bits:28 ~waterline_bits:t.waterline t.prog);
  match tally.failure with
  | None -> Ok tally
  | Some msg ->
      Error
        (Printf.sprintf "%s, %s, %s: %s" t.label (Hecate.Driver.scheme_name scheme) strategy msg)
