type role = Single | Fused_mul | Fused_rescale | Fan_head of int list | Fan_member

let analyze (p : Prog.t) =
  let roles = Array.make (Prog.num_ops p) Single in
  let uses = Prog.use_counts p in
  (* distinct rotation amounts per source, most recent first *)
  let amounts : (int, int list) Hashtbl.t = Hashtbl.create 8 in
  Prog.iter
    (fun (o : Prog.op) ->
      match o.Prog.kind with
      | Prog.Rotate { amount } ->
          let src = o.Prog.args.(0) in
          let prev = Option.value ~default:[] (Hashtbl.find_opt amounts src) in
          if not (List.mem amount prev) then Hashtbl.replace amounts src (amount :: prev)
      | Prog.Rescale -> (
          let m = o.Prog.args.(0) in
          let mo = Prog.op p m in
          let cipher i = Types.is_cipher (Prog.op p mo.Prog.args.(i)).Prog.ty in
          match mo.Prog.kind with
          | Prog.Mul when uses.(m) = 1 && cipher 0 && cipher 1 ->
              roles.(m) <- Fused_mul;
              roles.(o.Prog.id) <- Fused_rescale
          | _ -> ())
      | _ -> ())
    p;
  (* the first Rotate of a source with >= 2 distinct amounts heads its fan;
     the entry is then emptied so the later ones become members *)
  Prog.iter
    (fun (o : Prog.op) ->
      match o.Prog.kind with
      | Prog.Rotate _ -> (
          let src = o.Prog.args.(0) in
          match Hashtbl.find_opt amounts src with
          | Some (_ :: _ :: _ as distinct) ->
              roles.(o.Prog.id) <- Fan_head (List.rev distinct);
              Hashtbl.replace amounts src []
          | Some [] -> roles.(o.Prog.id) <- Fan_member
          | Some [ _ ] | None -> ())
      | _ -> ())
    p;
  roles
