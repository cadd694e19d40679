type role = Single | Fused_mul | Fused_rescale | Fan_head of int list | Fan_member

let rec mem_int (x : int) = function [] -> false | y :: tl -> x = y || mem_int x tl

let analyze (p : Prog.t) =
  let body = p.Prog.body in
  let n = Array.length body in
  let roles = Array.make n Single in
  let uses = Prog.use_counts p in
  (* distinct rotation amounts per source op, most recent first *)
  let amounts = Array.make n [] in
  for i = 0 to n - 1 do
    let o = body.(i) in
    match o.Prog.kind with
    | Prog.Rotate { amount } ->
        let src = o.Prog.args.(0) in
        let prev = amounts.(src) in
        if not (mem_int amount prev) then amounts.(src) <- amount :: prev
    | Prog.Rescale -> (
        let m = o.Prog.args.(0) in
        let mo = body.(m) in
        match mo.Prog.kind with
        | Prog.Mul
          when uses.(m) = 1
               && Types.is_cipher body.(mo.Prog.args.(0)).Prog.ty
               && Types.is_cipher body.(mo.Prog.args.(1)).Prog.ty ->
            roles.(m) <- Fused_mul;
            roles.(o.Prog.id) <- Fused_rescale
        | _ -> ())
    | _ -> ()
  done;
  (* the first Rotate of a source with >= 2 distinct amounts heads its fan,
     and empties its entry, so the later ones are its members *)
  for i = 0 to n - 1 do
    let o = body.(i) in
    match o.Prog.kind with
    | Prog.Rotate _ -> (
        let src = o.Prog.args.(0) in
        match amounts.(src) with
        | _ :: _ :: _ as distinct ->
            roles.(i) <- Fan_head (List.rev distinct);
            amounts.(src) <- []
        | [] -> roles.(i) <- Fan_member
        | [ _ ] -> ())
    | _ -> ()
  done;
  roles
