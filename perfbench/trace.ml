(* Request-scoped spans around public entry points.

   Every request gets a [ctx]. When the request is traced, [span] records
   name, layer, start, end and parent; otherwise it only calls the thunk.
   Counters the system already returns (pass timings, per-class execution
   seconds, server wall time) become synthetic child spans via [child], so a
   layer's self time can be charged below the granularity of one call.
   Finished requests are kept in memory and written once, at exit, in Chrome
   trace-event JSON. *)

type span = {
  id : int;
  parent : int; (* -1 for the request root *)
  name : string;
  layer : string;
  t0 : float;
  t1 : float;
}

type ctx = {
  traced : bool;
  req : int;
  tid : int;
  label : string;
  mutable spans : span list;
  mutable stack : int list;
  mutable next : int;
  mutable last : span option; (* most recently finished real span *)
  mutable cursor : float; (* where the next synthetic child of [last] starts *)
}

let now = Unix.gettimeofday

let request ~traced ~req ~tid ~label =
  {
    traced;
    req;
    tid;
    label;
    spans = [];
    stack = [ 0 ];
    next = 1;
    last = None;
    cursor = 0.;
  }

let span c ~layer name f =
  if not c.traced then f ()
  else begin
    let id = c.next in
    c.next <- id + 1;
    let parent = List.hd c.stack in
    c.stack <- id :: c.stack;
    let t0 = now () in
    let finish () =
      let s = { id; parent; name; layer; t0; t1 = now () } in
      c.stack <- List.tl c.stack;
      c.spans <- s :: c.spans;
      c.last <- Some s;
      c.cursor <- t0
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

(* A synthetic child of the span that finished last, [dur] seconds long,
   laid out after the previous synthetic sibling. *)
let child c ~layer name ~dur =
  match c.last with
  | Some p when c.traced && dur > 0. ->
      let dur = Float.min dur (p.t1 -. c.cursor) in
      let id = c.next in
      c.next <- id + 1;
      c.spans <- { id; parent = p.id; name; layer; t0 = c.cursor; t1 = c.cursor +. dur } :: c.spans;
      c.cursor <- c.cursor +. dur
  | _ -> ()

type finished = { ctx : ctx; root : span }

let lock = Mutex.create ()
let finished : finished list ref = ref []

(* Close the request: its root span covers [t0, t1]. *)
let finish c ~t0 ~t1 =
  if c.traced then begin
    let root = { id = 0; parent = -1; name = "request"; layer = "request"; t0; t1 } in
    Mutex.lock lock;
    finished := { ctx = c; root } :: !finished;
    Mutex.unlock lock
  end

let requests () = List.rev !finished

(* Self time per layer: each span's duration minus its children's. The
   root's self time is the part of the request no span explains. *)
let add_to tbl key v = Hashtbl.replace tbl key (v +. Option.value ~default:0. (Hashtbl.find_opt tbl key))

let self_times (f : finished) =
  let all = f.root :: f.ctx.spans in
  let children = Hashtbl.create 16 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s) all;
  let by_layer = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      add_to by_layer s.layer (s.t1 -. s.t0 -. List.fold_left (fun a k -> a +. (k.t1 -. k.t0)) 0. kids))
    all;
  by_layer

let write_chrome path =
  let module J = Hecate_support.Json in
  let us t = J.Num (Float.round (t *. 1e6)) in
  let events =
    List.concat_map
      (fun f ->
        List.map
          (fun s ->
            J.Obj
              [
                ("name", J.Str s.name);
                ("cat", J.Str s.layer);
                ("ph", J.Str "X");
                ("ts", us s.t0);
                ("dur", us (s.t1 -. s.t0));
                ("pid", J.int 1);
                ("tid", J.int f.ctx.tid);
                ( "args",
                  J.Obj
                    [
                      ("request", J.int f.ctx.req);
                      ("program", J.Str f.ctx.label);
                      ("id", J.int s.id);
                      ("parent", J.int s.parent);
                    ] );
              ])
          (f.root :: List.rev f.ctx.spans))
      (requests ())
  in
  Hecate_support.Fileio.write_atomic ~path
    (J.render (J.Obj [ ("traceEvents", J.Arr events) ]) ^ "\n")
