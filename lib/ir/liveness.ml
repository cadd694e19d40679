type t = { last_use : int array; buffer_of : int array; buffer_count : int; peak_live : int }

let plan ~num_values ~reads ~writes =
  let steps = Array.length reads in
  let last_use = Array.make num_values (-1) in
  Array.iteri (fun i vs -> List.iter (fun v -> last_use.(v) <- max last_use.(v) i) vs) reads;
  (* expiring.(i): values released after step i — those last read there,
     and those written there but never read (a scratch buffer) *)
  let expiring = Array.make steps [] in
  Array.iteri (fun v u -> if u >= 0 then expiring.(u) <- v :: expiring.(u)) last_use;
  Array.iteri
    (fun i vs -> List.iter (fun v -> if last_use.(v) < 0 then expiring.(i) <- v :: expiring.(i)) vs)
    writes;
  let buffer_of = Array.make num_values (-1) in
  let free = Queue.create () in
  let next_buffer = ref 0 in
  let live = ref 0 and peak = ref 0 in
  for i = 0 to steps - 1 do
    (* allocate the result buffers before releasing the operands, so a step
       never writes over a value it reads *)
    List.iter
      (fun v ->
        let b =
          match Queue.take_opt free with
          | Some b -> b
          | None ->
              let b = !next_buffer in
              incr next_buffer;
              b
        in
        buffer_of.(v) <- b;
        incr live;
        peak := max !peak !live)
      writes.(i);
    List.iter
      (fun v ->
        if buffer_of.(v) >= 0 then begin
          Queue.add buffer_of.(v) free;
          decr live
        end)
      expiring.(i)
  done;
  { last_use; buffer_of; buffer_count = !next_buffer; peak_live = !peak }

let analyze (p : Prog.t) =
  let n = Prog.num_ops p in
  let reads = Array.make (n + 1) [] and writes = Array.make (n + 1) [] in
  Prog.iter
    (fun o ->
      reads.(o.Prog.id) <- Array.to_list o.Prog.args;
      writes.(o.Prog.id) <- [ o.Prog.id ])
    p;
  (* a final step reads the outputs: they stay live to the end *)
  reads.(n) <- p.Prog.outputs;
  plan ~num_values:n ~reads ~writes
