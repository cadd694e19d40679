(* The repository benchmark: one workload per process.

     main.exe --workload oneshot|infer|serve --seed N --seconds S --trace 0|1

   - oneshot: one `hecatec run`-shaped request at a time (parse, HECATE
     compile, keygen, encrypt/execute/decrypt, check) over SF, HCD, MLP
     and the lowered batch matvec;
   - infer: repeated encrypted inference with session keys (LeNet-r and
     PR E2, compiled with PARS and keyed once at set-up);
   - serve: two clients sending fixed streams of hits and a third sending
     new keys to a hecated server (this binary re-executed with --server)
     with an on-disk plan cache: hits, misses, disk reads and single-flight
     joins.

   The system is driven only through its public entry points and timed from
   outside. With --trace 0 the last stdout line carries the end-to-end
   metrics, CPU-bound timings at a reference host speed (see Host speed
   below); with --trace 1 it carries the per-layer metrics, and the spans
   are written to .bench_out/trace-WORKLOAD-SEED.json. See README.md. *)

open Hecate
module Apps = Hecate_apps.Apps
module Batch_apps = Hecate_apps.Batch_apps
module Interp = Hecate_backend.Interp
module Reference = Hecate_backend.Reference
module Lower = Hecate_batch.Lower
module Surface = Hecate_batch.Surface
module Prog = Hecate_ir.Prog
module Printer = Hecate_ir.Printer
module Parser = Hecate_ir.Parser
module Pass_manager = Hecate_ir.Pass_manager
module Stats = Hecate_support.Stats
module Prng = Hecate_support.Prng
module Json = Hecate_support.Json
module Server = Hecate_serve.Server
module Client = Hecate_serve.Client
module Protocol = Hecate_serve.Protocol

let error_bound = 2. ** -8.
let sf_bits = 28
let pool_size = 1
let server_workers = 2

(* serve: hits per second of both hit clients together, which sets the
   length of their fixed streams (about --seconds on this 2-vCPU Xeon). *)
let serve_rate = 160.
let hit_clients = 2
let max_epochs = 100
let strategy = Explore.default_strategy
let setup_reps = 3

(* oneshot's set-up takes milliseconds, so more repetitions are cheap. *)
let oneshot_setup_reps = 7
let out_dir = ".bench_out"
let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* The host is shared: its cores run the same code up to 40% slower for
   seconds or minutes at a time, with little of it showing as stolen time.
   A probe that shares no code with the system under test (a map built
   from scratch, as the compiler builds its tables, and multiply-mod
   arithmetic over an array, as the kernels do) runs between requests.
   Timings of phases that run one request at a time are reported at the
   reference speed: measured seconds times probe_reference_s over the
   median probe of the same phase. That is every timing of oneshot and
   infer, and serve's set-up, idle-server hits and executions. serve's
   window, where three connections share one CPU, is not scaled: it
   followed the probe less than in proportion. The raw figures are printed
   beside the scaled ones. *)
let probe_reference_s = 0.010

module Int_map = Map.Make (Int)

(* Probe times by phase: "setup", "window", "idle" (serve) or "exec" (serve). *)
let probes : (string * float) list ref = ref []

let probe phase =
  let t0 = now () in
  let m = ref Int_map.empty in
  for i = 0 to 20_000 do
    m := Int_map.add ((i * 7919) land 0xffff) i !m
  done;
  let acc = ref (Int_map.fold (fun k v a -> a + (k lxor v)) !m 0) in
  let a = Array.init 4096 Fun.id in
  for _ = 1 to 50 do
    for i = 0 to 4095 do
      let x = ((a.(i) * 0x9E3779B1) + !acc) land 0x3fffffff in
      a.(i) <- x mod 1_000_003;
      acc := !acc + x
    done
  done;
  ignore (Sys.opaque_identity !acc);
  probes := (phase, now () -. t0) :: !probes

let probe_times phase k =
  for _ = 1 to k do
    probe phase
  done

(* Reference seconds per measured second in [phase]. *)
let host_factor phase =
  match List.filter_map (fun (p, t) -> if p = phase then Some t else None) !probes with
  | [] -> 1.
  | ts -> probe_reference_s /. Stats.median (Array.of_list ts)

(* ------------------------------------------------------------------ *)
(* Arguments and environment                                           *)
(* ------------------------------------------------------------------ *)

type args = { workload : string; seed : int; seconds : float; trace : bool }

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let parse_args () =
  let usage () =
    die "usage: main.exe --workload oneshot|infer|serve --seed N --seconds S --trace 0|1"
  in
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: w :: r ->
        workload := Some w;
        go r
    | "--seed" :: s :: r ->
        seed := int_of_string_opt s;
        go r
    | "--seconds" :: s :: r ->
        seconds := float_of_string_opt s;
        go r
    | "--trace" :: t :: r ->
        trace := (match t with "0" -> Some false | "1" -> Some true | _ -> None);
        go r
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some (("oneshot" | "infer" | "serve") as workload), Some seed, Some seconds, Some trace
    when seconds > 0. ->
      { workload; seed; seconds; trace }
  | _ -> usage ()

(* The program under test must not be switched silently: the reference
   kernels are about 3x slower, and more kernel domains than cores only
   measure oversubscription. *)
let pin_environment () =
  (match Sys.getenv_opt "HECATE_NAIVE_KERNELS" with
  | Some v when v <> "" -> die "HECATE_NAIVE_KERNELS=%s selects the reference kernels; unset it" v
  | _ -> ());
  let nproc = Domain.recommended_domain_count () in
  (match Sys.getenv_opt "HECATE_KERNEL_JOBS" with
  | Some v when v <> "" -> (
      match int_of_string_opt v with
      | Some j when j >= 1 && j <= nproc -> ()
      | _ -> die "HECATE_KERNEL_JOBS=%s must be an integer in [1, %d] (nproc)" v nproc)
  | _ -> ());
  nproc

let settings ~nproc ~cache_dir =
  [
    ("kernels", "fast");
    ("kernel_jobs", string_of_int (Hecate_support.Pool.Kernel.jobs ()));
    ("nproc", string_of_int nproc);
    ("explore_pool", string_of_int pool_size);
    ("strategy", strategy);
    ("max_epochs", string_of_int max_epochs);
    ("sf_bits", string_of_int sf_bits);
    ("error_bound", "2^-8");
    ("server_workers", string_of_int server_workers);
    ("serve_rate", Printf.sprintf "%g" serve_rate);
    ("probe_reference_s", Printf.sprintf "%g" probe_reference_s);
    ("cache_dir", cache_dir);
    ("setup_reps", string_of_int setup_reps);
    ("oneshot_setup_reps", string_of_int oneshot_setup_reps);
  ]

(* ------------------------------------------------------------------ *)
(* Observations                                                        *)
(* ------------------------------------------------------------------ *)

(* Every value recorded under a per-layer metric name; summarised at exit. *)
let obs : (string, float list) Hashtbl.t = Hashtbl.create 64
let obs_lock = Mutex.create ()

(* Off while the benchmark computes its own baselines (the EVA plans). *)
let observing = ref true

let quietly f =
  observing := false;
  Fun.protect ~finally:(fun () -> observing := true) f

let record name v =
  if !observing then begin
    Mutex.lock obs_lock;
    Hashtbl.replace obs name (v :: Option.value ~default:[] (Hashtbl.find_opt obs name));
    Mutex.unlock obs_lock
  end

let values name = Array.of_list (Option.value ~default:[] (Hashtbl.find_opt obs name))
let mean_or_zero name = match values name with [||] -> 0. | a -> Stats.mean a
let max_or_zero name = Array.fold_left Float.max 0. (values name)

let rmse_max = ref 0.
let failures = ref 0
let attempts = ref 0

let note_failure what =
  Mutex.lock obs_lock;
  incr failures;
  let n = !failures in
  Mutex.unlock obs_lock;
  if n <= 5 then Printf.eprintf "perfbench: failure: %s\n%!" what

let note_rmse r =
  Mutex.lock obs_lock;
  if not (r <= !rmse_max) then rmse_max := r;
  Mutex.unlock obs_lock

type sample = { label : string; wall : float; traced : bool; finished : float }

let samples : sample list ref = ref []

let note_sample s =
  Mutex.lock obs_lock;
  samples := s :: !samples;
  Mutex.unlock obs_lock

(* Requests of the measured window, without serve's idle-server hits and
   post-run execution checks. *)
let loop_samples () =
  List.filter
    (fun (s : sample) ->
      not (String.starts_with ~prefix:"exec:" s.label || String.starts_with ~prefix:"idle:" s.label))
    !samples

(* ------------------------------------------------------------------ *)
(* Programs and inputs                                                 *)
(* ------------------------------------------------------------------ *)

type source = Vec of Apps.t | Batch of Batch_apps.t
type program = { label : string; wl : float; source : source }

let suite = lazy (Apps.reduced_suite ())
let reduced name = List.find (fun (a : Apps.t) -> a.Apps.name = name) (Lazy.force suite)

(* Waterlines are the per-program choices of the Fig. 7 search (the
   fastest configuration meeting the 2^-8 error bound), raised where the
   seeded inputs need headroom below the bound. *)
let oneshot_programs () =
  [
    { label = "SF"; wl = 24.; source = Vec (reduced "SF") };
    { label = "HCD"; wl = 22.; source = Vec (reduced "HCD") };
    { label = "MLP"; wl = 15.; source = Vec (reduced "MLP") };
    { label = "batch-matvec"; wl = 24.; source = Batch (Batch_apps.matvec ()) };
  ]

let infer_programs () =
  [
    { label = "LeNet-r"; wl = 18.; source = Vec (reduced "LeNet-r") };
    { label = "PR-E2"; wl = 25.; source = Vec (reduced "PR E2") };
  ]

let base_inputs p = match p.source with Vec a -> a.Apps.inputs | Batch b -> b.Batch_apps.inputs

(* Seeded inputs near each program's own synthetic data: every element
   moves by up to 10% of the array's range, so outputs keep the magnitude
   the waterlines were chosen for while every seed gives other values. *)
let draw_inputs g p =
  List.map
    (fun (name, a) ->
      let lo = Array.fold_left Float.min infinity a and hi = Array.fold_left Float.max neg_infinity a in
      let spread = 0.1 *. Float.max (hi -. lo) 1e-3 in
      (name, Array.map (fun x -> x +. (spread *. ((2. *. Prng.float01 g) -. 1.))) a))
    (base_inputs p)

(* The request text: a .hec program, or a .bhec scalar program to lower. *)
let text p =
  match p.source with
  | Vec a -> Printer.to_string a.Apps.prog
  | Batch b -> Surface.to_string b.Batch_apps.surface

(* ------------------------------------------------------------------ *)
(* Timed public entry points                                           *)
(* ------------------------------------------------------------------ *)

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Parse (and for batch programs, lower) the request text. *)
let front c p src =
  match p.source with
  | Vec _ ->
      let prog, s = timed (fun () -> Trace.span c ~layer:"ir" "ir.parse" (fun () -> Parser.parse src)) in
      record "ir.parse_s" s;
      (prog, None)
  | Batch _ ->
      let (surface, lowered), s =
        timed (fun () ->
            Trace.span c ~layer:"batch" "batch.lower" (fun () ->
                let surface = Surface.parse src in
                match Lower.lower ~spec:Lower.Auto surface with
                | Ok l -> (surface, l)
                | Error d -> Hecate_ir.Diagnostic.error d))
      in
      record "batch.lower_s" s;
      record "batch.rotations" (float_of_int lowered.Lower.rotations);
      (lowered.Lower.prog, Some (surface, lowered))

(* [lowered] programs get the cleanup pipeline [Lower] recommends, as
   `hecatec batch` does. *)
let compile c scheme p ~lowered prog =
  let passes = if lowered then Some (Pass_manager.parse_exn Lower.pipeline) else None in
  let compiled, wall =
    timed (fun () ->
        Trace.span c ~layer:"core" "core.compile" (fun () ->
            Driver.compile ~pool_size ~max_epochs ~strategy ?passes scheme ~sf_bits
              ~waterline_bits:p.wl prog))
  in
  let passes_s =
    List.fold_left (fun a (t : Pass_manager.timing) -> a +. t.Pass_manager.seconds) 0.
      compiled.Driver.pass_timings
  in
  Trace.child c ~layer:"ir" "ir.passes" ~dur:passes_s;
  record "core.compile_s" wall;
  record "passes.s" passes_s;
  (match compiled.Driver.exploration with
  | None -> ()
  | Some e ->
      record "explore.s" e.Driver.elapsed_seconds;
      record "explore.plans" (float_of_int e.Driver.plans_explored);
      record "explore.epochs" (float_of_int e.Driver.epochs);
      let looked = e.Driver.plans_explored + e.Driver.cache_hits in
      if looked > 0 then
        record "explore.memo_hit_ratio" (float_of_int e.Driver.cache_hits /. float_of_int looked));
  compiled

let keygen c ~seed (compiled : Driver.compiled) =
  let rotations = Interp.required_rotations compiled.Driver.prog in
  let eval, s =
    timed (fun () ->
        Trace.span c ~layer:"ckks" "ckks.keygen" (fun () ->
            Interp.context ~seed ~params:compiled.Driver.params ~rotations ()))
  in
  record "ckks.keygen_s" s;
  record "ckks.rotation_keys" (float_of_int (List.length rotations));
  eval

(* Draw inputs, encrypt/execute/decrypt, check against the plaintext
   reference (and, for batch programs, the scalar reference). Records the
   homomorphic execution seconds under run.LABEL; returns whether every
   check held. *)
let run_checked c g p ~source_prog ~batch ~(compiled : Driver.compiled) ~eval =
  let logical = Trace.span c ~layer:"bench" "bench.inputs" (fun () -> draw_inputs g p) in
  let inputs =
    match batch with
    | None -> logical
    | Some (_, l) -> List.map (fun (n, d) -> (n, Lower.pack_input l n d)) logical
  in
  let rep, wall =
    timed (fun () ->
        Trace.span c ~layer:"backend" "backend.execute" (fun () ->
            Interp.execute eval ~waterline_bits:p.wl compiled.Driver.prog ~inputs))
  in
  let elapsed = rep.Interp.elapsed_seconds in
  let ops =
    List.fold_left (fun a (_, (s : Interp.class_stat)) -> a +. s.Interp.seconds) 0. rep.Interp.per_class
  in
  Trace.child c ~layer:"ckks" "ckks.ops" ~dur:ops;
  Trace.child c ~layer:"ckks" "ckks.encdec" ~dur:(wall -. elapsed);
  record "backend.execute_s" elapsed;
  record ("run." ^ p.label) elapsed;
  record "ckks.encdec_s" (wall -. elapsed);
  record "backend.peak_live" (float_of_int rep.Interp.peak_live);
  List.iter
    (fun (cls, (s : Interp.class_stat)) ->
      let name = Costmodel.class_name cls in
      record ("op." ^ name ^ "_s") s.Interp.seconds;
      record ("op." ^ name ^ "_n") (float_of_int s.Interp.count);
      record (Printf.sprintf "split.%s.%s" p.label name) s.Interp.seconds)
    rep.Interp.per_class;
  let est = Driver.estimate_at compiled ~n:(Hecate_ckks.Eval.params eval).Hecate_ckks.Params.n in
  record ("drift." ^ p.label) (Float.abs (est -. elapsed) /. elapsed);
  let want, s =
    timed (fun () ->
        Trace.span c ~layer:"backend" "backend.reference" (fun () ->
            Reference.execute source_prog ~inputs))
  in
  record "backend.reference_s" s;
  let rmse =
    Trace.span c ~layer:"bench" "bench.check" (fun () ->
        let valid = match p.source with Vec a -> a.Apps.valid_slots | Batch _ -> max_int in
        let vs got want =
          let k = min valid (Array.length want) in
          Stats.rmse (Array.sub got 0 k) (Array.sub want 0 k)
        in
        let encrypted =
          List.fold_left2 (fun m got want -> Float.max m (vs got want)) 0. rep.Interp.outputs want
        in
        match (p.source, batch) with
        | Batch b, Some (_, l) ->
            let scalar = Batch_apps.reference { b with Batch_apps.inputs = logical } in
            List.fold_left2
              (fun m (name, expect) packed -> Float.max m (vs (Lower.decode_output l name packed) expect))
              encrypted scalar rep.Interp.outputs
        | _ -> encrypted)
  in
  note_rmse rmse;
  rmse <= error_bound

(* ------------------------------------------------------------------ *)
(* Summaries                                                           *)
(* ------------------------------------------------------------------ *)

(* Latency at the highest percentile that leaves at least 10 samples above
   it; with 10 samples or fewer there is no such percentile and the
   slowest sample stands in. Returns (value, percentile, samples). *)
let tail xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n > 10 then (a.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n, n)
  else (a.(n - 1), 100., n)

let geomean xs = if xs = [] then nan else Stats.geomean (Array.of_list xs)

(* The paper's metric: geomean over programs of the median execution time. *)
let run_s labels = geomean (List.map (fun l -> Stats.median (values ("run." ^ l))) labels)

(* Latency summary of a workload that cycles through several programs:
   median and tail per program, combined by geomean, so the program mix of
   a time window cannot flip the statistic between program clusters. *)
let per_program_latency labels =
  let per =
    List.filter_map
      (fun l ->
        match
          Array.of_list
            (List.filter_map
               (fun (s : sample) -> if s.label = l && not s.traced then Some s.wall else None)
               !samples)
        with
        | [||] -> None
        | xs ->
            let t, p, n = tail xs in
            Printf.printf "# latency %-13s n=%-4d p50 %.4f s  tail %.4f s (p%.1f of %d)\n" l
              (Array.length xs) (Stats.median xs) t p n;
            Some (Stats.median xs, t))
      labels
  in
  (geomean (List.map fst per), geomean (List.map snd per))

let peak_rss_mb ?pid () =
  let file = match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p in
  match open_in file with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line -> (
            match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
            | kb -> float_of_int kb /. 1024.
            | exception _ -> scan ())
      in
      let r = scan () in
      close_in ic;
      r

(* Busy and stolen CPU ticks from /proc/stat: on a shared host, time the
   hypervisor gave to other guests shows here and explains slow runs. *)
let cpu_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> None
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      (match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | "cpu" :: fields -> (
          match List.map int_of_string_opt fields with
          | Some user :: Some nice :: Some system :: Some idle :: Some iowait :: Some irq :: Some softirq
            :: Some steal :: _ ->
              Some (user + nice + system + irq + softirq, idle + iowait, steal)
          | _ -> None)
      | _ -> None)

(* Closed loop of whole rounds (one request per program) until [seconds]
   have passed, so every program gets the same number of requests.
   Returns the window and the completion rate of each round. *)
let rounds ~seconds round =
  let t0 = now () in
  let k = ref 0 and rates = ref [] in
  while now () -. t0 < seconds do
    let r0 = now () and n0 = List.length !samples in
    round !k;
    rates := float_of_int (List.length !samples - n0) /. (now () -. r0) :: !rates;
    probe_times "window" 3;
    incr k
  done;
  (now () -. t0, !rates)

let request ~traced ~req ~tid ~label f =
  let c = Trace.request ~traced ~req ~tid ~label in
  Mutex.lock obs_lock;
  incr attempts;
  Mutex.unlock obs_lock;
  let t0 = now () in
  let ok =
    match f c with
    | true -> true
    | false ->
        note_failure (label ^ ": check above the error bound or artifact mismatch");
        false
    | exception e ->
        note_failure (label ^ ": " ^ Printexc.to_string e);
        false
  in
  let t1 = now () in
  Trace.finish c ~t0 ~t1;
  if ok then note_sample { label; wall = t1 -. t0; traced; finished = t1 }

(* Timing metrics and the phase whose probes scale them. *)
let all_timings =
  [
    ("setup_s", "setup");
    ("requests_per_s", "window");
    ("latency_p50_s", "window");
    ("latency_tail_s", "window");
    ("run_s", "window");
  ]

type result = {
  setup : float list;
  elapsed : float; (* measured window *)
  rates : float list; (* completions per second of each round, or of the window *)
  run_s : float;
  est_speedup : float;
  latency : float * float; (* p50, tail *)
  scaled : (string * string) list; (* metrics reported at the reference host speed *)
}

(* ------------------------------------------------------------------ *)
(* oneshot                                                             *)
(* ------------------------------------------------------------------ *)

let setup_ctx () = Trace.request ~traced:false ~req:(-1) ~tid:0 ~label:"setup"

(* The EVA (waterline) plan's estimated seconds: the baseline of
   est_speedup_vs_eva, computed by the benchmark at set-up. *)
let eva_estimate p src =
  quietly (fun () ->
      let c = setup_ctx () in
      let prog, batch = front c p src in
      (compile c Driver.Eva p ~lowered:(batch <> None) prog).Driver.estimated_seconds)

let oneshot args =
  let programs = oneshot_programs () in
  (* Set-up builds the request texts, the input generator and the EVA
     baseline estimates. *)
  let setup_once () =
    probe_times "setup" 5;
    let t0 = now () in
    let texts = List.map (fun p -> (p, text p)) programs in
    let eva = List.map (fun (p, src) -> (p.label, eva_estimate p src)) texts in
    let g = Prng.create ~seed:args.seed in
    ((texts, eva, g), now () -. t0)
  in
  let setups = List.init oneshot_setup_reps (fun _ -> setup_once ()) in
  let texts, eva, g = fst (List.hd (List.rev setups)) in
  let est = Hashtbl.create 8 in
  let req = ref 0 in
  let one ~traced (p, src) =
    incr req;
    request ~traced ~req:!req ~tid:1 ~label:p.label (fun c ->
        let prog, batch = front c p src in
        let compiled = compile c Driver.Hecate p ~lowered:(batch <> None) prog in
        record "plan.est_s" compiled.Driver.estimated_seconds;
        let eval = keygen c ~seed:args.seed compiled in
        let ok = run_checked c g p ~source_prog:prog ~batch ~compiled ~eval in
        if not (Hashtbl.mem est p.label) then
          Hashtbl.replace est p.label (List.assoc p.label eva /. compiled.Driver.estimated_seconds);
        ok)
  in
  let elapsed, rates =
    rounds ~seconds:args.seconds (fun k ->
        let traced = args.trace && k mod 2 = 0 in
        List.iter (one ~traced) texts)
  in
  {
    setup = List.map snd setups;
    elapsed;
    rates;
    run_s = run_s (List.map (fun p -> p.label) programs);
    est_speedup = geomean (Hashtbl.fold (fun _ r acc -> r :: acc) est []);
    latency = per_program_latency (List.map (fun p -> p.label) programs);
    scaled = all_timings;
  }

(* ------------------------------------------------------------------ *)
(* infer                                                               *)
(* ------------------------------------------------------------------ *)

let infer args =
  let programs = infer_programs () in
  (* Set-up compiles with PARS (no search) and generates the session keys;
     the EVA compile for the estimated speedup rides along. *)
  let setup_once () =
    probe_times "setup" 5;
    let t0 = now () in
    let c = setup_ctx () in
    let sessions =
      List.map
        (fun p ->
          let prog = match p.source with Vec a -> a.Apps.prog | Batch _ -> assert false in
          let compiled = compile c Driver.Pars p ~lowered:false prog in
          let eval = keygen c ~seed:args.seed compiled in
          (p, prog, compiled, eval, eva_estimate p (text p) /. compiled.Driver.estimated_seconds))
        programs
    in
    let s = now () -. t0 in
    (sessions, s)
  in
  (* Only the last repetition's sessions stay alive: the evaluator keys are
     hundreds of MB, and peak_rss_mb should see one set. *)
  let sessions = ref [] in
  let setups =
    List.init setup_reps (fun _ ->
        sessions := [];
        Gc.full_major ();
        let s, t = setup_once () in
        sessions := s;
        ((), t))
  in
  let sessions = !sessions in
  let g = Prng.create ~seed:args.seed in
  let req = ref 0 in
  let elapsed, rates =
    rounds ~seconds:args.seconds (fun k ->
        let traced = args.trace && k mod 2 = 0 in
        List.iter
          (fun (p, prog, compiled, eval, _) ->
            incr req;
            request ~traced ~req:!req ~tid:1 ~label:p.label (fun c ->
                record "plan.est_s" compiled.Driver.estimated_seconds;
                run_checked c g p ~source_prog:prog ~batch:None ~compiled ~eval))
          sessions)
  in
  {
    setup = List.map snd setups;
    elapsed;
    rates;
    run_s = run_s (List.map (fun p -> p.label) programs);
    est_speedup = geomean (List.map (fun (_, _, _, _, r) -> r) sessions);
    latency = per_program_latency (List.map (fun p -> p.label) programs);
    scaled = all_timings;
  }

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let replace_all ~sub ~by s =
  let b = Buffer.create (String.length s + 64) and n = String.length sub in
  let rec go i =
    if i > String.length s - n then Buffer.add_substring b s i (String.length s - i)
    else if String.sub s i n = sub then begin
      Buffer.add_string b by;
      go (i + n)
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

(* Alpha-variant of a .hec text: the function and every input renamed.
   Canonical fingerprints ignore names, so a variant shares its cache key. *)
let alpha_variant g (prog : Prog.t) src =
  let suffix = Printf.sprintf "_%x" (Prng.int_below g 0xfffff) in
  let src =
    replace_all ~sub:("func " ^ prog.Prog.name ^ "(") ~by:("func " ^ prog.Prog.name ^ suffix ^ "(") src
  in
  List.fold_left
    (fun s v ->
      match (Prog.op prog v).Prog.kind with
      | Prog.Input { name } -> replace_all ~sub:("\"" ^ name ^ "\"") ~by:("\"" ^ name ^ suffix ^ "\"") s
      | _ -> s)
    src prog.Prog.inputs

(* One cacheable request: a .hec text at a waterline. *)
type key = { name : string; text : string; kwl : float }

type hot = {
  p : program;
  key : key;
  source_prog : Prog.t; (* unmanaged, for the plaintext reference *)
  batch : (Surface.t * Lower.lowered) option;
  direct : Driver.compiled; (* compiled directly at set-up *)
  variants : string array; (* the text itself, then alpha-variants *)
}

(* New keys, all from the MLP family so that their compile costs are alike
   and the pooled tail (the 11th slowest request) lands inside one cluster:
   MLP at 16 other waterlines, and two MLP sizes, each sent on two
   connections at once. *)
let miss_keys (hot : hot list) =
  let mlp = List.find (fun (h : hot) -> h.p.label = "MLP") hot in
  let at d =
    let kwl = mlp.p.wl +. d in
    { name = Printf.sprintf "MLP@%g" kwl; text = mlp.key.text; kwl }
  in
  let sized in_dim =
    let prog = (Apps.mlp ~in_dim ~hidden:16 ~out_dim:10 ()).Apps.prog in
    { name = Printf.sprintf "MLP-%d" in_dim; text = Printer.to_string prog; kwl = mlp.p.wl }
  in
  ( List.map at [ -5.; -4.; -3.; -2.; -1.; 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10.; 11. ],
    [ sized 48; sized 80 ] )

let submit (k : key) text =
  {
    Protocol.program = text;
    scheme = Driver.Hecate;
    sf_bits;
    waterline_bits = k.kwl;
    max_epochs;
    budget_seconds = None;
    strategy = Some strategy;
    stream = false;
  }

let cache_counters socket =
  match Client.stats ~socket with
  | Error msg -> failwith ("stats: " ^ msg)
  | Ok j ->
      let c = match Json.member "cache" j with Json.Null -> j | c -> c in
      fun name -> Option.value ~default:0 (Json.to_int (Json.member name c))

type special = Miss of key | Joint of key

(* The server runs in its own process, as hecated does: sharing one OCaml
   runtime lock and heap with the clients made hit latency swing from run
   to run. Its peak memory is added to the workload's. *)
let servers = ref []
let server_peak_mb = ref 0.

(* The benchmark binary re-executed as the server: main.exe --server SOCKET DIR. *)
let server_main ~socket ~dir =
  let cache = Plancache.create ~dir ~capacity:8 () in
  Server.serve (Server.create ~pool_size ~workers:server_workers cache) ~socket_path:socket

let start_server ~dir ~socket =
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--server"; socket; dir |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  servers := pid :: !servers;
  (* The socket file appears at bind, before the server listens: wait
     until it answers. *)
  let t0 = now () in
  while not (Sys.file_exists socket && Result.is_ok (Client.stats ~socket)) do
    if now () -. t0 > 30. then failwith "the server did not start";
    Thread.delay 0.001
  done;
  pid

let stop_server pid ~socket =
  ignore (Client.shutdown ~socket);
  ignore (Unix.waitpid [] pid);
  servers := List.filter (( <> ) pid) !servers

(* On an error path: stop whatever servers are still running. *)
let kill_servers () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
    !servers;
  servers := []

let serve args ~cache_root =
  (* A server that dies mid-reply must fail the request, not the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let g = Prng.create ~seed:args.seed in
  (* Set-up: start the server on a fresh cache, prefill the hot set (the
     oneshot programs), check every hot answer against a direct compile,
     and time the EVA baseline. *)
  let setup_once rep =
    probe_times "setup" 5;
    let t0 = now () in
    let dir = Filename.concat cache_root (Printf.sprintf "rep%d" rep) in
    let socket = Filename.concat out_dir (Printf.sprintf "s%d-%d.sock" (Unix.getpid ()) rep) in
    let server = start_server ~dir ~socket in
    let c = setup_ctx () in
    let hot =
      List.map
        (fun p ->
          let source_prog, batch = front c p (text p) in
          let hot_text = match batch with None -> text p | Some (_, l) -> Printer.to_string l.Lower.prog in
          let key = { name = p.label; text = hot_text; kwl = p.wl } in
          let served =
            match Client.compile ~socket (submit key hot_text) with
            | Ok o -> o.Client.result
            | Error msg -> failwith ("prefill " ^ p.label ^ ": " ^ msg)
          in
          (* The server compiles lowered IR text like any .hec: default pipeline. *)
          let direct = compile c Driver.Hecate p ~lowered:false (Parser.parse hot_text) in
          if Printer.to_string direct.Driver.prog <> served.Protocol.artifact then
            note_failure (p.label ^ ": served artifact differs from a direct compile");
          let vg = Prng.split g p.label in
          let prog = Parser.parse hot_text in
          let variants = Array.init 5 (fun i -> if i = 0 then hot_text else alpha_variant vg prog hot_text) in
          Array.iter
            (fun v ->
              if Prog.fingerprint (Parser.parse v) <> Prog.fingerprint prog then
                failwith (p.label ^ ": alpha-variant changed the fingerprint"))
            variants;
          ({ p; key; source_prog; batch; direct; variants }, served.Protocol.artifact))
        (oneshot_programs ())
    in
    let est =
      geomean
        (List.map
           (fun ((h : hot), _) ->
             quietly (fun () ->
                 (compile c Driver.Eva h.p ~lowered:false (Parser.parse h.key.text)).Driver.estimated_seconds)
             /. h.direct.Driver.estimated_seconds)
           hot)
    in
    ((server, socket, hot, est), now () -. t0)
  in
  let stop (pid, socket, _, _) = stop_server pid ~socket in
  let setups = List.init setup_reps setup_once in
  List.iteri (fun i (s, _) -> if i < setup_reps - 1 then stop s) setups;
  let ((server, socket, hot, est) as live), _ = List.hd (List.rev setups) in
  let hot = Array.of_list hot in
  let misses, joint = miss_keys (Array.to_list (Array.map fst hot)) in
  (* Every answer must be byte-identical to the first answer for its key. *)
  let first = Hashtbl.create 64 and first_lock = Mutex.create () in
  Array.iter (fun ((h : hot), artifact) -> Hashtbl.replace first h.key.name artifact) hot;
  let same name artifact =
    Mutex.lock first_lock;
    let ok =
      match Hashtbl.find_opt first name with
      | Some a -> a = artifact
      | None ->
          Hashtbl.replace first name artifact;
          true
    in
    Mutex.unlock first_lock;
    ok
  in
  let counters () =
    let counter = cache_counters socket in
    List.map (fun n -> (n, counter n)) [ "hits_memory"; "hits_disk"; "misses"; "joins"; "evictions" ] in
  let before = counters () in
  let send ~tid ~n kind (key : key) text =
    let traced = args.trace && n mod 2 = 1 in
    request ~traced ~req:((tid * 10_000_000) + n) ~tid ~label:kind (fun c ->
        let o, wall =
          timed (fun () ->
              Trace.span c ~layer:"serve" "serve.client" (fun () -> Client.compile ~socket (submit key text)))
        in
        match o with
        | Error msg -> failwith msg
        | Ok o ->
            let r = o.Client.result in
            Trace.child c ~layer:"core" "core.server" ~dur:r.Protocol.wall_seconds;
            record "serve.server_s" r.Protocol.wall_seconds;
            (match r.Protocol.origin with
            | "memory" | "disk" ->
                record "serve.hit_s" wall;
                record "serve.overhead_s" (wall -. r.Protocol.wall_seconds)
            | "cold" -> record "serve.miss_s" wall
            | _ -> ());
            Trace.span c ~layer:"bench" "bench.check" (fun () -> same key.name r.Protocol.artifact))
  in
  (* Two hit clients send fixed streams of hot-set hits (the text or an
     alpha-variant) drawn from the seed, about --seconds long at
     serve_rate. The streams are not cut by the clock: the server's memory
     grows with the requests it has served, so peak_rss_mb would follow the
     host's speed.

     A third connection sends the new keys one at a time, in the same order
     in every run, each once the hit clients have sent its share of their
     streams: new keys never compile at once, and each meets the same hit
     traffic in every run. After each new key it repeats 10 keys it sent
     before, drawn from the seed (memory hits, or disk hits once the small
     memory layer has evicted them). It sends each joint key on two
     connections at once, so one compile is joined by the other. *)
  let per_client = max 20 (int_of_float (serve_rate *. args.seconds /. float_of_int hit_clients)) in
  let streams =
    Array.init hit_clients (fun cid ->
        let g = Prng.split g (Printf.sprintf "client%d" cid) in
        Array.init per_client (fun _ ->
            let h, _ = hot.(Prng.int_below g (Array.length hot)) in
            ("hit:" ^ h.p.label, h.key, h.variants.(Prng.int_below g (Array.length h.variants)))))
  in
  let specials =
    let per = List.length misses / List.length joint in
    Array.of_list
      (List.concat
         (List.mapi
            (fun j key -> List.filteri (fun i _ -> i / per = j) (List.map (fun m -> Miss m) misses) @ [ Joint key ])
            joint))
  in
  let hits_done = ref 0 and progress_lock = Mutex.create () and progressed = Condition.create () in
  let hit_client cid () =
    Array.iteri
      (fun n (kind, key, text) ->
        send ~tid:(cid + 1) ~n:(n + 1) kind key text;
        Mutex.lock progress_lock;
        incr hits_done;
        Condition.broadcast progressed;
        Mutex.unlock progress_lock)
      streams.(cid)
  in
  let key_client () =
    let g = Prng.split g "new-keys" in
    let total = hit_clients * per_client and count = Array.length specials in
    let sent = ref [] and n = ref 0 in
    let next () =
      incr n;
      !n
    in
    Array.iteri
      (fun i special ->
        let due = int_of_float ((float_of_int i +. 0.5) /. float_of_int count *. float_of_int total) in
        Mutex.lock progress_lock;
        while !hits_done < due do
          Condition.wait progressed progress_lock
        done;
        Mutex.unlock progress_lock;
        match special with
        | Joint key ->
            let n1 = next () and n2 = next () in
            let other = Thread.create (fun () -> send ~tid:4 ~n:n2 "joint" key key.text) () in
            send ~tid:3 ~n:n1 "joint" key key.text;
            Thread.join other;
            sent := key :: !sent
        | Miss key ->
            send ~tid:3 ~n:(next ()) "miss" key key.text;
            sent := key :: !sent;
            for _ = 1 to 10 do
              let key = List.nth !sent (Prng.int_below g (List.length !sent)) in
              send ~tid:3 ~n:(next ()) "repeat" key key.text
            done)
      specials
  in
  let t0 = now () in
  List.iter Thread.join
    (Thread.create key_client () :: List.init hit_clients (fun cid -> Thread.create (hit_client cid) ()));
  let elapsed = now () -. t0 in
  let after = counters () in
  List.iter2
    (fun (name, b) (_, a) -> record ("plancache." ^ name) (float_of_int (a - b)))
    before after;
  (* Hit latency on an otherwise idle server: one request at a time, the
     hot programs in rounds with a probe after each round. In the window,
     hits share one CPU with compiles and with each other, and their
     latency follows the queue more than the request. *)
  for r = 1 to 60 do
    Array.iter
      (fun ((h : hot), _) ->
        send ~tid:0 ~n:0 ("idle:" ^ h.p.label) h.key h.variants.(r mod Array.length h.variants))
      hot;
    probe_times "idle" 1
  done;
  server_peak_mb := peak_rss_mb ~pid:server ();
  stop live;
  (* The served plans run: the hot answers equal the direct compiles, so
     those are executed and checked against the plaintext reference, once
     the server has exited and on a compacted heap, so that neither the
     window's garbage nor the server's memory slows them. They run in
     rounds with a probe after each, as oneshot's do: the host's speed can
     change within a second. *)
  Gc.compact ();
  let evals = Array.map (fun ((h : hot), _) -> keygen (setup_ctx ()) ~seed:args.seed h.direct) hot in
  for _ = 1 to 60 do
    Array.iteri
      (fun i ((h : hot), _) ->
        request ~traced:false ~req:(-2) ~tid:0 ~label:("exec:" ^ h.p.label) (fun c ->
            record "plan.est_s" h.direct.Driver.estimated_seconds;
            run_checked c g h.p ~source_prog:h.source_prog ~batch:h.batch ~compiled:h.direct ~eval:evals.(i)))
      hot;
    probe_times "exec" 1
  done;
  let pooled =
    Array.of_list
      (List.filter_map (fun (s : sample) -> if s.traced then None else Some s.wall) (loop_samples ()))
  in
  (* Hits are summarised per hot program, whose text size sets their cost;
     the tail is pooled, so it lands among the new keys. *)
  let labels prefix = List.map (fun ((h : hot), _) -> prefix ^ h.p.label) (Array.to_list hot) in
  ignore (per_program_latency (labels "hit:"));
  let p50, _ = per_program_latency (labels "idle:") in
  let t, p, n = tail pooled in
  Printf.printf "# latency pooled n=%d p50 %.6f s  tail %.4f s (p%.3f of %d)\n" (Array.length pooled)
    (Stats.median pooled) t p n;
  let latency = (p50, t) in
  (* Completions over the whole stream: per-second counts are bimodal here
     (seconds in which one client waits on a new key run at half rate), so
     their median would jump between the two modes. *)
  let rates = [ float_of_int (List.length (loop_samples ())) /. elapsed ] in
  {
    setup = List.map snd setups;
    elapsed;
    rates;
    run_s = run_s (Array.to_list (Array.map (fun ((h : hot), _) -> h.p.label) hot));
    est_speedup = est;
    latency;
    (* Only the CPU-bound phases: set-up compiles and the executions. *)
    scaled = [ ("setup_s", "setup"); ("latency_p50_s", "idle"); ("run_s", "exec") ];
  }

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Traced over untraced median latency, per label, combined by geomean. *)
let trace_overhead () =
  let by traced l =
    Array.of_list
      (List.filter_map
         (fun (s : sample) -> if s.label = l && s.traced = traced then Some s.wall else None)
         !samples)
  in
  let labels = List.sort_uniq compare (List.map (fun (s : sample) -> s.label) (loop_samples ())) in
  geomean
    (List.filter_map
       (fun l ->
         match (by true l, by false l) with
         | [||], _ | _, [||] -> None
         | t, u -> Some (Stats.median t /. Stats.median u))
       labels)
  -. 1.

let layers = [ "ir"; "batch"; "core"; "ckks"; "backend"; "serve"; "bench" ]

(* Phase accounting of the traced requests: layer self times against the
   request wall clock; the root's self time is the unexplained remainder. *)
let phase_accounting ~verbose =
  let reqs = Trace.requests () in
  let totals = Hashtbl.create 8 and wall = ref 0. and worst = ref 0. in
  List.iteri
    (fun i (f : Trace.finished) ->
      let self = Trace.self_times f in
      let w = f.Trace.root.Trace.t1 -. f.Trace.root.Trace.t0 in
      let get l = Option.value ~default:0. (Hashtbl.find_opt self l) in
      let unexplained = get "request" in
      wall := !wall +. w;
      worst := Float.max !worst (unexplained /. w);
      Hashtbl.iter (Trace.add_to totals) self;
      if verbose || i < 5 then
        Printf.printf "# phases req=%d %-12s wall %.5f s = layers %.5f s + unexplained %.6f s (%.3f%%) [%s]\n"
          f.Trace.ctx.Trace.req f.Trace.ctx.Trace.label w (w -. unexplained) unexplained
          (100. *. unexplained /. w)
          (String.concat " "
             (List.filter_map
                (fun l -> match get l with 0. -> None | s -> Some (Printf.sprintf "%s=%.5f" l s))
                layers)))
    reqs;
  let n = float_of_int (max 1 (List.length reqs)) in
  let total l = Option.value ~default:0. (Hashtbl.find_opt totals l) in
  Printf.printf "# phases: %d traced requests, unexplained %.4f%% of wall (worst request %.3f%%)\n"
    (List.length reqs) (100. *. total "request" /. Float.max !wall 1e-12) (100. *. !worst);
  List.map (fun l -> ("self." ^ l ^ "_s", "s", total l /. n)) layers
  @ [
      ("request.unexplained_s", "s", total "request" /. n);
      ("request.unexplained_frac", "ratio", total "request" /. Float.max !wall 1e-12);
    ]

let median_or_zero name = match values name with [||] -> 0. | a -> Stats.median a

let per_layer () =
  let executions = float_of_int (max 1 (Array.length (values "backend.execute_s"))) in
  let sum name = Array.fold_left ( +. ) 0. (values name) in
  let programs =
    List.sort_uniq compare
      (Hashtbl.fold
         (fun k _ acc ->
           if String.starts_with ~prefix:"drift." k then String.sub k 6 (String.length k - 6) :: acc
           else acc)
         obs [])
  in
  List.iter
    (fun l ->
      Printf.printf "# program %-12s estimator drift %.3f; op split per execution:%s\n" l
        (median_or_zero ("drift." ^ l))
        (String.concat ""
           (List.filter_map
              (fun cls ->
                let name = Costmodel.class_name cls in
                match values (Printf.sprintf "split.%s.%s" l name) with
                | [||] -> None
                | xs -> Some (Printf.sprintf " %s=%.5fs" name (Stats.median xs)))
              Costmodel.classes)))
    programs;
  let cache name = sum ("plancache." ^ name) in
  let looked = cache "hits_memory" +. cache "hits_disk" +. cache "misses" +. cache "joins" in
  [
    ("check.rmse_max", "abs", !rmse_max);
    ("ir.parse_s", "s", mean_or_zero "ir.parse_s");
    ("batch.lower_s", "s", mean_or_zero "batch.lower_s");
    ("batch.rotations", "count", mean_or_zero "batch.rotations");
    ("core.compile_s", "s", mean_or_zero "core.compile_s");
    ("passes.s", "s", mean_or_zero "passes.s");
    ("explore.s", "s", mean_or_zero "explore.s");
    ("explore.plans", "count", mean_or_zero "explore.plans");
    ("explore.epochs", "count", mean_or_zero "explore.epochs");
    ("explore.memo_hit_ratio", "ratio", mean_or_zero "explore.memo_hit_ratio");
    ("plan.est_s", "s", match values "plan.est_s" with [||] -> 0. | a -> Stats.geomean a);
    ( "estimator.drift",
      "ratio",
      match programs with
      | [] -> 0.
      | ps -> Stats.mean (Array.of_list (List.map (fun l -> median_or_zero ("drift." ^ l)) ps)) );
    ("ckks.keygen_s", "s", mean_or_zero "ckks.keygen_s");
    ("ckks.rotation_keys", "count", mean_or_zero "ckks.rotation_keys");
    ("ckks.encdec_s", "s", mean_or_zero "ckks.encdec_s");
    ("backend.execute_s", "s", mean_or_zero "backend.execute_s");
    ("backend.peak_live", "count", max_or_zero "backend.peak_live");
    ("backend.reference_s", "s", mean_or_zero "backend.reference_s");
  ]
  @ List.concat_map
      (fun cls ->
        let name = Costmodel.class_name cls in
        [
          ("op." ^ name ^ "_s", "s", sum ("op." ^ name ^ "_s") /. executions);
          ("op." ^ name ^ "_n", "count", sum ("op." ^ name ^ "_n") /. executions);
        ])
      Costmodel.classes
  @ [
      ("plancache.hit_memory", "count", cache "hits_memory");
      ("plancache.hit_disk", "count", cache "hits_disk");
      ("plancache.miss", "count", cache "misses");
      ("plancache.join", "count", cache "joins");
      ("plancache.evictions", "count", cache "evictions");
      ( "plancache.hit_ratio",
        "ratio",
        if looked > 0. then (cache "hits_memory" +. cache "hits_disk") /. looked else 0. );
      ("serve.hit_s", "s", median_or_zero "serve.hit_s");
      ("serve.miss_s", "s", median_or_zero "serve.miss_s");
      ("serve.server_s", "s", median_or_zero "serve.server_s");
      ("serve.overhead_s", "s", median_or_zero "serve.overhead_s");
    ]

let () =
  (match Sys.argv with
  | [| _; "--server"; socket; dir |] ->
      server_main ~socket ~dir;
      exit 0
  | _ -> ());
  let args = parse_args () in
  let nproc = pin_environment () in
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let cache_root = Filename.concat out_dir (Printf.sprintf "cache-%d" (Unix.getpid ())) in
  Printf.printf "# perfbench workload=%s seed=%d seconds=%g trace=%d\n" args.workload args.seed
    args.seconds (Bool.to_int args.trace);
  List.iter
    (fun (k, v) -> Printf.printf "# setting %s=%s\n" k v)
    (settings ~nproc ~cache_dir:(if args.workload = "serve" then cache_root else "none"));
  let ticks0 = cpu_ticks () in
  let r =
    match args.workload with
    | "oneshot" -> oneshot args
    | "infer" -> infer args
    | _ ->
        Fun.protect
          ~finally:(fun () ->
            kill_servers ();
            rm_rf cache_root)
          (fun () -> serve args ~cache_root)
  in
  let completed = List.length (List.filter (fun (s : sample) -> not s.traced) (loop_samples ())) in
  let traced = List.length (List.filter (fun (s : sample) -> s.traced) (loop_samples ())) in
  (match (ticks0, cpu_ticks ()) with
  | Some (b0, i0, s0), Some (b1, i1, s1) ->
      let total = float_of_int (max 1 (b1 - b0 + i1 - i0 + s1 - s0)) in
      Printf.printf "# host cpu over the run: busy %.1f%%, stolen %.1f%%\n"
        (100. *. float_of_int (b1 - b0) /. total)
        (100. *. float_of_int (s1 - s0) /. total)
  | _ -> ());
  Printf.printf "# setup_s reps:%s\n" (String.concat "" (List.map (Printf.sprintf " %.4f") r.setup));
  Printf.printf "# check: rmse_max %.4g (bound %.4g)\n" !rmse_max error_bound;
  Printf.printf
    "# requests: %d attempted, %d failed (fail_frac %.4f), %d completed untraced, %d traced, \
     window %.2f s\n"
    !attempts !failures
    (float_of_int !failures /. float_of_int (max 1 !attempts))
    completed traced r.elapsed;
  let metrics =
    if not args.trace then begin
      List.iter
        (fun phase ->
          let n = List.length (List.filter (fun (p, _) -> p = phase) !probes) in
          if n > 0 then
            Printf.printf "# host speed (%s): median probe %.5f s of %d (reference %.3f s)\n" phase
              (probe_reference_s /. host_factor phase) n probe_reference_s)
        [ "setup"; "window"; "idle"; "exec" ];
      (* Seconds scale by the phase's factor, rates by its inverse. *)
      List.map
        (fun (n, u, v) ->
          match List.assoc_opt n r.scaled with
          | Some phase ->
              let f = host_factor phase in
              Printf.printf "# raw %-26s %.6g %s (factor %.4f)\n" n v u f;
              (n, u, if u = "1/s" then v /. f else v *. f)
          | None -> (n, u, v))
        [
          ("setup_s", "s", Stats.median (Array.of_list r.setup));
          ("requests_per_s", "1/s", Stats.median (Array.of_list r.rates));
          ("latency_p50_s", "s", fst r.latency);
          ("latency_tail_s", "s", snd r.latency);
          ("run_s", "s", r.run_s);
          ("est_speedup_vs_eva", "x", r.est_speedup);
          ("peak_rss_mb", "MB", peak_rss_mb () +. !server_peak_mb);
        ]
    end
    else begin
      let path = Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" args.workload args.seed) in
      Trace.write_chrome path;
      Printf.printf "# trace: %s\n" path;
      let phases = phase_accounting ~verbose:(args.workload <> "serve") in
      per_layer () @ phases @ [ ("trace.overhead_frac", "ratio", trace_overhead ()) ]
    end
  in
  List.iter (fun (n, u, v) -> Printf.printf "# metric %-26s %.6g %s\n" n v u) metrics;
  print_endline
    (Json.render
       (Json.Obj
          [
            ("correct", Json.Bool (!failures = 0));
            ("attempted", Json.int !attempts);
            ("failed", Json.int !failures);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (n, u, v) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
                   metrics) );
          ]))
