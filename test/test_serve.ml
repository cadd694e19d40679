(* Tests for the serving stack: canonical fingerprints, the
   content-addressed plan cache (LRU / disk / single-flight), the job
   protocol, and an end-to-end daemon session over a Unix socket. *)

module Prog = Hecate_ir.Prog
module Parser = Hecate_ir.Parser
module Printer = Hecate_ir.Printer
module Driver = Hecate.Driver
module Plancache = Hecate.Plancache
module Explore = Hecate.Explore
module Protocol = Hecate_serve.Protocol
module Server = Hecate_serve.Server
module Client = Hecate_serve.Client
module Json = Hecate_support.Json
module Gen = Hecate_fuzz.Gen

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let fig2 () = Parser.parse_file "../examples/fig2.hec"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_temp_dir f =
  let dir = Filename.temp_file "hecate_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Canonical fingerprints                                              *)
(* ------------------------------------------------------------------ *)

(* Two constructions of the same DAG: different value names, a permuted
   construction order, an extra dead op and provenance scopes on one
   side. Alpha-equivalent -> same fingerprint. *)
let test_fingerprint_alpha_equivalence () =
  let a =
    let b = Prog.Builder.create ~slot_count:16 () in
    let x = Prog.Builder.input b "x" in
    let y = Prog.Builder.input b "y" in
    let t1 = Prog.Builder.mul b x x in
    let t2 = Prog.Builder.mul b y y in
    Prog.Builder.output b (Prog.Builder.add b t1 t2);
    Prog.Builder.finish b
  in
  let b =
    let b = Prog.Builder.create ~name:"other" ~slot_count:16 () in
    Prog.Builder.in_scope b "noise" @@ fun () ->
    let u = Prog.Builder.input b "u" in
    let v = Prog.Builder.input b "v" in
    let t2 = Prog.Builder.mul b v v in
    ignore (Prog.Builder.mul b u v) (* dead: dropped by canonicalization *);
    let t1 = Prog.Builder.mul b u u in
    Prog.Builder.output b (Prog.Builder.add b t1 t2);
    Prog.Builder.finish b
  in
  let c =
    let b = Prog.Builder.create ~slot_count:16 () in
    let x = Prog.Builder.input b "x" in
    let y = Prog.Builder.input b "y" in
    let t1 = Prog.Builder.mul b x x in
    let t2 = Prog.Builder.mul b y y in
    Prog.Builder.output b (Prog.Builder.sub b t1 t2);
    Prog.Builder.finish b
  in
  check Alcotest.string "alpha-equivalent programs collide" (Prog.fingerprint a)
    (Prog.fingerprint b);
  check Alcotest.bool "distinct programs differ" false
    (String.equal (Prog.fingerprint a) (Prog.fingerprint c))

let test_fingerprint_slot_count_matters () =
  let build slots =
    let b = Prog.Builder.create ~slot_count:slots () in
    let x = Prog.Builder.input b "x" in
    Prog.Builder.output b (Prog.Builder.mul b x x);
    Prog.Builder.finish b
  in
  check Alcotest.bool "slot count is part of the address" false
    (String.equal (Prog.fingerprint (build 16)) (Prog.fingerprint (build 32)))

let prop_fingerprint_survives_roundtrip =
  QCheck.Test.make ~name:"fingerprint survives print/parse" ~count:60
    QCheck.(int_bound 100_000)
    (fun seed ->
      let case = Gen.generate ~seed () in
      let p = case.Gen.prog in
      let fp = Prog.fingerprint p in
      let reparsed = Parser.parse (Printer.to_string p) in
      String.equal fp (Prog.fingerprint reparsed))

let prop_canonicalize_idempotent =
  QCheck.Test.make ~name:"canonicalize is idempotent and valid" ~count:60
    QCheck.(int_bound 100_000)
    (fun seed ->
      let p = (Gen.generate ~seed ()).Gen.prog in
      let c = Prog.canonicalize p in
      (match Prog.validate c with Ok () -> true | Error _ -> false)
      && String.equal (Prog.fingerprint p) (Prog.fingerprint c))

(* ------------------------------------------------------------------ *)
(* Plan cache                                                          *)
(* ------------------------------------------------------------------ *)

let compile_cached cache scheme prog =
  Plancache.compile cache ~scheme ~sf_bits:28 ~waterline_bits:20. prog

(* A warm hit must return the byte-identical artifact of a direct
   compile, for every scheme, without re-running exploration. *)
let test_cache_hit_bit_identical () =
  let prog = fig2 () in
  List.iter
    (fun scheme ->
      let cache = Plancache.create () in
      let direct = Driver.compile scheme ~sf_bits:28 ~waterline_bits:20. prog in
      let cold, o1 = compile_cached cache scheme prog in
      let warm, o2 = compile_cached cache scheme prog in
      let name = Driver.scheme_name scheme in
      check Alcotest.string (name ^ " cold origin") "cold" (Plancache.origin_name o1);
      check Alcotest.string (name ^ " warm origin") "memory" (Plancache.origin_name o2);
      check Alcotest.string (name ^ " cold = direct")
        (Printer.to_string direct.Driver.prog)
        cold.Plancache.artifact;
      check Alcotest.string (name ^ " warm = cold") cold.Plancache.artifact
        warm.Plancache.artifact)
    Driver.all_schemes

(* [run_cold] wraps the cold compile only: a hit never reaches it, and a
   compile run on a domain of its own gives the same artifact. *)
let test_cache_run_cold () =
  let prog = fig2 () in
  let cache = Plancache.create () in
  let runs = Atomic.make 0 in
  let run_cold f =
    Atomic.incr runs;
    Domain.join (Domain.spawn f)
  in
  let compile () =
    Plancache.compile cache ~run_cold ~scheme:Driver.Hecate ~sf_bits:28 ~waterline_bits:20. prog
  in
  let cold, _ = compile () in
  let warm, o = compile () in
  check Alcotest.int "cold compile only" 1 (Atomic.get runs);
  check Alcotest.string "warm origin" "memory" (Plancache.origin_name o);
  let direct = Driver.compile Driver.Hecate ~sf_bits:28 ~waterline_bits:20. prog in
  check Alcotest.string "cold on a domain = direct"
    (Printer.to_string direct.Driver.prog)
    cold.Plancache.artifact;
  check Alcotest.string "warm = cold" cold.Plancache.artifact warm.Plancache.artifact

(* Alpha-equivalent submissions share one entry. *)
let test_cache_alpha_equivalent_hit () =
  let prog = fig2 () in
  let renamed = Parser.parse (Printer.to_string prog) in
  let cache = Plancache.create () in
  let _, o1 = compile_cached cache Driver.Hecate prog in
  let _, o2 = compile_cached cache Driver.Hecate renamed in
  check Alcotest.string "reparsed program hits" "memory" (Plancache.origin_name o2);
  check Alcotest.string "first was cold" "cold" (Plancache.origin_name o1)

let test_cache_disk_roundtrip () =
  with_temp_dir @@ fun dir ->
  let prog = fig2 () in
  let cache1 = Plancache.create ~dir () in
  let cold, _ = compile_cached cache1 Driver.Hecate prog in
  (* a different process: fresh in-memory state, same directory *)
  let cache2 = Plancache.create ~dir () in
  let warm, origin = compile_cached cache2 Driver.Hecate prog in
  check Alcotest.string "origin is disk" "disk" (Plancache.origin_name origin);
  check Alcotest.string "artifact identical" cold.Plancache.artifact warm.Plancache.artifact;
  check Alcotest.string "plan identical"
    (String.concat ","
       (List.map string_of_int (Array.to_list (Option.value ~default:[||] cold.Plancache.plan))))
    (String.concat ","
       (List.map string_of_int (Array.to_list (Option.value ~default:[||] warm.Plancache.plan))))

let test_cache_key_sensitivity () =
  let prog = fig2 () in
  let k scheme sf wl me = Plancache.key ~scheme ~sf_bits:sf ~waterline_bits:wl ~max_epochs:me prog in
  let base = k Driver.Hecate 28 20. 100 in
  check Alcotest.bool "scheme changes key" false (String.equal base (k Driver.Eva 28 20. 100));
  check Alcotest.bool "sf changes key" false (String.equal base (k Driver.Hecate 30 20. 100));
  check Alcotest.bool "waterline changes key" false
    (String.equal base (k Driver.Hecate 28 24. 100));
  check Alcotest.bool "budget changes key" false
    (String.equal base (k Driver.Hecate 28 20. 50));
  check Alcotest.string "stable otherwise" base (k Driver.Hecate 28 20. 100)

let test_cache_lru_eviction () =
  let cache = Plancache.create ~capacity:2 () in
  let seed_cache = Plancache.create () in
  let base, _ = compile_cached seed_cache Driver.Eva (fig2 ()) in
  let entry key = { base with Plancache.key } in
  Plancache.add cache (entry "k1");
  Plancache.add cache (entry "k2");
  check Alcotest.int "at capacity" 2 (Plancache.memory_size cache);
  (* touch k1 so k2 is the least recently used *)
  ignore (Plancache.find cache "k1");
  Plancache.add cache (entry "k3");
  check Alcotest.int "bounded" 2 (Plancache.memory_size cache);
  check Alcotest.bool "recently used survives" true (Plancache.find cache "k1" <> None);
  check Alcotest.bool "LRU evicted" true (Plancache.find cache "k2" = None);
  let s = Plancache.snapshot cache in
  check Alcotest.int "eviction counted" 1 s.Plancache.s_evictions

let test_cache_single_flight () =
  let cache = Plancache.create () in
  let seed_cache = Plancache.create () in
  let base, _ = compile_cached seed_cache Driver.Eva (fig2 ()) in
  let entry = { base with Plancache.key = "single-flight" } in
  let computes = Atomic.make 0 in
  let compute () =
    Atomic.incr computes;
    Unix.sleepf 0.08;
    (entry, true)
  in
  let run () = Plancache.find_or_compute cache "single-flight" ~compute in
  let domains = List.init 4 (fun _ -> Domain.spawn run) in
  let results = List.map Domain.join domains in
  check Alcotest.int "one exploration for n requests" 1 (Atomic.get computes);
  let count o =
    List.length
      (List.filter (fun (_, o') -> Plancache.origin_name o' = o) results)
  in
  check Alcotest.int "one cold" 1 (count "cold");
  check Alcotest.int "rest joined" 3 (count "joined");
  List.iter
    (fun (e, _) -> check Alcotest.string "same artifact" entry.Plancache.artifact e.Plancache.artifact)
    results

(* A compute that declares its result transient (budget-truncated) must
   not poison the cache. *)
let test_cache_transient_not_stored () =
  let cache = Plancache.create () in
  let seed_cache = Plancache.create () in
  let base, _ = compile_cached seed_cache Driver.Eva (fig2 ()) in
  let entry = { base with Plancache.key = "truncated" } in
  let e, origin = Plancache.find_or_compute cache "truncated" ~compute:(fun () -> (entry, false)) in
  check Alcotest.string "returned to the requester" entry.Plancache.artifact e.Plancache.artifact;
  check Alcotest.string "computed cold" "cold" (Plancache.origin_name origin);
  check Alcotest.bool "not cached" true (Plancache.find cache "truncated" = None)

let test_cache_entry_json_roundtrip () =
  let seed_cache = Plancache.create () in
  let entry, _ = compile_cached seed_cache Driver.Hecate (fig2 ()) in
  match Plancache.entry_of_json (Json.parse (Json.render (Plancache.entry_to_json entry))) with
  | None -> Alcotest.fail "entry JSON did not round-trip"
  | Some e ->
      check Alcotest.string "key" entry.Plancache.key e.Plancache.key;
      check Alcotest.string "artifact" entry.Plancache.artifact e.Plancache.artifact;
      check Alcotest.bool "plan" true (entry.Plancache.plan = e.Plancache.plan);
      check Alcotest.bool "params" true (entry.Plancache.params = e.Plancache.params)

(* A damaged file in the disk store is a miss, whatever the damage: the
   persisted entry cut at every length, and every byte with one bit
   flipped (the low bit, which turns a digit into another digit, and the
   high bit). Each must read back as nothing or as the identical entry,
   never raise and never serve another artifact. A version-1 entry, which
   has no digest, is a miss too. *)
let test_cache_damaged_entry_is_miss () =
  with_temp_dir @@ fun dir ->
  let cold, _ = compile_cached (Plancache.create ~dir ()) Driver.Hecate (fig2 ()) in
  let key = cold.Plancache.key in
  let path = Filename.concat dir (key ^ ".json") in
  let text = Hecate_support.Fileio.read_file ~path in
  let rendered e = Json.render (Plancache.entry_to_json e) in
  let read_back what contents =
    Hecate_support.Fileio.write_atomic ~path contents;
    match Plancache.find (Plancache.create ~dir ()) key with
    | None -> false
    | Some (e, _) ->
        if rendered e <> rendered cold then Alcotest.failf "%s: served a different entry" what;
        true
    | exception exn -> Alcotest.failf "%s: raised %s" what (Printexc.to_string exn)
  in
  check Alcotest.bool "intact file hits" true (read_back "intact" text);
  let n = String.length text in
  for len = 0 to n - 1 do
    (* the trailing newline is not part of the JSON *)
    if read_back (Printf.sprintf "cut at %d" len) (String.sub text 0 len) && len < n - 1 then
      Alcotest.failf "cut at %d of %d bytes still hits" len n
  done;
  List.iter
    (fun bit ->
      for i = 0 to n - 1 do
        let b = Bytes.of_string text in
        Bytes.set b i (Char.chr (Char.code text.[i] lxor bit));
        ignore (read_back (Printf.sprintf "bit %#x of byte %d" bit i) (Bytes.to_string b))
      done)
    [ 0x01; 0x80 ];
  let v1 =
    match Plancache.entry_to_json cold with
    | Json.Obj fields ->
        Json.Obj
          (List.filter_map
             (function
               | "digest", _ -> None
               | "version", _ -> Some ("version", Json.int 1)
               | f -> Some f)
             fields)
    | _ -> assert false
  in
  check Alcotest.bool "version-1 entry misses" false (read_back "version 1" (Json.render v1))

(* ------------------------------------------------------------------ *)
(* Text index: the index path against the parse path                   *)
(* ------------------------------------------------------------------ *)

(* The lowered batch matvec, printed with its provenance comments. *)
let lowered_matvec ?rows ?cols () =
  let m = Hecate_apps.Batch_apps.matvec ?rows ?cols () in
  match Hecate_batch.Lower.lower ~spec:Hecate_batch.Lower.Auto m.Hecate_apps.Batch_apps.surface with
  | Ok l -> Printer.to_string ~provenance:true l.Hecate_batch.Lower.prog
  | Error d -> Alcotest.fail (Hecate_ir.Diagnostic.to_string d)

(* The cold compile's wall clock is the one field two compiles of a key
   need not share. *)
let settled (e : Plancache.entry) = { e with Plancache.compile_seconds = 0. }

let done_line (e, origin) = Protocol.line (Protocol.done_ ~job:1 ~origin ~wall_seconds:1e-3 (settled e))

let replace_all ~sub ~by s = String.concat by (Astring.String.cuts ~sep:sub s)

(* The text with its function and every input renamed. *)
let alpha_variant tag text =
  let prog = Parser.parse text in
  List.fold_left
    (fun s v ->
      match (Prog.op prog v).Prog.kind with
      | Prog.Input { name } -> replace_all ~sub:("\"" ^ name ^ "\"") ~by:("\"" ^ name ^ tag ^ "\"") s
      | _ -> s)
    (replace_all ~sub:("func " ^ prog.Prog.name ^ "(") ~by:("func " ^ prog.Prog.name ^ tag ^ "(") text)
    prog.Prog.inputs

let index_hits cache = (Plancache.snapshot cache).Plancache.s_index_hits

(* Runs (scheme, text) requests through two caches in lockstep: [parse]
   parses each text and compiles the program, as every request did before
   the index; [index] hands the text to [compile_text]. Both see the same
   keys in the same order, so their contents, and the warm starts a cold
   compile takes from them, stay the same. Each request must get the same
   key, entry, origin and rendered done line on both, and an index hit
   exactly when the text was indexed. *)
let lockstep requests =
  let parse = Plancache.create ~capacity:4096 () and index = Plancache.create ~capacity:4096 () in
  let step (scheme, text) =
    let prog = Parser.parse text in
    let key = Plancache.key ~scheme ~sf_bits:28 ~waterline_bits:20. ~max_epochs:100 prog in
    let was_indexed = Plancache.indexed index text and hits = index_hits index in
    let a = compile_cached parse scheme prog in
    let b = Plancache.compile_text index ~scheme ~sf_bits:28 ~waterline_bits:20. text in
    let what = Printf.sprintf "%s %s" (Driver.scheme_name scheme) (Digest.to_hex (Digest.string text)) in
    check Alcotest.string (what ^ ": key") key (fst b).Plancache.key;
    check Alcotest.string (what ^ ": done line") (done_line a) (done_line b);
    check Alcotest.bool (what ^ ": entry") true (settled (fst a) = settled (fst b));
    check Alcotest.int (what ^ ": index hit iff indexed")
      (hits + if was_indexed then 1 else 0)
      (index_hits index);
    check Alcotest.bool (what ^ ": indexed after") true (Plancache.indexed index text);
    check Alcotest.bool (what ^ ": within budget") true
      ((Plancache.snapshot index).Plancache.s_index_bytes <= Plancache.index_budget)
  in
  List.iter step requests;
  let hits = index_hits index in
  List.iter step requests;
  check Alcotest.int "the second pass is all index hits" (hits + List.length requests)
    (index_hits index);
  let counters c =
    let s = Plancache.snapshot c in
    Plancache.[ s.s_hits_memory; s.s_hits_disk; s.s_misses; s.s_joins; s.s_evictions; s.s_entries ]
  in
  check Alcotest.(list int) "same counters" (counters parse) (counters index)

let test_index_gen_programs () =
  lockstep
    (List.init 300 (fun seed ->
         (Driver.Hecate, Printer.to_string (Gen.generate ~seed ()).Gen.prog)))

(* Every reduced- and paper-suite program with two alpha variants, and the
   lowered matvec, under HECATE where its search takes under a tenth of a
   second and under EVA otherwise. The two paper-size texts (9.4 and 8.9
   MB) do not fit the budget together: each runs alone, without variants. *)
let test_index_apps () =
  let module Apps = Hecate_apps.Apps in
  let searched = [ "SF"; "HCD"; "MLP"; "LR E2" ] in
  let requests (a : Apps.t) =
    let scheme = if List.mem a.Apps.name searched then Driver.Hecate else Driver.Eva in
    let text = Printer.to_string a.Apps.prog in
    let variants = [ alpha_variant "_a" text; alpha_variant "_b" text ] in
    List.iter
      (fun v ->
        check Alcotest.bool (a.Apps.name ^ ": a variant, not the text") false (String.equal v text);
        check Alcotest.string (a.Apps.name ^ ": variant fingerprint")
          (Prog.fingerprint a.Apps.prog)
          (Prog.fingerprint (Parser.parse v)))
      variants;
    List.map (fun t -> (scheme, t)) (text :: variants)
  in
  let large, small =
    List.partition
      (fun (a : Apps.t) -> String.length (Printer.to_string a.Apps.prog) > 4 * 1024 * 1024)
      (Apps.reduced_suite () @ Apps.paper_suite ())
  in
  check Alcotest.int "two paper-size programs" 2 (List.length large);
  lockstep ((Driver.Hecate, lowered_matvec ()) :: List.concat_map requests small);
  List.iter (fun (a : Apps.t) -> lockstep [ (Driver.Eva, Printer.to_string a.Apps.prog) ]) large

(* An indexed text whose entry has left memory and disk is compiled again,
   from the text parsed then, into the entry the parse path compiles. *)
let test_index_recompiles () =
  with_temp_dir @@ fun dir ->
  let cache = Plancache.create ~dir ~capacity:1 () in
  let compile text = Plancache.compile_text cache ~scheme:Driver.Hecate ~sf_bits:28 ~waterline_bits:20. text in
  let fig2 = read_file "../examples/fig2.hec" in
  let other = Printer.to_string (Gen.generate ~seed:5 ()).Gen.prog in
  let first, _ = compile fig2 in
  ignore (compile other);
  Sys.remove (Filename.concat dir (first.Plancache.key ^ ".json"));
  let hits = index_hits cache in
  let again, origin = compile fig2 in
  check Alcotest.int "from the index" (hits + 1) (index_hits cache);
  check Alcotest.string "compiled again" "cold" (Plancache.origin_name origin);
  check Alcotest.bool "same entry" true (settled first = settled again);
  let direct, _ = compile_cached (Plancache.create ()) Driver.Hecate (Parser.parse fig2) in
  check Alcotest.bool "the parse path's entry" true (settled direct = settled again)

(* Texts one byte apart: each gets the answer its own parse gets, or the
   same parse error, whatever the index already holds. The two caches see
   the same requests, as in [lockstep]. *)
let prop_index_one_byte_apart =
  let fig2 = lazy (read_file "../examples/fig2.hec") in
  let parse = Plancache.create ~capacity:4096 () and index = Plancache.create ~capacity:4096 () in
  let compile_indexed text =
    Plancache.compile_text index ~scheme:Driver.Eva ~sf_bits:28 ~waterline_bits:20. text
  in
  let mutant =
    let open QCheck.Gen in
    int_bound 10_000 >>= fun i ->
    oneofl [ '0'; '1'; '2'; '4'; '%'; 'a'; 'd'; 'x'; 'y'; ' '; '\n'; '#' ] >|= fun c ->
    let s = Lazy.force fig2 in
    let i = i mod String.length s in
    String.mapi (fun j d -> if j = i then c else d) s
  in
  QCheck.Test.make ~name:"texts one byte apart never share an answer" ~count:400
    (QCheck.make ~print:String.escaped mutant)
    (fun text ->
      let both text = (compile_cached parse Driver.Eva (Parser.parse text), compile_indexed text) in
      let a, b = both (Lazy.force fig2) in
      done_line a = done_line b
      &&
      match Parser.parse text with
      | exception Parser.Parse_error _ -> (
          match compile_indexed text with
          | _ -> false
          | exception Parser.Parse_error _ -> not (Plancache.indexed index text))
      | _ ->
          let a, b = both text in
          let a', b' = both text in
          done_line a = done_line b && done_line a' = done_line b')

(* The index holds at most its budget, the oldest texts leaving first, and
   never holds a text longer than the budget. Texts are fig2 with one long
   comment each: large to index, cheap to parse and compile. *)
let test_index_budget () =
  let cache = Plancache.create () in
  let fig2 = read_file "../examples/fig2.hec" in
  let padded c bytes = fig2 ^ "# " ^ String.make bytes c ^ "\n" in
  let compile text =
    fst (Plancache.compile_text cache ~scheme:Driver.Eva ~sf_bits:28 ~waterline_bits:20. text)
  in
  let bytes () = (Plancache.snapshot cache).Plancache.s_index_bytes in
  let third = (Plancache.index_budget / 3) - 1024 in
  let texts = List.map (fun c -> padded c third) [ 'a'; 'b'; 'c'; 'd' ] in
  let answer = compile fig2 in
  List.iter
    (fun t ->
      check Alcotest.string "same answer" answer.Plancache.artifact (compile t).Plancache.artifact;
      check Alcotest.bool "within budget" true (bytes () <= Plancache.index_budget))
    texts;
  check Alcotest.(list bool) "oldest first" [ false; false; true; true; true ]
    (List.map (Plancache.indexed cache) (fig2 :: texts));
  let before = bytes () and hits = index_hits cache in
  let huge = padded 'e' Plancache.index_budget in
  ignore (compile huge);
  ignore (compile huge);
  check Alcotest.bool "over the budget: not indexed" false (Plancache.indexed cache huge);
  check Alcotest.int "nothing evicted for it" before (bytes ());
  check Alcotest.int "no index hit" hits (index_hits cache)

(* Several domains request one text at once: one cold compile, the rest
   hit or join it, and the text is indexed once. *)
let test_index_concurrent () =
  let cache = Plancache.create () in
  let text = read_file "../examples/fig2.hec" in
  let ready = Atomic.make 0 and n = 4 in
  let request () =
    Atomic.incr ready;
    while Atomic.get ready < n do
      Domain.cpu_relax ()
    done;
    Plancache.compile_text cache ~scheme:Driver.Hecate ~sf_bits:28 ~waterline_bits:20. text
  in
  let results = List.map Domain.join (List.init n (fun _ -> Domain.spawn request)) in
  let direct, _ = compile_cached (Plancache.create ()) Driver.Hecate (Parser.parse text) in
  List.iter
    (fun (e, _) ->
      check Alcotest.string "key" direct.Plancache.key e.Plancache.key;
      check Alcotest.string "artifact" direct.Plancache.artifact e.Plancache.artifact)
    results;
  let s = Plancache.snapshot cache in
  check Alcotest.int "one cold compile" 1 s.Plancache.s_misses;
  check Alcotest.int "the rest hit or joined" (n - 1) (s.Plancache.s_hits_memory + s.Plancache.s_joins);
  check Alcotest.bool "indexed once" true
    (s.Plancache.s_index_bytes > String.length text
    && s.Plancache.s_index_bytes < 2 * String.length text);
  ignore (Plancache.compile_text cache ~scheme:Driver.Hecate ~sf_bits:28 ~waterline_bits:20. text);
  check Alcotest.int "then an index hit" (s.Plancache.s_index_hits + 1) (index_hits cache)

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let test_protocol_request_roundtrip () =
  let reqs =
    [
      Protocol.Submit
        {
          Protocol.program = "func f(%0 \"x\")\n";
          scheme = Driver.Smse;
          sf_bits = 30;
          waterline_bits = 22.;
          max_epochs = 40;
          budget_seconds = Some 1.5;
          strategy = Some "portfolio";
          stream = true;
        };
      Protocol.Submit
        {
          Protocol.program = "func g(%0 \"y\")\n";
          scheme = Driver.Hecate;
          sf_bits = 28;
          waterline_bits = 20.;
          max_epochs = 100;
          budget_seconds = None;
          strategy = None;
          stream = false;
        };
      Protocol.Status 7;
      Protocol.Cancel 9;
      Protocol.Stats;
      Protocol.Shutdown;
    ]
  in
  List.iter
    (fun r ->
      match Protocol.parse_request (Protocol.render_request r) with
      | Ok r' -> check Alcotest.bool "roundtrips" true (r = r')
      | Error msg -> Alcotest.fail msg)
    reqs

let test_protocol_request_errors () =
  let err line =
    match Protocol.parse_request line with Error _ -> true | Ok _ -> false
  in
  check Alcotest.bool "garbage" true (err "not json");
  check Alcotest.bool "missing op" true (err {|{"program":"x"}|});
  check Alcotest.bool "unknown op" true (err {|{"op":"frobnicate"}|});
  check Alcotest.bool "bad scheme" true (err {|{"op":"submit","program":"x","scheme":"rsa"}|});
  check Alcotest.bool "missing job id" true (err {|{"op":"cancel"}|})

let test_protocol_done_event () =
  let seed_cache = Plancache.create () in
  let entry, _ = compile_cached seed_cache Driver.Hecate (fig2 ()) in
  let line = Protocol.line (Protocol.done_ ~job:3 ~origin:Plancache.Memory ~wall_seconds:0.25 entry) in
  match Protocol.parse_event line with
  | Ok (Protocol.Done r) ->
      check Alcotest.int "job" 3 r.Protocol.job;
      check Alcotest.string "origin" "memory" r.Protocol.origin;
      check Alcotest.string "artifact" entry.Plancache.artifact r.Protocol.artifact;
      check Alcotest.string "fingerprint" entry.Plancache.fingerprint r.Protocol.fingerprint;
      check (Alcotest.float 1e-9) "wall" 0.25 r.Protocol.wall_seconds;
      check Alcotest.int "ring degree" entry.Plancache.params.Hecate.Paramselect.secure_n
        r.Protocol.secure_n
  | Ok _ -> Alcotest.fail "decoded as a different event"
  | Error msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* End-to-end daemon session                                           *)
(* ------------------------------------------------------------------ *)

let submit_text ?budget_seconds ?(scheme = Driver.Hecate) program =
  {
    Protocol.program;
    scheme;
    sf_bits = 28;
    waterline_bits = 20.;
    max_epochs = 100;
    budget_seconds;
    strategy = None;
    stream = false;
  }

let submit_fig2 ?budget_seconds ?scheme () =
  submit_text ?budget_seconds ?scheme (read_file "../examples/fig2.hec")

(* A live server on a temporary socket, over [cache]. After it has
   drained, no connection thread may still be waiting for a connection. *)
let serving ?(oracle = false) ?(cache = Plancache.create ()) f =
  with_temp_dir @@ fun dir ->
  let sock = Filename.concat dir "hecated.sock" in
  let server = Server.create ~workers:2 ~oracle cache in
  let th = Thread.create (fun () -> Server.serve server ~socket_path:sock) () in
  let rec await n =
    if Sys.file_exists sock then ()
    else if n = 0 then Alcotest.fail "server socket never appeared"
    else begin
      Thread.delay 0.01;
      await (n - 1)
    end
  in
  await 500;
  let r =
    Fun.protect
      ~finally:(fun () ->
        ignore (Client.shutdown ~socket:sock);
        Thread.join th)
      (fun () -> f server sock)
  in
  check Alcotest.int "no connection thread waits after drain" 0
    (Server.idle_connection_threads server);
  r

let with_server ?oracle f = serving ?oracle (fun _ sock -> f sock)

let test_server_end_to_end () =
  with_server @@ fun sock ->
  let get label = function
    | Ok o -> o
    | Error msg -> Alcotest.fail (label ^ ": " ^ msg)
  in
  let cold = get "cold" (Client.compile ~socket:sock (submit_fig2 ())) in
  let warm = get "warm" (Client.compile ~socket:sock (submit_fig2 ())) in
  check Alcotest.string "cold origin" "cold" cold.Client.result.Protocol.origin;
  check Alcotest.string "warm origin" "memory" warm.Client.result.Protocol.origin;
  check Alcotest.string "artifacts identical"
    cold.Client.result.Protocol.artifact warm.Client.result.Protocol.artifact;
  check Alcotest.bool "artifact non-empty" true
    (String.length cold.Client.result.Protocol.artifact > 0);
  (* a parse error must come back as a rendered diagnostic, not kill the
     session *)
  (match
     Client.compile ~socket:sock
       { (submit_fig2 ()) with Protocol.program = "this is not a program" }
   with
  | Error msg ->
      check Alcotest.bool ("parse-error diagnostic: " ^ msg) true
        (Astring.String.is_prefix ~affix:"error[parse-error]: line 1: " msg);
      check Alcotest.bool ("with its hint: " ^ msg) true
        (Astring.String.is_infix ~affix:"\n  hint: see docs/ARCHITECTURE.md" msg)
  | Ok _ -> Alcotest.fail "malformed program should fail");
  match Client.stats ~socket:sock with
  | Error msg -> Alcotest.fail msg
  | Ok json ->
      let cache_hits =
        Option.value ~default:(-1)
          (Json.to_int (Json.member "hits_memory" (Json.member "cache" json)))
      in
      check Alcotest.bool "stats report the hit" true (cache_hits >= 1)

let test_server_oracle_portfolio () =
  (* The daemon with --oracle serves a streamed portfolio job: progress
     events carry per-strategy tags, the winner is recorded, and the
     result entered the cache only because it survived the gate. *)
  with_server ~oracle:true @@ fun sock ->
  let seen = Hashtbl.create 8 in
  let on_progress ~strategy ~epoch:_ ~best_cost:_ = Hashtbl.replace seen strategy () in
  let submit =
    { (submit_fig2 ()) with Protocol.strategy = Some "portfolio"; stream = true }
  in
  match Client.compile ~socket:sock ~on_progress submit with
  | Error msg -> Alcotest.fail msg
  | Ok o ->
      check Alcotest.string "gated compile is cold" "cold" o.Client.result.Protocol.origin;
      check Alcotest.bool "winner strategy recorded" true
        (o.Client.result.Protocol.winner_strategy <> "");
      check Alcotest.bool "progress events tagged by strategy" true
        (Hashtbl.length seen >= 2);
      (match Client.compile ~socket:sock submit with
      | Error msg -> Alcotest.fail msg
      | Ok warm ->
          check Alcotest.string "gated result was cached" "memory"
            warm.Client.result.Protocol.origin;
          check Alcotest.string "byte-identical artifact"
            o.Client.result.Protocol.artifact warm.Client.result.Protocol.artifact)

let test_server_budget_is_transient () =
  with_server @@ fun sock ->
  (* a hopeless budget: the exploring scheme is cancelled before any work *)
  (match Client.compile ~socket:sock (submit_fig2 ~budget_seconds:(-1.0) ()) with
  | Error _ -> ()
  | Ok o ->
      (* anytime semantics may still return a best-so-far result; it must
         not have been cached as the full-budget answer *)
      check Alcotest.string "truncated result is not a hit" "cold"
        o.Client.result.Protocol.origin);
  match Client.compile ~socket:sock (submit_fig2 ()) with
  | Error msg -> Alcotest.fail msg
  | Ok o ->
      check Alcotest.string "full compile is still cold" "cold"
        o.Client.result.Protocol.origin

(* One raw request on a fresh connection, answered by one event. *)
let request sock req =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX sock);
      let oc = Unix.out_channel_of_descr fd in
      output_string oc (Protocol.render_request req ^ "\n");
      flush oc;
      match Protocol.parse_event (input_line (Unix.in_channel_of_descr fd)) with
      | Ok ev -> ev
      | Error msg -> Alcotest.fail msg)

let test_server_finished_jobs_answer () =
  (* Finished jobs leave the server's live table but keep answering
     status and cancel, and no longer count as queued or running. *)
  with_server @@ fun sock ->
  let n = 6 in
  let first =
    List.init n (fun i ->
        let scheme = if i mod 2 = 0 then Driver.Eva else Driver.Hecate in
        match Client.compile ~socket:sock (submit_fig2 ~scheme ()) with
        | Ok o -> o.Client.result.Protocol.job
        | Error msg -> Alcotest.fail msg)
    |> List.hd
  in
  (match Client.stats ~socket:sock with
  | Error msg -> Alcotest.fail msg
  | Ok json ->
      let jobs field =
        Option.value ~default:(-1) (Json.to_int (Json.member field (Json.member "jobs" json)))
      in
      check Alcotest.int "submitted" n (jobs "submitted");
      check Alcotest.int "completed" n (jobs "completed");
      check Alcotest.int "none queued" 0 (jobs "queued");
      check Alcotest.int "none running" 0 (jobs "running"));
  (match request sock (Protocol.Status first) with
  | Protocol.Status { job; state } ->
      check Alcotest.int "status names the job" first job;
      check Alcotest.string "first job still done" "done" state
  | _ -> Alcotest.fail "expected a status event");
  (match request sock (Protocol.Cancel first) with
  | Protocol.Status { state; _ } ->
      check Alcotest.string "cancel on a finished job" "cancelling" state
  | _ -> Alcotest.fail "expected a status event");
  match request sock (Protocol.Status 1000) with
  | Protocol.Error _ -> ()
  | _ -> Alcotest.fail "an unknown job must be an error"

let test_server_bounds_request_lines () =
  (* a line one byte over the bound, with no newline: the daemon answers
     with a diagnostic, closes the connection, and keeps serving others *)
  with_server @@ fun sock ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX sock);
      let chunk = Bytes.make 65536 'x' in
      let rec send left =
        if left > 0 then
          let n = Unix.write fd chunk 0 (min left (Bytes.length chunk)) in
          send (left - n)
      in
      (try send (Server.max_request_bytes + 1) with Unix.Unix_error _ -> ());
      let ic = Unix.in_channel_of_descr fd in
      (match Protocol.parse_event (input_line ic) with
      | Ok (Protocol.Error { message; _ }) ->
          check Alcotest.bool ("diagnostic: " ^ message) true
            (Astring.String.is_prefix ~affix:"error[parse-error]: request line longer than" message)
      | Ok _ -> Alcotest.fail "expected an error event"
      | Error msg -> Alcotest.fail msg);
      match input_line ic with
      | exception End_of_file -> ()
      | line -> Alcotest.fail ("the connection stayed open: " ^ line));
  match Client.stats ~socket:sock with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("the daemon stopped answering: " ^ msg)

let test_server_finished_window () =
  (* More jobs than the window: the oldest ids answer that they finished
     and are no longer tracked, the newest still answer their state, and
     an id never handed out stays unknown. The window keeps the jobs that
     finished last, so the first two jobs are finished before the rest are
     submitted; two workers could otherwise finish job 2 after job 3. The
     rest are written from a thread of their own, so the replies cannot
     stall them. *)
  with_server @@ fun sock ->
  let total = Server.finished_window + 2 in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX sock);
      let line = Protocol.render_request (Protocol.Submit (submit_fig2 ())) ^ "\n" in
      let oc = Unix.out_channel_of_descr fd in
      let submit n =
        for _ = 1 to n do
          output_string oc line
        done;
        flush oc
      in
      let ic = Unix.in_channel_of_descr fd in
      let rec await n dones last =
        if dones = n then last
        else
          match Protocol.parse_event (input_line ic) with
          | Ok (Protocol.Done r) -> await n (dones + 1) (max last r.Protocol.job)
          | Ok (Protocol.Error { message; _ }) -> Alcotest.fail message
          | Ok _ -> await n dones last
          | Error msg -> Alcotest.fail msg
      in
      submit 2;
      check Alcotest.int "first two finished" 2 (await 2 0 0);
      let writer = Thread.create submit (total - 2) in
      let last = await (total - 2) 0 0 in
      Thread.join writer;
      check Alcotest.int "ids are dense" total last;
      let untracked what req =
        match request sock req with
        | Protocol.Error { message; _ } ->
            check Alcotest.bool (what ^ ": " ^ message) true
              (Astring.String.is_infix ~affix:"finished and is no longer tracked" message)
        | _ -> Alcotest.fail (what ^ ": expected an error event")
      in
      untracked "status of the first job" (Protocol.Status 1);
      untracked "cancel of the second job" (Protocol.Cancel 2);
      (match request sock (Protocol.Status (total - Server.finished_window + 1)) with
      | Protocol.Status { state; _ } -> check Alcotest.string "oldest in the window" "done" state
      | _ -> Alcotest.fail "expected a status event");
      match request sock (Protocol.Status (total + 1000)) with
      | Protocol.Error { message; _ } ->
          check Alcotest.bool ("never handed out: " ^ message) true
            (Astring.String.is_prefix ~affix:"unknown job" message)
      | _ -> Alcotest.fail "an unknown job must be an error")

(* ------------------------------------------------------------------ *)
(* Answers on the connection's thread                                  *)
(* ------------------------------------------------------------------ *)

(* Polls [ready] for up to ten seconds. *)
let await what ready =
  let rec go n =
    if not (ready ()) then
      if n = 0 then Alcotest.fail ("timed out waiting: " ^ what)
      else begin
        Thread.delay 0.005;
        go (n - 1)
      end
  in
  go 2000

(* Takes the single flight of [text]'s key in [cache] and holds it until
   the returned function is called, which lands [entry] (the answer for
   that key) and stores it. The server's requests for the key meanwhile
   join the flight: they are neither memory hits nor compiled, and they
   keep the workers that took them busy. *)
let hold_flight cache ~scheme text entry =
  let key = Plancache.key ~scheme ~sf_bits:28 ~waterline_bits:20. ~max_epochs:100 (Parser.parse text) in
  let misses () = (Plancache.snapshot cache).Plancache.s_misses in
  let before = misses () and released = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        ignore
          (Plancache.find_or_compute cache key ~compute:(fun () ->
               while not (Atomic.get released) do
                 Thread.delay 0.001
               done;
               (entry, true))))
      ()
  in
  await "the held flight" (fun () -> misses () = before + 1);
  fun () -> if not (Atomic.exchange released true) then Thread.join th

(* [f release] with the flight held as by [hold_flight], released at the
   latest when [f] returns or fails: a server cannot drain while its
   workers wait for the flight. *)
let holding_flight cache ~scheme text entry f =
  let release = hold_flight cache ~scheme text entry in
  Fun.protect ~finally:release (fun () -> f release)

let joins cache = (Plancache.snapshot cache).Plancache.s_joins

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let send_request oc req =
  output_string oc (Protocol.render_request req ^ "\n");
  flush oc

let event line =
  match Protocol.parse_event line with Ok ev -> ev | Error msg -> Alcotest.fail msg

(* Submits on a fresh connection; the lines up to the job's last one. *)
let submit_lines sock submit =
  let fd, ic, oc = connect sock in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      send_request oc (Protocol.Submit submit);
      let rec go acc =
        let line = input_line ic in
        match event line with
        | Protocol.Accepted _ | Protocol.Progress _ -> go (line :: acc)
        | _ -> List.rev (line :: acc)
      in
      go [])

let stats_of sock =
  match Client.stats ~socket:sock with Ok json -> json | Error msg -> Alcotest.fail msg

let stat json group field =
  Option.value ~default:(-1) (Json.to_int (Json.member field (Json.member group json)))

(* A done line with the named fields zeroed. *)
let zeroed fields line =
  match Json.parse line with
  | Json.Obj kvs ->
      Json.render
        (Json.Obj (List.map (fun (k, v) -> if List.mem k fields then (k, Json.Num 0.) else (k, v)) kvs))
  | _ -> line

(* A fixed mix of requests, one at a time, against a server whose cache
   keeps two entries in memory and the rest on disk: memory hits by the
   text and by an alpha variant, texts seen for the first time, misses,
   disk hits after eviction, two joins, a parse error, and [status] and
   [cancel] of ids answered inline. Every answer must be [accepted] then
   the line [Plancache.compile_text] on a separate cache of the same
   shape gives, but for [wall_seconds] (and the cold compile's own
   [compile_seconds]); every answer for one key must carry that key's
   stored entry; and [stats] must report the counters the server reported
   before memory hits were answered on the connection's thread. *)
let test_server_inline_differential () =
  with_temp_dir @@ fun server_dir ->
  with_temp_dir @@ fun reference_dir ->
  let cache = Plancache.create ~dir:server_dir ~capacity:2 () in
  let reference = Plancache.create ~dir:reference_dir ~capacity:2 () in
  serving ~cache @@ fun _ sock ->
  let fig2 = read_file "../examples/fig2.hec" in
  let fig2' = alpha_variant "_v" fig2 in
  let gen seed = Printer.to_string (Gen.generate ~seed ()).Gen.prog in
  let g1 = gen 11 and g2 = gen 12 and g3 = gen 13 in
  let g3' = alpha_variant "_v" g3 in
  let compile text =
    Plancache.compile_text reference ~scheme:Driver.Hecate ~sf_bits:28 ~waterline_bits:20. text
  in
  let stored = Hashtbl.create 8 in
  (* checks one answer against the reference; returns its job id *)
  let answered what lines (entry, origin) =
    match List.map event lines, lines with
    | [ Protocol.Accepted id; Protocol.Done r ], [ _; line ] ->
        check Alcotest.int (what ^ ": accepted names the job") id r.Protocol.job;
        check Alcotest.string (what ^ ": done line")
          (zeroed [ "wall_seconds"; "compile_seconds" ]
             (Protocol.line (Protocol.done_ ~job:id ~origin ~wall_seconds:0. entry)))
          (zeroed [ "wall_seconds"; "compile_seconds" ] line);
        (match Hashtbl.find_opt stored r.Protocol.fingerprint with
        | None -> Hashtbl.replace stored r.Protocol.fingerprint (zeroed [ "wall_seconds"; "job"; "origin" ] line)
        | Some first ->
            check Alcotest.string (what ^ ": the key's stored entry") first
              (zeroed [ "wall_seconds"; "job"; "origin" ] line));
        id
    | _ -> Alcotest.failf "%s: expected accepted then done, got %s" what (String.concat " | " lines)
  in
  let ask what text = answered what (submit_lines sock (submit_text text)) (compile text) in
  let cold = ask "fig2, cold" fig2 in
  let hit = ask "fig2, memory hit" fig2 in
  let variant = ask "alpha variant, first seen" fig2' in
  ignore (ask "alpha variant, memory hit" fig2');
  (match submit_lines sock (submit_text "this is not a program") with
  | [ line ] ->
      let expected =
        match
          Driver.diagnose (fun () ->
              Plancache.compile_text reference ~scheme:Driver.Hecate ~sf_bits:28
                ~waterline_bits:20. "this is not a program")
        with
        | Error d -> Protocol.line (Protocol.error (Format.asprintf "%a" Hecate_ir.Diagnostic.pp d))
        | Ok _ -> Alcotest.fail "the reference parsed a non-program"
      in
      check Alcotest.string "parse error" expected line
  | lines -> Alcotest.failf "parse error: got %s" (String.concat " | " lines));
  ignore (ask "g1, cold" g1);
  ignore (ask "g2, cold, evicts fig2" g2);
  let disk = ask "fig2, disk" fig2 in
  ignore (ask "g1, disk" g1);
  (* g3 and its variant join a flight the test holds *)
  let g3_entry, _ = compile g3 in
  holding_flight cache ~scheme:Driver.Hecate g3 g3_entry (fun release ->
  let before = joins cache in
  let joiners =
    List.map
      (fun text ->
        let lines = ref [] in
        (text, lines, Thread.create (fun () -> lines := submit_lines sock (submit_text text)) ()))
      [ g3; g3' ]
  in
  await "two joins" (fun () -> joins cache = before + 2);
  release ();
  List.iter
    (fun (text, lines, th) ->
      Thread.join th;
      ignore (answered "joined" !lines (g3_entry, Plancache.Joined));
      check Alcotest.bool "joined text" true (text = g3 || text = g3'))
    joiners);
  ignore (ask "g3, memory hit" g3);
  let state id =
    match request sock (Protocol.Status id) with
    | Protocol.Status { state; _ } -> state
    | _ -> Alcotest.fail "expected a status event"
  in
  check Alcotest.string "status of an inline hit" "done" (state hit);
  check Alcotest.string "status of a cold job" "done" (state cold);
  check Alcotest.string "status of a disk hit" "done" (state disk);
  (match request sock (Protocol.Cancel variant) with
  | Protocol.Status { state; _ } -> check Alcotest.string "cancel of an inline hit" "cancelling" state
  | _ -> Alcotest.fail "expected a status event");
  let json = stats_of sock in
  let index_bytes =
    List.fold_left
      (fun acc text -> acc + String.length text + String.length (Prog.fingerprint (Parser.parse text)) + 64)
      0 [ fig2; fig2'; g1; g2; g3; g3' ]
  in
  check
    Alcotest.(list (pair string int))
    "counters"
    [
      ("submitted", 11); ("queued", 0); ("running", 0); ("completed", 11); ("failed", 0);
      ("cancelled", 0); ("hits_memory", 4); ("hits_disk", 2); ("misses", 4); ("joins", 2);
      ("evictions", 4); ("entries", 2); ("index_hits", 5); ("index_bytes", index_bytes);
    ]
    (List.map (fun f -> (f, stat json "jobs" f))
       [ "submitted"; "queued"; "running"; "completed"; "failed"; "cancelled" ]
    @ List.map (fun f -> (f, stat json "cache" f))
        [ "hits_memory"; "hits_disk"; "misses"; "joins"; "evictions"; "entries"; "index_hits"; "index_bytes" ])

(* Two raw-socket clients pipeline 1,000 requests each, memory hits and
   misses mixed; every job's [accepted] must precede its [done]. *)
let test_server_accepted_before_done () =
  with_server @@ fun sock ->
  let fig2 = read_file "../examples/fig2.hec" in
  ignore (submit_lines sock (submit_text fig2));
  let variant = alpha_variant "_v" fig2 in
  let failures = ref [] and lock = Mutex.create () in
  let fail msg =
    Mutex.lock lock;
    failures := msg :: !failures;
    Mutex.unlock lock
  in
  let client cid () =
    let fd, ic, oc = connect sock in
    let n = 1000 in
    let writer =
      Thread.create
        (fun () ->
          for i = 0 to n - 1 do
            let program =
              if i mod 10 = 0 then Printer.to_string (Gen.generate ~seed:((cid * n) + i) ()).Gen.prog
              else if i mod 10 = 5 then variant
              else fig2
            in
            let scheme = if i mod 10 = 0 then Driver.Eva else Driver.Hecate in
            output_string oc (Protocol.render_request (Protocol.Submit (submit_text ~scheme program)) ^ "\n")
          done;
          flush oc)
        ()
    in
    let accepted = Hashtbl.create n in
    let rec read finished =
      if finished < n then
        match event (input_line ic) with
        | Protocol.Accepted id ->
            Hashtbl.replace accepted id ();
            read finished
        | Protocol.Done r ->
            if not (Hashtbl.mem accepted r.Protocol.job) then
              fail (Printf.sprintf "client %d: job %d done before accepted" cid r.Protocol.job);
            read (finished + 1)
        | Protocol.Error { message; _ } ->
            fail (Printf.sprintf "client %d: %s" cid message);
            read (finished + 1)
        | _ -> read finished
    in
    (try read 0 with e -> fail (Printexc.to_string e));
    Thread.join writer;
    Unix.close fd
  in
  List.iter Thread.join (List.init 2 (fun cid -> Thread.create (client cid) ()));
  check Alcotest.(list string) "accepted precedes done" [] !failures

(* Past [max_queued_jobs] queued jobs a submission is refused with an
   error naming the cap, and nothing is queued; a memory hit is answered
   all the same. The workers are kept busy by requests that join a
   flight the test holds. *)
let test_server_queue_cap () =
  let cache = Plancache.create () in
  serving ~cache @@ fun _ sock ->
  let fig2 = read_file "../examples/fig2.hec" in
  ignore (submit_lines sock (submit_text fig2));
  let text = Printer.to_string (Gen.generate ~seed:21 ()).Gen.prog in
  let entry, _ =
    Plancache.compile_text (Plancache.create ()) ~scheme:Driver.Eva ~sf_bits:28 ~waterline_bits:20. text
  in
  holding_flight cache ~scheme:Driver.Eva text entry (fun release ->
  let before = joins cache in
  let busy =
    List.init 2 (fun _ -> Thread.create (fun () -> ignore (submit_lines sock (submit_text ~scheme:Driver.Eva text))) ())
  in
  await "both workers joined" (fun () -> joins cache = before + 2);
  let fd, ic, oc = connect sock in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let cap = Server.max_queued_jobs in
      for _ = 0 to cap do
        send_request oc (Protocol.Submit (submit_text ~scheme:Driver.Eva text))
      done;
      send_request oc (Protocol.Submit (submit_text fig2));
      for i = 1 to cap do
        match event (input_line ic) with
        | Protocol.Accepted _ -> ()
        | _ -> Alcotest.failf "submission %d: expected accepted" i
      done;
      (match event (input_line ic) with
      | Protocol.Error { job = None; message } ->
          check Alcotest.bool ("names the cap: " ^ message) true
            (Astring.String.is_infix ~affix:(Printf.sprintf "%d jobs queued" cap) message)
      | _ -> Alcotest.fail "the submission past the cap: expected an error");
      let accepted = input_line ic in
      (match List.map event [ accepted; input_line ic ] with
      | [ Protocol.Accepted id; Protocol.Done r ] ->
          check Alcotest.int "the hit's job" id r.Protocol.job;
          check Alcotest.string "a memory hit past the cap" "memory" r.Protocol.origin
      | _ -> Alcotest.fail "the memory hit: expected accepted then done");
      let json = stats_of sock in
      check Alcotest.int "queued: the cap, not one more" cap (stat json "jobs" "queued");
      release ();
      List.iter Thread.join busy;
      for _ = 1 to cap do
        match event (input_line ic) with
        | Protocol.Done _ -> ()
        | _ -> Alcotest.fail "expected the queued jobs' done"
      done));
  let json = stats_of sock in
  check Alcotest.int "nothing queued" 0 (stat json "jobs" "queued");
  check Alcotest.int "submitted" (Server.max_queued_jobs + 4) (stat json "jobs" "submitted")

(* No job queued or running, once the server has settled. *)
let await_idle sock =
  await "no job queued or running" (fun () ->
      let json = stats_of sock in
      stat json "jobs" "queued" = 0 && stat json "jobs" "running" = 0)

(* Clients that close right after [accepted] of an MLP memory hit, whose
   [done] is a large write to a closed socket: the server keeps answering,
   leaves no job behind, and reuses the connection threads. *)
let test_server_client_closes_after_accepted () =
  serving @@ fun server sock ->
  let mlp =
    Printer.to_string
      (List.find (fun (a : Hecate_apps.Apps.t) -> a.Hecate_apps.Apps.name = "MLP")
         (Hecate_apps.Apps.reduced_suite ()))
        .Hecate_apps.Apps.prog
  in
  let submit = submit_text ~scheme:Driver.Eva mlp in
  (match submit_lines sock submit with
  | [ _; line ] -> check Alcotest.bool "compiled" true (Astring.String.is_infix ~affix:"\"cold\"" line)
  | _ -> Alcotest.fail "the MLP compile");
  for _ = 1 to 20 do
    let fd, ic, oc = connect sock in
    send_request oc (Protocol.Submit submit);
    (match event (input_line ic) with
    | Protocol.Accepted _ -> ()
    | _ -> Alcotest.fail "expected accepted");
    Unix.close fd
  done;
  await_idle sock;
  let json = stats_of sock in
  check Alcotest.int "every hit completed" 21 (stat json "jobs" "completed");
  (match Client.compile ~socket:sock (submit_fig2 ()) with
  | Ok o -> check Alcotest.string "still answering" "cold" o.Client.result.Protocol.origin
  | Error msg -> Alcotest.fail msg);
  await "a connection thread waits for the next connection" (fun () ->
      Server.idle_connection_threads server >= 1)

(* A client that disconnects with a miss still queued: the job is
   cancelled rather than compiled, nothing stays queued or running, and
   the server keeps answering. *)
let test_server_client_leaves_queued_miss () =
  let cache = Plancache.create () in
  serving ~cache @@ fun _ sock ->
  let held = Printer.to_string (Gen.generate ~seed:31 ()).Gen.prog in
  let entry, _ =
    Plancache.compile_text (Plancache.create ()) ~scheme:Driver.Eva ~sf_bits:28 ~waterline_bits:20. held
  in
  holding_flight cache ~scheme:Driver.Eva held entry (fun release ->
  let before = joins cache in
  let busy =
    List.init 2 (fun _ -> Thread.create (fun () -> ignore (submit_lines sock (submit_text ~scheme:Driver.Eva held))) ())
  in
  await "both workers joined" (fun () -> joins cache = before + 2);
  let fd, ic, oc = connect sock in
  send_request oc (Protocol.Submit (submit_text ~scheme:Driver.Eva (Printer.to_string (Gen.generate ~seed:32 ()).Gen.prog)));
  (match event (input_line ic) with
  | Protocol.Accepted _ -> ()
  | _ -> Alcotest.fail "expected accepted");
  Unix.close fd;
  release ();
  List.iter Thread.join busy);
  await_idle sock;
  let json = stats_of sock in
  check Alcotest.int "the queued miss was cancelled" 1 (stat json "jobs" "cancelled");
  check Alcotest.int "and not compiled" 1 (stat json "cache" "misses");
  match Client.compile ~socket:sock (submit_fig2 ()) with
  | Ok o -> check Alcotest.string "still answering" "cold" o.Client.result.Protocol.origin
  | Error msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* Byte mutations of valid inputs                                      *)
(* ------------------------------------------------------------------ *)

(* Valid request lines and .hec texts: fig2, Gen programs, and the lowered
   matvec printed with its provenance comments. *)
let mutation_seeds =
  lazy
    (let fig2_text = (submit_fig2 ()).Protocol.program in
     let gen seed = Printer.to_string (Gen.generate ~seed ()).Gen.prog in
     let texts = [ fig2_text; gen 3; gen 17; lowered_matvec ~rows:2 ~cols:2 () ] in
     let requests =
       List.map
         (fun program ->
           Protocol.render_request (Protocol.Submit { (submit_fig2 ()) with Protocol.program }))
         texts
       @ List.map Protocol.render_request
           [ Protocol.Status 12; Protocol.Cancel 3; Protocol.Stats; Protocol.Shutdown ]
     in
     Array.of_list (texts @ requests))

(* One to four edits: a flipped bit, an overwritten byte, a deleted span,
   inserted bytes or a truncation, with the bytes drawn toward the ones
   the readers branch on. *)
let mutated seeds =
  let open QCheck.Gen in
  let byte =
    frequency
      [
        (3, char);
        ( 2,
          oneofl
            [ '"'; '\\'; '%'; '{'; '}'; '['; ']'; ','; ':'; '='; '\n'; '#'; '!'; '0'; '9'; '-';
              '+'; '.'; 'p'; 'x'; 'e'; 'u'; ' ' ] );
      ]
  in
  let edit s =
    let n = String.length s in
    if n = 0 then map (String.make 1) byte
    else
      frequency
        [
          ( 2,
            map2
              (fun i bit ->
                Bytes.to_string
                  (let b = Bytes.of_string s in
                   Bytes.set b i (Char.chr (Char.code s.[i] lxor (1 lsl bit)));
                   b))
              (int_bound (n - 1)) (int_bound 7) );
          ( 2,
            map2
              (fun i c -> String.mapi (fun j d -> if j = i then c else d) s)
              (int_bound (n - 1)) byte );
          ( 2,
            map2
              (fun i len -> String.sub s 0 i ^ String.sub s (min n (i + len)) (n - min n (i + len)))
              (int_bound (n - 1)) (int_range 1 8) );
          ( 2,
            map2
              (fun i ins -> String.sub s 0 i ^ ins ^ String.sub s i (n - i))
              (int_bound n)
              (string_size ~gen:byte (int_range 1 4)) );
          (1, map (fun i -> String.sub s 0 i) (int_bound n));
        ]
  in
  let rec edits k s = if k = 0 then return s else edit s >>= edits (k - 1) in
  int_bound (Array.length (Lazy.force seeds) - 1) >>= fun i ->
  int_range 1 4 >>= fun k -> edits k (Lazy.force seeds).(i)

let prop_mutated_inputs_fail_cleanly =
  QCheck.Test.make ~name:"mutated inputs end in a value or a parse error" ~count:3000
    (QCheck.make ~print:String.escaped (mutated mutation_seeds))
    (fun text ->
      let protocol =
        match Protocol.parse_request text with
        | Ok (Protocol.Submit s) -> (
            match Parser.parse s.Protocol.program with
            | _ -> true
            | exception Parser.Parse_error _ -> true)
        | Ok _ | Error _ -> true
      in
      let json = match Json.parse text with _ -> true | exception Json.Parse_error _ -> true in
      let ir = match Parser.parse text with _ -> true | exception Parser.Parse_error _ -> true in
      protocol && json && ir)

(* The server decodes a request line where it was read, among the bytes
   around it: the same request as the line alone, or the same error at the
   same offset. *)
let prop_request_in_place =
  QCheck.Test.make ~name:"a request decoded in place reads as the line alone" ~count:1000
    (QCheck.make ~print:QCheck.Print.(triple String.escaped String.escaped String.escaped)
       QCheck.Gen.(
         triple (mutated mutation_seeds) (string_size (int_bound 8)) (string_size (int_bound 8))))
    (fun (line, before, after) ->
      compare
        (Protocol.parse_request ~pos:(String.length before) ~len:(String.length line)
           (before ^ line ^ after))
        (Protocol.parse_request line)
      = 0)

(* .bhec texts: examples/matvec.bhec and the printed matvec surface. *)
let bhec_seeds =
  lazy
    [|
      read_file "../examples/matvec.bhec";
      Hecate_batch.Surface.to_string (Hecate_apps.Batch_apps.matvec ()).Hecate_apps.Batch_apps.surface;
    |]

let prop_mutated_bhec_fail_cleanly =
  QCheck.Test.make ~name:"mutated .bhec texts parse or fail, then lower or diagnose" ~count:3000
    (QCheck.make ~print:String.escaped (mutated bhec_seeds))
    (fun text ->
      match Hecate_batch.Surface.parse text with
      | exception Parser.Parse_error _ -> true
      | surface -> (
          match Hecate_batch.Lower.lower ~spec:Hecate_batch.Lower.Auto surface with
          | Ok _ | Error _ -> true))

let test_overlong_value_id () =
  match Parser.parse "func f(%0: cipher \"x\") slots=4 {\n  return %99999999999999999999\n}\n" with
  | _ -> Alcotest.fail "parsed an out-of-range value id"
  | exception Parser.Parse_error { line; message } ->
      check Alcotest.int "line" 2 line;
      check Alcotest.string "message" "value id %99999999999999999999 out of range" message

let () =
  Alcotest.run "hecate_serve"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "alpha equivalence" `Quick test_fingerprint_alpha_equivalence;
          Alcotest.test_case "slot count matters" `Quick test_fingerprint_slot_count_matters;
          qtest prop_fingerprint_survives_roundtrip;
          qtest prop_canonicalize_idempotent;
        ] );
      ( "plancache",
        [
          Alcotest.test_case "hit is bit-identical (all schemes)" `Quick
            test_cache_hit_bit_identical;
          Alcotest.test_case "alpha-equivalent submissions hit" `Quick
            test_cache_alpha_equivalent_hit;
          Alcotest.test_case "run_cold wraps cold compiles" `Quick test_cache_run_cold;
          Alcotest.test_case "disk roundtrip" `Quick test_cache_disk_roundtrip;
          Alcotest.test_case "key sensitivity" `Quick test_cache_key_sensitivity;
          Alcotest.test_case "LRU eviction bounds" `Quick test_cache_lru_eviction;
          Alcotest.test_case "single flight" `Quick test_cache_single_flight;
          Alcotest.test_case "transient results not stored" `Quick
            test_cache_transient_not_stored;
          Alcotest.test_case "entry JSON roundtrip" `Quick test_cache_entry_json_roundtrip;
          Alcotest.test_case "damaged entry is a miss" `Quick test_cache_damaged_entry_is_miss;
        ] );
      ( "text index",
        [
          Alcotest.test_case "Gen programs: index path = parse path" `Quick test_index_gen_programs;
          Alcotest.test_case "Apps, alpha variants, matvec: index path = parse path" `Quick
            test_index_apps;
          Alcotest.test_case "evicted entry recompiles" `Quick test_index_recompiles;
          qtest prop_index_one_byte_apart;
          Alcotest.test_case "byte budget" `Quick test_index_budget;
          Alcotest.test_case "concurrent requests" `Quick test_index_concurrent;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "request roundtrip" `Quick test_protocol_request_roundtrip;
          Alcotest.test_case "request errors" `Quick test_protocol_request_errors;
          Alcotest.test_case "done event" `Quick test_protocol_done_event;
        ] );
      ( "server",
        [
          Alcotest.test_case "end to end over a socket" `Quick test_server_end_to_end;
          Alcotest.test_case "over-long request line" `Quick test_server_bounds_request_lines;
          Alcotest.test_case "finished jobs keep answering" `Quick
            test_server_finished_jobs_answer;
          Alcotest.test_case "oracle-gated portfolio job" `Quick test_server_oracle_portfolio;
          Alcotest.test_case "budget-truncated is transient" `Quick
            test_server_budget_is_transient;
          Alcotest.test_case "finished jobs past the window" `Quick test_server_finished_window;
        ] );
      ( "inline",
        [
          Alcotest.test_case "answers = compile_text, counters as before" `Quick
            test_server_inline_differential;
          Alcotest.test_case "accepted precedes done" `Quick test_server_accepted_before_done;
          Alcotest.test_case "queued jobs per connection are capped" `Quick test_server_queue_cap;
          Alcotest.test_case "client closes after accepted" `Quick
            test_server_client_closes_after_accepted;
          Alcotest.test_case "client leaves a queued miss" `Quick
            test_server_client_leaves_queued_miss;
        ] );
      ( "mutation",
        [
          qtest prop_mutated_inputs_fail_cleanly;
          qtest prop_mutated_bhec_fail_cleanly;
          qtest prop_request_in_place;
          Alcotest.test_case "overlong value id" `Quick test_overlong_value_id;
        ] );
    ]
