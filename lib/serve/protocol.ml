(* Wire schema of the hecated job protocol: one JSON value per line in
   both directions. This module owns the translation between OCaml values
   and lines; the server and client never touch Json.t directly. *)

module Json = Hecate_support.Json
module Driver = Hecate.Driver
module Paramselect = Hecate.Paramselect
module Plancache = Hecate.Plancache
module Explore = Hecate.Explore

type submit = {
  program : string;
  scheme : Driver.scheme;
  sf_bits : int;
  waterline_bits : float;
  max_epochs : int;
  budget_seconds : float option;
  strategy : string option;
  stream : bool;
}

type request =
  | Submit of submit
  | Status of int
  | Cancel of int
  | Stats
  | Shutdown

let scheme_of_string s =
  match String.lowercase_ascii s with
  | "eva" -> Some Driver.Eva
  | "pars" -> Some Driver.Pars
  | "smse" -> Some Driver.Smse
  | "hecate" -> Some Driver.Hecate
  | _ -> None

let parse_request ?pos ?len line =
  match Json.parse ?pos ?len line with
  | exception Json.Parse_error msg -> Error (Printf.sprintf "malformed request: %s" msg)
  | json -> (
      let str k = Json.to_string (Json.member k json) in
      let flt k = Json.to_float (Json.member k json) in
      let int k = Json.to_int (Json.member k json) in
      let job () =
        match int "job" with
        | Some id -> Ok id
        | None -> Error "missing integer field \"job\""
      in
      match str "op" with
      | None -> Error "missing string field \"op\""
      | Some "submit" -> (
          match str "program" with
          | None -> Error "submit: missing string field \"program\""
          | Some program -> (
              let scheme_field = Option.value ~default:"hecate" (str "scheme") in
              match scheme_of_string scheme_field with
              | None ->
                  Error
                    (Printf.sprintf
                       "submit: unknown scheme %S (expected eva, pars, smse or hecate)"
                       scheme_field)
              | Some scheme -> (
                  match str "strategy" with
                  | Some s when not (Explore.known_strategy s) ->
                      Error
                        (Printf.sprintf
                           "submit: unknown exploration strategy %S (expected %s or %s)" s
                           (String.concat ", " (Explore.strategy_names ()))
                           Explore.portfolio_name)
                  | strategy ->
                      Ok
                        (Submit
                           {
                             program;
                             scheme;
                             sf_bits = Option.value ~default:28 (int "sf_bits");
                             waterline_bits =
                               Option.value ~default:20. (flt "waterline_bits");
                             max_epochs = Option.value ~default:100 (int "max_epochs");
                             budget_seconds = flt "budget_seconds";
                             strategy;
                             stream =
                               Option.value ~default:false
                                 (Json.to_bool (Json.member "stream" json));
                           }))))
      | Some "status" -> Result.map (fun id -> Status id) (job ())
      | Some "cancel" -> Result.map (fun id -> Cancel id) (job ())
      | Some "stats" -> Ok Stats
      | Some "shutdown" -> Ok Shutdown
      | Some op -> Error (Printf.sprintf "unknown op %S" op))

let render_submit (s : submit) =
  Json.render
    (Json.Obj
       ([
          ("op", Json.Str "submit");
          ("program", Json.Str s.program);
          ("scheme", Json.Str (String.lowercase_ascii (Driver.scheme_name s.scheme)));
          ("sf_bits", Json.int s.sf_bits);
          ("waterline_bits", Json.Num s.waterline_bits);
          ("max_epochs", Json.int s.max_epochs);
          ("stream", Json.Bool s.stream);
        ]
       @ (match s.budget_seconds with
         | None -> []
         | Some b -> [ ("budget_seconds", Json.Num b) ])
       @ match s.strategy with
         | None -> []
         | Some st -> [ ("strategy", Json.Str st) ]))

let render_request = function
  | Submit s -> render_submit s
  | Status id -> Json.render (Json.Obj [ ("op", Json.Str "status"); ("job", Json.int id) ])
  | Cancel id -> Json.render (Json.Obj [ ("op", Json.Str "cancel"); ("job", Json.int id) ])
  | Stats -> Json.render (Json.Obj [ ("op", Json.Str "stats") ])
  | Shutdown -> Json.render (Json.Obj [ ("op", Json.Str "shutdown") ])

(* ------------------------------------------------------------------ *)
(* Server -> client events                                              *)
(* ------------------------------------------------------------------ *)

type reply = Json.t

let event name fields = Json.Obj (("event", Json.Str name) :: fields)
let accepted ~job = event "accepted" [ ("job", Json.int job) ]

let progress ~job ~strategy (t : Explore.epoch_trace) =
  event "progress"
    [
      ("job", Json.int job);
      ("strategy", Json.Str strategy);
      ("epoch", Json.int t.Explore.epoch);
      ("candidates", Json.int t.Explore.candidates);
      ("cache_hits", Json.int t.Explore.cache_hits);
      ("best_cost", Json.Num t.Explore.best_cost);
      ("elapsed_seconds", Json.Num t.Explore.elapsed_seconds);
    ]

let params_json (p : Paramselect.t) =
  Json.Obj
    [
      ("q0_bits", Json.int p.Paramselect.q0_bits);
      ("sf_bits", Json.int p.Paramselect.sf_bits);
      ("chain_levels", Json.int p.Paramselect.chain_levels);
      ("log_q", Json.Num p.Paramselect.log_q);
      ("secure_n", Json.int p.Paramselect.secure_n);
      ("slot_count", Json.int p.Paramselect.slot_count);
    ]

let done_ ~job ~origin ~wall_seconds (e : Plancache.entry) =
  event "done"
    [
      ("job", Json.int job);
      ("origin", Json.Str (Plancache.origin_name origin));
      ("fingerprint", Json.Str e.Plancache.fingerprint);
      ("wall_seconds", Json.Num wall_seconds);
      ("compile_seconds", Json.Num e.Plancache.compile_seconds);
      ("estimated_seconds", Json.Num e.Plancache.estimated_seconds);
      ("explore_epochs", Json.int e.Plancache.explore_epochs);
      ("explore_plans", Json.int e.Plancache.explore_plans);
      ("strategy", Json.Str e.Plancache.strategy);
      ("winner_strategy", Json.Str e.Plancache.winner_strategy);
      ("params", params_json e.Plancache.params);
      ("artifact", Json.Str e.Plancache.artifact);
    ]

let error ?job message =
  event "error"
    ((match job with None -> [] | Some id -> [ ("job", Json.int id) ])
    @ [ ("message", Json.Str message) ])

let cancelled ~job = event "cancelled" [ ("job", Json.int job) ]

let status ~job ~state = event "status" [ ("job", Json.int job); ("state", Json.Str state) ]

let stats ~jobs ~cache:(c : Plancache.stats_snapshot) =
  event "stats"
    [
      ("jobs", Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) jobs));
      ( "cache",
        Json.Obj
          [
            ("hits_memory", Json.int c.Plancache.s_hits_memory);
            ("hits_disk", Json.int c.Plancache.s_hits_disk);
            ("misses", Json.int c.Plancache.s_misses);
            ("joins", Json.int c.Plancache.s_joins);
            ("evictions", Json.int c.Plancache.s_evictions);
            ("entries", Json.int c.Plancache.s_entries);
            ("index_hits", Json.int c.Plancache.s_index_hits);
            ("index_bytes", Json.int c.Plancache.s_index_bytes);
          ] );
    ]

let bye = event "bye" []
let line = Json.render

let output oc reply =
  Json.output oc reply;
  output_char oc '\n'

(* ------------------------------------------------------------------ *)
(* Client-side event decoding                                           *)
(* ------------------------------------------------------------------ *)

type job_result = {
  job : int;
  origin : string;
  fingerprint : string;
  artifact : string;
  wall_seconds : float;  (** server-side wall clock of this request *)
  compile_seconds : float;  (** wall clock of the cold compile that produced the entry *)
  estimated_seconds : float;
  explore_epochs : int;
  winner_strategy : string;
  secure_n : int;
}

type event =
  | Accepted of int
  | Progress of { job : int; strategy : string; epoch : int; best_cost : float }
  | Done of job_result
  | Cancelled of int
  | Error of { job : int option; message : string }
  | Status of { job : int; state : string }
  | Stats of Json.t
  | Bye

let parse_event line =
  match Json.parse line with
  | exception Json.Parse_error msg -> Result.Error (Printf.sprintf "malformed event: %s" msg)
  | json -> (
      let str k = Json.to_string (Json.member k json) in
      let flt k d = Option.value ~default:d (Json.to_float (Json.member k json)) in
      let int k d = Option.value ~default:d (Json.to_int (Json.member k json)) in
      match str "event" with
      | None -> Result.Error "missing string field \"event\""
      | Some "accepted" -> Result.Ok (Accepted (int "job" (-1)))
      | Some "progress" ->
          Result.Ok
            (Progress
               {
                 job = int "job" (-1);
                 strategy = Option.value ~default:"" (str "strategy");
                 epoch = int "epoch" 0;
                 best_cost = flt "best_cost" nan;
               })
      | Some "done" ->
          Result.Ok
            (Done
               {
                 job = int "job" (-1);
                 origin = Option.value ~default:"?" (str "origin");
                 fingerprint = Option.value ~default:"" (str "fingerprint");
                 artifact = Option.value ~default:"" (str "artifact");
                 wall_seconds = flt "wall_seconds" nan;
                 compile_seconds = flt "compile_seconds" nan;
                 estimated_seconds = flt "estimated_seconds" nan;
                 explore_epochs = int "explore_epochs" 0;
                 winner_strategy = Option.value ~default:"" (str "winner_strategy");
                 secure_n =
                   Option.value ~default:0
                     (Json.to_int (Json.member "secure_n" (Json.member "params" json)));
               })
      | Some "cancelled" -> Result.Ok (Cancelled (int "job" (-1)))
      | Some "error" ->
          Result.Ok
            (Error
               {
                 job = Json.to_int (Json.member "job" json);
                 message = Option.value ~default:"unknown error" (str "message");
               })
      | Some "status" ->
          Result.Ok
            (Status { job = int "job" (-1); state = Option.value ~default:"?" (str "state") })
      | Some "stats" -> Result.Ok (Stats json)
      | Some "bye" -> Result.Ok Bye
      | Some ev -> Result.Error (Printf.sprintf "unknown event %S" ev))
