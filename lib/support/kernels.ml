(* Runtime selection between the fast arithmetic kernels (Shoup NTTs,
   in-module reductions, allocation-free, optionally domain-parallel) and
   the division-based reference kernels the fast paths are validated
   against. *)

(* Recognize explicit on/off spellings; anything else still selects the
   reference kernels (the historical "any non-empty value" contract) but
   says so on stderr — a typo like HECATE_NAIVE_KERNELS=fals silently
   flipping the process onto the slow validated path is exactly the kind
   of benchmark-invalidating mistake that should be loud. *)
let parse_env_flag () =
  match Sys.getenv_opt "HECATE_NAIVE_KERNELS" with
  | None | Some "" -> false
  | Some s -> (
      match String.lowercase_ascii (String.trim s) with
      | "0" | "false" | "no" | "off" -> false
      | "1" | "true" | "yes" | "on" -> true
      | _ ->
          Printf.eprintf
            "hecate: warning: HECATE_NAIVE_KERNELS=%S is not a recognized value \
             (use 1/true/yes/on or 0/false/no/off); enabling reference kernels\n%!"
            s;
          true)

let naive = Atomic.make (parse_env_flag ())

let use_naive () = Atomic.get naive
let with_naive b f =
  let prev = Atomic.get naive in
  Atomic.set naive b;
  Fun.protect ~finally:(fun () -> Atomic.set naive prev) f
