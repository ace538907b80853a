(* Input contract for the dev executables, the same one bench/main.exe
   follows for its env knobs: an absent value takes its default, a
   present one must parse, and garbage exits 2 printing the valid
   forms. Env knobs drive [batch] and [fleet]; positional arguments
   drive the other dev/debug.exe cases, reconfig_soak and
   telemetry_smoke. *)

let refuse ~what ~raw ~valid =
  Printf.eprintf "%s %S is invalid\nvalid forms for %s: %s\n" what raw what valid;
  exit 2

let get name ~default ~valid parse =
  match Sys.getenv_opt name with
  | None -> default
  | Some raw -> (
    match parse (String.trim raw) with
    | Some v -> v
    | None -> refuse ~what:(name ^ "=") ~raw ~valid)

let int_at_least lo name ~default =
  get name ~default
    ~valid:(Printf.sprintf "an integer >= %d (e.g. %s=%d)" lo name default)
    (fun s ->
      match int_of_string_opt s with Some n when n >= lo -> Some n | _ -> None)

let positive_int = int_at_least 1
let non_negative_int = int_at_least 0

(* [arg args i ~name ~default ~valid parse] is positional argument [i]
   of [args] ([args.(0)] is the program or case name), parsed by
   [parse]; [default] when there are not that many arguments. *)
let arg args i ~name ~default ~valid parse =
  if Array.length args <= i then default
  else
    match parse (String.trim args.(i)) with
    | Some v -> v
    | None ->
      refuse ~what:(Printf.sprintf "argument %d <%s>" i name) ~raw:args.(i) ~valid

let int_arg ?(lo = 0) args i ~name ~default =
  arg args i ~name ~default
    ~valid:(Printf.sprintf "an integer >= %d (default %d)" lo default)
    (fun s ->
      match int_of_string_opt s with Some n when n >= lo -> Some n | _ -> None)

let int64_arg args i ~name ~default =
  arg args i ~name ~default
    ~valid:(Printf.sprintf "a 64-bit integer (default %Ld)" default)
    Int64.of_string_opt

(* A probability in [0, 1). *)
let probability_arg args i ~name ~default =
  arg args i ~name ~default
    ~valid:(Printf.sprintf "a number p with 0 <= p < 1 (default %g)" default)
    (fun s ->
      match float_of_string_opt s with
      | Some p when p >= 0. && p < 1. -> Some p
      | _ -> None)

(* One of the listed words. *)
let choice_arg args i ~name ~default choices =
  arg args i ~name ~default
    ~valid:(String.concat " | " choices ^ Printf.sprintf " (default %s)" default)
    (fun s -> if List.mem s choices then Some s else None)
