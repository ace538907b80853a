(* Env-knob contract for the env-driven dev/debug.exe cases ([batch],
   [fleet]), the same one bench/main.exe follows: an unset knob takes
   its default, a set one must parse, and garbage exits 2 printing the
   valid forms. *)

let get name ~default ~valid parse =
  match Sys.getenv_opt name with
  | None -> default
  | Some raw -> (
    match parse (String.trim raw) with
    | Some v -> v
    | None ->
      Printf.eprintf "%s=%S is invalid\nvalid forms for %s=: %s\n" name raw name
        valid;
      exit 2)

let int_at_least lo name ~default =
  get name ~default
    ~valid:(Printf.sprintf "an integer >= %d (e.g. %s=%d)" lo name default)
    (fun s ->
      match int_of_string_opt s with Some n when n >= lo -> Some n | _ -> None)

let positive_int = int_at_least 1
let non_negative_int = int_at_least 0
