(* Reconfiguration chaos soak runner: N seeded runs of faults injected
   during membership cutover windows. Exits nonzero on any violation.
   Usage: reconfig_soak [runs] [first_seed] *)
let () =
  let runs = Env_knob.int_arg ~lo:1 Sys.argv 1 ~name:"runs" ~default:3 in
  let first_seed = Env_knob.int64_arg Sys.argv 2 ~name:"first_seed" ~default:7100L in
  let failures = ref 0 in
  for i = 0 to runs - 1 do
    let seed = Int64.add first_seed (Int64.of_int i) in
    let report = Chaos.Harness.reconfig_soak ~seed () in
    Format.printf "%a@." Chaos.Harness.pp_reconfig_report report;
    if not (Chaos.Harness.reconfig_clean report) then incr failures
  done;
  if !failures > 0 then begin
    Printf.eprintf "reconfig_soak: %d/%d runs had violations\n" !failures runs;
    exit 1
  end;
  Printf.printf "reconfig_soak: %d/%d runs clean\n" runs runs
