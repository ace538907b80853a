(* Determinism regression for the hot-path optimisations.

   The zero-allocation work (measured-size codecs, frame-size
   memoization, ring-based fair queueing, the engine's closure-free
   periodic timers and lazy cancelled-entry purge, unboxed digest
   limbs) must be *unobservable*: the simulation trajectory, the
   confirmed count, the view count, and the per-kind wire-byte ledger
   have to be bit-identical to what the straightforward implementations
   produced. The golden values below were recorded from the E2
   fault-free workload (60 s virtual time, default config and seed) and
   verified identical on the pre-optimisation code; any drift means a
   semantic change snuck into the "pure performance" layer. *)

let duration_us = 60 * 1_000_000

let golden_confirmed = 5990
let golden_max_view = 0
let golden_events = 917_538

let golden_ledger =
  [
    ("replica_reply", 35940, 6397320);
    ("prime/po_aru", 62925, 4530600);
    ("prime/prepare", 57485, 3564070);
    ("prime/commit", 57480, 3563760);
    ("prime/po_request", 31450, 3365150);
    ("prime/preprepare", 9585, 2032020);
    ("client_update", 6000, 1932000);
    ("prime/checkpoint", 1380, 80040);
  ]

type snapshot = {
  confirmed : int;
  max_view : int;
  events : int;
  ledger : (string * int * int) list;
}

let run () =
  let sys, r = Spire.Scenarios.fault_free ~duration_us () in
  {
    confirmed = r.Spire.Scenarios.confirmed;
    max_view = r.Spire.Scenarios.max_view;
    events = Sim.Engine.processed (Spire.System.engine sys);
    ledger = Spire.System.wire_traffic sys;
  }

let ledger_testable =
  Alcotest.(list (triple string int int))

let test_golden_trajectory () =
  let s = run () in
  Alcotest.(check int) "confirmed" golden_confirmed s.confirmed;
  Alcotest.(check int) "max view" golden_max_view s.max_view;
  Alcotest.(check int) "events processed" golden_events s.events;
  Alcotest.check ledger_testable "per-kind wire ledger" golden_ledger s.ledger

let test_run_to_run_identical () =
  let a = run () and b = run () in
  Alcotest.(check int) "confirmed" a.confirmed b.confirmed;
  Alcotest.(check int) "events" a.events b.events;
  Alcotest.check ledger_testable "ledger" a.ledger b.ledger

(* The batched send path at max_batch = 1 must be *the* legacy path:
   explicitly setting the batching fields (with a deliberately odd
   deadline, which singleton mode must never consult) has to reproduce
   the golden trajectory and the per-kind wire-byte ledger bit for
   bit — same frames, same kinds, same byte totals, same event count. *)
let test_singleton_batching_identical () =
  let cfg =
    {
      (Spire.System.default_config ()) with
      Spire.System.max_batch = 1;
      batch_delay_us = 77_777;
    }
  in
  let sys, r = Spire.Scenarios.fault_free ~config:cfg ~duration_us () in
  Alcotest.(check int) "confirmed" golden_confirmed r.Spire.Scenarios.confirmed;
  Alcotest.(check int) "max view" golden_max_view r.Spire.Scenarios.max_view;
  Alcotest.(check int) "events processed" golden_events
    (Sim.Engine.processed (Spire.System.engine sys));
  Alcotest.check ledger_testable "per-kind wire ledger" golden_ledger
    (Spire.System.wire_traffic sys)

(* With batching actually on, the telemetry invariant must survive:
   for every confirmed trace the six lifecycle phases — including the
   new batch-wait — sum exactly to the end-to-end span, and the
   deadline-flushed batches make batch-wait genuinely non-zero. *)
let lifecycle_phases =
  [
    Telemetry.Span.Batch_wait; Telemetry.Span.Ingress; Telemetry.Span.Preorder;
    Telemetry.Span.Ordering; Telemetry.Span.Execution; Telemetry.Span.Reply;
  ]

let test_batched_phase_reconciliation () =
  let cfg =
    {
      (Spire.System.default_config ()) with
      Spire.System.max_batch = 8;
      batch_delay_us = 10_000;
      telemetry = true;
    }
  in
  let sys, r = Spire.Scenarios.fault_free ~config:cfg ~duration_us () in
  Alcotest.(check bool)
    "some updates confirmed under batching" true
    (r.Spire.Scenarios.confirmed > 0);
  let sink = Spire.System.telemetry sys in
  let by_trace = Hashtbl.create 1024 in
  List.iter
    (fun (s : Telemetry.Span.t) ->
      if s.Telemetry.Span.trace >= 0 then
        Hashtbl.replace by_trace s.Telemetry.Span.trace
          (s
          :: (try Hashtbl.find by_trace s.Telemetry.Span.trace
              with Not_found -> [])))
    (Telemetry.Sink.spans sink);
  let roots = ref 0 and batch_waits = ref 0 in
  Hashtbl.iter
    (fun _trace spans ->
      match
        List.find_opt
          (fun (s : Telemetry.Span.t) ->
            s.Telemetry.Span.phase = Telemetry.Span.End_to_end)
          spans
      with
      | None -> ()
      | Some root ->
        incr roots;
        let child phase =
          match
            List.find_opt
              (fun (s : Telemetry.Span.t) -> s.Telemetry.Span.phase = phase)
              spans
          with
          | Some s -> s
          | None ->
            Alcotest.failf "trace missing lifecycle phase %s"
              (Telemetry.Span.phase_name phase)
        in
        let sum =
          List.fold_left
            (fun acc phase ->
              let s = child phase in
              if Telemetry.Span.duration s > 0
                 && phase = Telemetry.Span.Batch_wait
              then incr batch_waits;
              acc + Telemetry.Span.duration s)
            0 lifecycle_phases
        in
        if sum <> Telemetry.Span.duration root then
          Alcotest.failf "phase sum %d <> end-to-end %d" sum
            (Telemetry.Span.duration root))
    by_trace;
  Alcotest.(check bool) "confirmed traces materialised" true (!roots > 0);
  Alcotest.(check bool)
    "batch-wait is non-zero for deadline-flushed batches" true
    (!batch_waits > 0)

let () =
  Alcotest.run "perf"
    [
      ( "determinism",
        [
          Alcotest.test_case "E2 golden trajectory and byte ledger" `Slow
            test_golden_trajectory;
          Alcotest.test_case "run-to-run bit-identical" `Slow
            test_run_to_run_identical;
          Alcotest.test_case "max_batch=1 ledger bit-identical" `Slow
            test_singleton_batching_identical;
        ] );
      ( "batching",
        [
          Alcotest.test_case "batch-wait phase sums reconcile exactly" `Slow
            test_batched_phase_reconciliation;
        ] );
    ]
