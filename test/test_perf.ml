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

(* Flood-mode golden trajectory. The E2 pin above only exercises
   shortest-path routing. This run floods every frame, inflates the
   latency of the WAN links between replica sites 20x, makes one WAN
   link 5% lossy (ARQ retransmission) and one control-center LAN link
   90% lossy (ARQ exhaustion: 0.9^9 ~ 0.39 per frame), so it pins the
   overlay hop path's flooding, dedup, fair-queue and ARQ bookkeeping
   on a real system run. *)
let flood_duration_us = 4 * 1_000_000

let flood_golden_confirmed = 284
let flood_golden_events = 2163172
let flood_golden_retransmissions = 34023

let flood_golden_stats =
  [
    ("submitted", 25568);
    ("delivered", 19970);
    ("duplicates_suppressed", 0);
    ("dropped_queue_full", 41727);
    ("dropped_link_down", 0);
    ("dropped_no_route", 0);
    ("dropped_arq_exhausted", 2580);
    ("dropped_retired_src", 0);
    ("junk_frames", 0);
    ("submitted_bytes", 3071838);
    ("delivered_bytes", 2342115);
    ("dropped_bytes", 5000359);
  ]

(* (src, dst, tx_bytes) per directed link, in [Net.link_reports] order. *)
let flood_golden_links =
  [
    (0, 1, 3079510); (4, 2, 2906406); (5, 2, 2849377); (2, 0, 2829652);
    (2, 4, 2829652); (2, 5, 2829652); (2, 16, 2829580); (0, 2, 2829545);
    (0, 16, 2829545); (2, 8, 2817094); (2, 9, 2817094); (2, 10, 2817094);
    (2, 11, 2817094); (2, 12, 2817094); (2, 14, 2817094); (2, 15, 2817094);
    (0, 8, 2816987); (0, 9, 2816987); (0, 10, 2816987); (0, 11, 2816987);
    (0, 12, 2816987); (0, 14, 2816987); (0, 15, 2816987); (2, 13, 2811226);
    (0, 13, 2801668); (2, 7, 2801363); (0, 7, 2739808); (0, 5, 2436125);
    (4, 5, 2423941); (5, 4, 2390629); (0, 4, 2370437); (2, 3, 2340043);
    (1, 0, 1862902); (0, 6, 1723946); (6, 2, 1555993); (7, 2, 1543435);
    (13, 2, 1543435); (8, 2, 1540537); (9, 2, 1540537); (10, 2, 1540537);
    (11, 2, 1540537); (12, 2, 1540537); (14, 2, 1540537); (15, 2, 1540537);
    (16, 2, 1528623); (2, 6, 1308854); (7, 0, 1305108); (13, 0, 1305108);
    (8, 0, 1302210); (9, 0, 1302210); (10, 0, 1302210); (11, 0, 1302210);
    (12, 0, 1302210); (14, 0, 1302210); (15, 0, 1302210); (16, 0, 1300922);
    (6, 0, 1286754); (5, 0, 956120); (4, 0, 953127); (3, 2, 489716);
    (3, 1, 166546); (1, 3, 146236);
  ]

let flood_golden_ledger =
  [
    ("prime/po_request", 5640, 603480);
    ("prime/viewchange", 85, 557540);
    ("prime/po_aru", 5250, 378000);
    ("prime/prepare", 5335, 330770);
    ("prime/commit", 4425, 274350);
    ("replica_reply", 1401, 249378);
    ("prime/preprepare", 1170, 248040);
    ("prime/slot_reply", 996, 207168);
    ("client_update", 496, 159712);
    ("prime/slot_request", 585, 29250);
    ("prime/newview", 10, 23200);
    ("prime/recon_reply", 30, 3210);
    ("prime/checkpoint", 50, 2900);
    ("prime/suspect", 50, 2500);
    ("prime/recon_request", 45, 2340);
  ]

let flood_stats (s : Overlay.Net.stats) =
  [
    ("submitted", s.submitted);
    ("delivered", s.delivered);
    ("duplicates_suppressed", s.duplicates_suppressed);
    ("dropped_queue_full", s.dropped_queue_full);
    ("dropped_link_down", s.dropped_link_down);
    ("dropped_no_route", s.dropped_no_route);
    ("dropped_arq_exhausted", s.dropped_arq_exhausted);
    ("dropped_retired_src", s.dropped_retired_src);
    ("junk_frames", s.junk_frames);
    ("submitted_bytes", s.submitted_bytes);
    ("delivered_bytes", s.delivered_bytes);
    ("dropped_bytes", s.dropped_bytes);
  ]

let test_flood_golden_trajectory () =
  let cfg =
    {
      (Spire.System.default_config ()) with
      Spire.System.dissemination = Overlay.Net.Flood;
    }
  in
  let sys = Spire.System.create cfg in
  let net = Spire.System.net sys in
  let topo = Overlay.Net.topology net in
  let replicas = Spire.System.replica_count sys in
  List.iter
    (fun (l : Overlay.Topology.link) ->
      let a = l.endpoint_a and b = l.endpoint_b in
      if
        a < replicas && b < replicas
        && Overlay.Topology.site_of topo a <> Overlay.Topology.site_of topo b
      then Overlay.Net.set_latency_factor net a b 20.)
    (Overlay.Topology.links topo);
  Overlay.Net.set_loss_probability net 1 3 0.05;
  Overlay.Net.set_loss_probability net 0 1 0.9;
  Spire.System.start sys;
  Spire.System.run sys ~duration_us:flood_duration_us;
  Alcotest.(check int) "confirmed" flood_golden_confirmed
    (Spire.System.confirmed_updates sys);
  Alcotest.(check int) "events processed" flood_golden_events
    (Sim.Engine.processed (Spire.System.engine sys));
  Alcotest.(check int) "retransmissions" flood_golden_retransmissions
    (Overlay.Net.retransmissions net);
  Alcotest.(check (list (pair string int)))
    "net stats" flood_golden_stats
    (flood_stats (Overlay.Net.stats net));
  Alcotest.(check (list (triple int int int)))
    "per-link tx bytes" flood_golden_links
    (List.map
       (fun (r : Overlay.Net.link_report) -> (r.link_src, r.link_dst, r.tx_bytes))
       (Overlay.Net.link_reports net));
  Alcotest.check ledger_testable "per-kind wire ledger" flood_golden_ledger
    (Spire.System.wire_traffic sys)

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
          Alcotest.test_case "flood golden trajectory, link bytes" `Slow
            test_flood_golden_trajectory;
        ] );
      ( "batching",
        [
          Alcotest.test_case "batch-wait phase sums reconcile exactly" `Slow
            test_batched_phase_reconciliation;
        ] );
    ]
