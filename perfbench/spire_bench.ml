(* Benchmark program for the Spire reproduction.

   Usage:
     spire_bench.exe rep <workload> <seed> [smoke]
       one run with tracing off; prints one JSON object of end-to-end
       measurements and the run's digests
     spire_bench.exe trace <workload> <seed> <trace-file> [smoke]
       the traced run: an untraced reference run, the repository
       scenario at the same seed and length, the traced run (window in
       virtual-time slices, telemetry on, GC runtime events), and the
       layer replays; prints one JSON object of per-layer metrics and
       writes the span trace to <trace-file>
     spire_bench.exe smoke
       every workload and check above at tiny lengths; exits non-zero
       on the first failure
   A trailing [smoke] selects the tiny lengths for one command.

   Workloads: steady, wan_attack, fleet (see README.md). *)

let fail fmt = Printf.ksprintf failwith fmt

(* ------------------------------------------------------------------ *)
(* JSON output *)

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else fail "non-finite metric %f" x

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c -> Buffer.add_char b '\\'; Buffer.add_char b c
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

(* A metric is [(name, value, unit)]. *)
let metrics_json ms =
  json_object
    (List.map
       (fun (name, v, unit) ->
         (name, json_object [ ("value", json_float v); ("unit", json_string unit) ]))
       ms)

(* ------------------------------------------------------------------ *)
(* End-to-end metrics of one untraced run *)

let mb_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1e6

let host_us_per_update (r : Workload.run) =
  r.window_s *. 1e6 /. float_of_int (Workload.confirmed_in_window r)

let end_to_end (r : Workload.run) =
  let _, bytes = Workload.ledger_totals (Workload.ledger_delta r.c0 r.c1) in
  let s = r.stats in
  [
    ("setup_s", r.setup_s, "s");
    ("host_us_per_update", host_us_per_update r, "us");
    ("minor_words_per_update", Workload.per_update r r.minor_words, "words");
    ("peak_heap_mb", mb_of_words r.peak_heap_words, "MB");
    ("update_p50_ms", s.p50_ms, "virtual_ms");
    ("update_p99_ms", s.p99_ms, "virtual_ms");
    ("on_time_share", float_of_int s.on_time /. float_of_int s.submitted, "ratio");
    ("wire_bytes_per_update", Workload.per_update r (float_of_int bytes), "B");
  ]

let rep ?(smoke = false) kind ~seed =
  let r = Workload.execute ~smoke kind ~seed in
  Workload.check ~smoke r;
  let s = r.stats in
  print_endline
    (json_object
       [
         ("workload", json_string (Workload.name kind));
         ("metrics", metrics_json (end_to_end r));
         ("submitted", string_of_int s.submitted);
         ("failed", string_of_int (s.submitted - s.confirmed_of_submitted));
         ("confirmed_in_window", string_of_int (Workload.confirmed_in_window r));
         ("run_digest", json_string (Workload.run_digest r));
         ("trajectory_digest", json_string (Workload.trajectory_digest r));
       ])

(* ------------------------------------------------------------------ *)
(* Span recorder for the traced run *)

module Spans = struct
  type span = {
    id : int;
    name : string;
    parent : int;
    start_s : float;
    mutable end_s : float;
    mutable args : (string * string) list;
  }

  let origin = Unix.gettimeofday ()
  let spans = ref []
  let stack = ref []
  let next = ref 0

  let open_ name =
    let parent = match !stack with p :: _ -> p.id | [] -> -1 in
    let s = { id = !next; name; parent; start_s = Unix.gettimeofday (); end_s = 0.; args = [] } in
    incr next;
    stack := s :: !stack;
    spans := s :: !spans;
    s

  let close s =
    s.end_s <- Unix.gettimeofday ();
    match !stack with
    | top :: rest when top == s -> stack := rest
    | _ -> fail "span %s closed out of order" s.name

  let with_span ?(args = fun () -> []) name f =
    let s = open_ name in
    let v = f () in
    close s;
    s.args <- args ();
    v

  let reset () =
    spans := [];
    stack := [];
    next := 0

  (* Chrome trace_event JSON: complete ("X") events on one thread, so
     viewers nest them by time; [args] carries id and parent. *)
  let write path =
    let us t = Printf.sprintf "%.3f" ((t -. origin) *. 1e6) in
    let event s =
      json_object
        [
          ("name", json_string s.name);
          ("ph", json_string "X");
          ("pid", "1");
          ("tid", "1");
          ("ts", us s.start_s);
          ("dur", Printf.sprintf "%.3f" ((s.end_s -. s.start_s) *. 1e6));
          ( "args",
            json_object
              ([ ("id", string_of_int s.id); ("parent", string_of_int s.parent) ] @ s.args) );
        ]
    in
    let oc = open_out path in
    output_string oc "{\"traceEvents\": [\n";
    output_string oc (String.concat ",\n" (List.rev_map event !spans));
    output_string oc "\n]}\n";
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* GC layer: OCaml runtime events, counted inside the window only *)

module Gc_probe = struct
  let counting = ref false
  let minors = ref 0
  let minor_ns = ref 0L
  let major_ns = ref 0L
  let lost = ref 0
  let open_at = Hashtbl.create 8

  let callbacks =
    let ts t = Runtime_events.Timestamp.to_int64 t in
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun _ t phase ->
        match phase with
        | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE ->
          Hashtbl.replace open_at phase (ts t)
        | _ -> ())
      ~runtime_end:(fun _ t phase ->
        match (phase, Hashtbl.find_opt open_at phase) with
        | Runtime_events.EV_MINOR, Some t0 when !counting ->
          incr minors;
          minor_ns := Int64.add !minor_ns (Int64.sub (ts t) t0)
        | Runtime_events.EV_MAJOR_SLICE, Some t0 when !counting ->
          major_ns := Int64.add !major_ns (Int64.sub (ts t) t0)
        | _ -> ())
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  let cursor = lazy (Runtime_events.start (); Runtime_events.create_cursor None)
  let poll () = ignore (Runtime_events.read_poll (Lazy.force cursor) callbacks None : int)

  let begin_window () =
    poll ();
    minors := 0;
    minor_ns := 0L;
    major_ns := 0L;
    lost := 0;
    counting := true

  let end_window () =
    poll ();
    counting := false

  (* Live words after a full major collection. *)
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
end

(* ------------------------------------------------------------------ *)
(* The traced run *)

(* Wire kinds the three workloads send, in metric order; anything else
   is folded into [wire.kind.other]. *)
let wire_kinds =
  [
    "prime/po_request"; "prime/po_aru"; "prime/preprepare"; "prime/prepare";
    "prime/commit"; "prime/checkpoint"; "prime/suspect"; "prime/recon_request";
    "prime/recon_reply"; "prime/slot_request"; "prime/slot_reply";
    "prime/po_batch"; "client_update";
    "client_batch"; "replica_reply"; "replica_reply_batch"; "field/advert";
    "field/report";
  ]

let phases =
  Telemetry.Span.
    [
      ("batch_wait", Batch_wait); ("ingress", Ingress); ("preorder", Preorder);
      ("ordering", Ordering); ("execution", Execution); ("reply", Reply);
      ("net_queue", Net_queue); ("net_transmit", Net_transmit); ("net_arq", Net_arq);
      ("net_propagate", Net_propagate);
    ]

let net_phases = Telemetry.Span.[ Net_queue; Net_transmit; Net_arq; Net_propagate ]

let telemetry_metrics sys =
  let sink = Spire.System.telemetry sys in
  let att = Telemetry.Attribution.build sink in
  if not att.Telemetry.Attribution.reconciled then
    fail "telemetry attribution does not reconcile (delta %.3f us)" att.delta_us;
  let total p =
    let h = Telemetry.Sink.hist sink p in
    if Stats.Histogram.count h = 0 then 0.
    else Stats.Histogram.mean h *. float_of_int (Stats.Histogram.count h)
  in
  let net_total = List.fold_left (fun acc p -> acc +. total p) 0. net_phases in
  List.concat_map
    (fun (name, p) ->
      let share =
        if List.mem p net_phases then if net_total = 0. then 0. else total p /. net_total
        else Telemetry.Attribution.phase_share att p
      in
      let h = Telemetry.Sink.hist sink p in
      let p99 = if Stats.Histogram.count h = 0 then 0. else Stats.Histogram.percentile h 99. in
      [
        ("telemetry.phase." ^ name ^ ".share", share, "ratio");
        ("telemetry.phase." ^ name ^ ".p99_us", p99, "virtual_us");
      ])
    phases
  @ [ ("telemetry.ring_dropped", float_of_int (Telemetry.Sink.ring_dropped sink), "count") ]

(* What the scenario-equivalence check compares: confirmed count,
   whole-run p50/p99, fleet stats, events processed and wire ledger. *)
let summary sys =
  let h = Spire.System.latency_histogram sys in
  let pct p = if Stats.Histogram.count h = 0 then 0. else Stats.Histogram.percentile h p in
  ( Spire.System.confirmed_updates sys,
    pct 50.,
    pct 99.,
    Spire.System.fleet_stats sys,
    Sim.Engine.processed (Spire.System.engine sys),
    Spire.System.wire_traffic sys )

(* Scenario equivalence: the repository's scenario at the same seed and
   total length must match the benchmark's split run exactly. *)
let scenario_check ~smoke kind ~seed expected =
  let len = Workload.lengths ~smoke kind in
  let duration_us = len.warmup_us + len.window_us + len.drain_us in
  let sys, _ =
    match kind with
    | Workload.Steady ->
      Spire.Scenarios.fault_free ~config:(Workload.config ~smoke kind ~seed) ~duration_us ()
    | Wan_attack ->
      let sys, a =
        Spire.Scenarios.adaptive
          ~tweak:(fun c -> { c with Spire.System.seed })
          ~attack:(Spire.Scenarios.Wan_delay Workload.attack_factor)
          ~attack_from_us:len.warmup_us ~duration_us ()
      in
      if not a.journal_consistent then fail "scenario: knob journal inconsistent";
      (sys, a.base)
    | Fleet ->
      Spire.Scenarios.fleet
        ~tweak:(fun c -> { c with Spire.System.seed })
        ~concentrators:Workload.fleet_concentrators
        ~devices:(Workload.fleet_devices ~smoke) ~duration_us ()
  in
  if summary sys <> expected then
    fail "%s: the scenario at the same seed and length differs from the split run"
      (Workload.name kind)

let window_virtual_s (r : Workload.run) = float_of_int (r.c1.at_us - r.c0.at_us) /. 1e6

(* Per-layer counts over the traced run's window. *)
let layer_counts (r : Workload.run) ~pending_max =
  let c0 = r.c0 and c1 = r.c1 in
  let pu x = Workload.per_update r (float_of_int x) in
  let n0 = c0.net and n1 = c1.net in
  let open Overlay.Net in
  let link_delta f =
    List.map
      (fun l1 ->
        let v0 =
          match
            List.find_opt (fun l0 -> l0.link_src = l1.link_src && l0.link_dst = l1.link_dst) c0.links
          with
          | Some l0 -> f l0
          | None -> 0
        in
        f l1 - v0)
      c1.links
  in
  let tx_bytes = List.fold_left ( + ) 0 (link_delta (fun l -> l.tx_bytes)) in
  let max_busy = List.fold_left max 0 (link_delta (fun l -> l.tx_busy_us)) in
  let drops s =
    s.dropped_queue_full + s.dropped_link_down + s.dropped_no_route + s.dropped_arq_exhausted
    + s.dropped_retired_src
  in
  let ledger = Workload.ledger_delta c0 c1 in
  let frames, bytes = Workload.ledger_totals ledger in
  let kind_frames k =
    match List.find_opt (fun (k', _, _) -> k' = k) ledger with Some (_, f, _) -> f | None -> 0
  in
  let other =
    List.fold_left
      (fun acc (k, f, _) -> if List.mem k wire_kinds then acc else acc + f)
      0 ledger
  in
  let dotted k = String.map (fun ch -> if ch = '/' then '.' else ch) k in
  let f0 = c0.fleet and f1 = c1.fleet in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  [
    ("sim.events_per_update", pu (c1.events - c0.events), "count");
    ("sim.pending_max", float_of_int pending_max, "count");
    ("overlay.frames_per_update", pu (n1.submitted - n0.submitted), "count");
    ("overlay.tx_amplification", ratio tx_bytes (n1.submitted_bytes - n0.submitted_bytes), "ratio");
    ("overlay.delivered_ratio", ratio (n1.delivered_bytes - n0.delivered_bytes) tx_bytes, "ratio");
    ("overlay.drops_per_update", pu (drops n1 - drops n0), "count");
    ("overlay.retx_per_update", pu (c1.retx - c0.retx), "count");
    ("overlay.max_link_util", ratio max_busy (c1.at_us - c0.at_us), "ratio");
    ("wire.frames_per_update", pu frames, "count");
    ("wire.bytes_per_frame", ratio bytes frames, "B");
  ]
  @ List.map
      (fun k -> ("wire.kind." ^ dotted k ^ ".frames_per_update", pu (kind_frames k), "count"))
      wire_kinds
  @ [
      ("wire.kind.other.frames_per_update", pu other, "count");
      ("prime.view_changes", float_of_int (c1.view - c0.view), "count");
      ( "scada.confirmed_share",
        ratio r.stats.confirmed_of_submitted r.stats.submitted,
        "ratio" );
      ("field.events_per_update", pu (f1.events_seen - f0.events_seen), "count");
      ( "field.confirmed_events_per_s",
        float_of_int (f1.confirmed_events - f0.confirmed_events) /. window_virtual_s r,
        "1/s" );
      ("field.churn", float_of_int (f1.churn - f0.churn), "count");
      ("field.confirmed_writes", float_of_int (f1.confirmed_writes - f0.confirmed_writes), "count");
      ("control.knobs_applied", float_of_int (c1.knobs_applied - c0.knobs_applied), "count");
      ("control.knobs_rejected", float_of_int (c1.knobs_rejected - c0.knobs_rejected), "count");
    ]

(* Virtual ms from the window start (the attack instant on wan_attack)
   to the first knob the plane applied, from the journal. *)
let first_knob_ms (r : Workload.run) =
  List.find_map
    (fun (e : Control.Knobs.entry) ->
      if e.applied && e.at_us >= r.c0.at_us then
        Some (float_of_int (e.at_us - r.c0.at_us) /. 1e3)
      else None)
    (Control.Knobs.journal (Spire.System.knobs r.sys))

let notes = ref []
let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt

(* The layer replays, sized from the traced run's counts. Returns the
   per-unit costs and each layer's host µs per confirmed update
   ([prime.us_per_update] is per update already). *)
let replays ~smoke (r : Workload.run) ~pending_max =
  let cw = Workload.confirmed_in_window r in
  let per_update x = x /. float_of_int cw in
  let cfg = Spire.System.config r.sys in
  let n = Spire.System.replica_count r.sys in
  let vs = window_virtual_s r in
  let scale = if smoke then 20 else 1 in
  let events = r.c1.events - r.c0.events in
  let sim_ns =
    Spans.with_span "replay:sim" (fun () ->
        Replay.sim ~depth:pending_max ~events:(max 1_000 (min (events / scale) 2_000_000)))
  in
  let net_frames = r.c1.net.submitted - r.c0.net.submitted in
  let net_bytes = r.c1.net.submitted_bytes - r.c0.net.submitted_bytes in
  let mode = Spire.System.dissemination r.sys in
  let replay_frames = max 200 (min (net_frames / scale) (if r.kind = Wan_attack then 20_000 else 100_000)) in
  let overlay_us, delivered =
    Spans.with_span "replay:overlay" (fun () ->
        Replay.overlay
          ~topo:(Overlay.Net.topology (Spire.System.net r.sys))
          ~replicas:n ~mode
          ~factor:(if r.kind = Wan_attack then Workload.attack_factor else 1.)
          ~frames:replay_frames
          ~bytes:(max 1 (net_bytes / max 1 net_frames))
          ~rate:(float_of_int net_frames /. vs))
  in
  if delivered = 0 then fail "overlay replay delivered nothing";
  let ledger = Workload.ledger_delta r.c0 r.c1 in
  let wire_frames, _ = Workload.ledger_totals ledger in
  let wire_ns, skipped =
    Spans.with_span "replay:wire" (fun () ->
        Replay.wire ~n ~max_batch:cfg.max_batch ~mix:ledger ~calls:(1_000_000 / scale))
  in
  if skipped > 0 then note "wire replay: %d frames of kinds with no sample message left out" skipped;
  let prime_us =
    Spans.with_span "replay:prime" (fun () ->
        Replay.prime ~cfg
          ~rate:(float_of_int cw /. vs)
          ~duration_us:(min (r.c1.at_us - r.c0.at_us) (if smoke then 2_000_000 else 20_000_000)))
  in
  let devices = cfg.field_devices in
  let create_us, tick_ns, device_ticks =
    if devices = 0 then begin
      note "field.us_per_device_create, field.ns_per_device_tick: no device fleet on %s; reported as 0"
        (Workload.name r.kind);
      (0., 0., 0)
    end
    else begin
      let rounds = (r.c1.at_us - r.c0.at_us) / cfg.field_scan_interval_us in
      let replay_rounds = max 1 (min rounds (if smoke then 2 else 50)) in
      let c, t =
        Spans.with_span "replay:field" (fun () -> Replay.field ~devices ~rounds:replay_rounds)
      in
      (c, t, devices * rounds)
    end
  in
  [
    ("sim.ns_per_event", sim_ns, "ns");
    ("overlay.us_per_frame", overlay_us, "us");
    ("wire.ns_per_size", wire_ns, "ns");
    ("prime.us_per_update", prime_us, "us");
    ("field.us_per_device_create", create_us, "us");
    ("field.ns_per_device_tick", tick_ns, "ns");
    ("replay.sim.us_per_update", per_update (sim_ns *. float_of_int events /. 1e3), "us");
    ("replay.overlay.us_per_update", per_update (overlay_us *. float_of_int net_frames), "us");
    ("replay.wire.us_per_update", per_update (wire_ns *. float_of_int wire_frames /. 1e3), "us");
    ("replay.field.us_per_update", per_update (tick_ns *. float_of_int device_ticks /. 1e3), "us");
  ]

let trace ?(smoke = false) kind ~seed ~trace_file =
  Spans.reset ();
  notes := [];
  let root = Spans.open_ ("run:" ^ Workload.name kind) in
  (* 1. Untraced reference run (one System.run call for the window):
        the overhead baseline, checked against the repository scenario
        at the same seed and length. *)
  let ref_digest, ref_host_us, ref_summary =
    Spans.with_span "reference" (fun () ->
        let r = Workload.execute ~smoke kind ~seed in
        Workload.check ~smoke r;
        (Workload.trajectory_digest r, host_us_per_update r, summary r.sys))
  in
  Gc.compact ();
  Spans.with_span "scenario-equivalence" (fun () ->
      scenario_check ~smoke kind ~seed ref_summary);
  Gc.compact ();
  (* 2. Traced run: telemetry on, window in virtual-time slices, GC
        runtime events and live-heap probes at the window's edges. *)
  let pending_max = ref 0 and live0 = ref 0 and live1 = ref 0 in
  let gc0 = ref (Gc.quick_stat ()) and gc1 = ref (Gc.quick_stat ()) in
  let window_span = ref None in
  let hooks =
    {
      Workload.on_phase = (fun name f -> Spans.with_span name f);
      on_window_start =
        (fun () ->
          live0 := Gc_probe.live_words ();
          gc0 := Gc.quick_stat ();
          Gc_probe.begin_window ();
          window_span := Some (Spans.open_ "window"));
      on_window_end =
        (fun () ->
          Spans.close (Option.get !window_span);
          Gc_probe.end_window ();
          gc1 := Gc.quick_stat ();
          live1 := Gc_probe.live_words ());
      on_slice =
        (fun sys i f ->
          let engine = Spire.System.engine sys in
          let v0 = Sim.Engine.now engine
          and e0 = Sim.Engine.processed engine
          and k0 = Spire.System.confirmed_updates sys in
          Spans.with_span
            (Printf.sprintf "window-slice-%d" i)
            ~args:(fun () ->
              [
                ("virtual_start_us", string_of_int v0);
                ("virtual_end_us", string_of_int (Sim.Engine.now engine));
                ("events", string_of_int (Sim.Engine.processed engine - e0));
                ("confirmed", string_of_int (Spire.System.confirmed_updates sys - k0));
                ("routing", json_string (match Spire.System.dissemination sys with
                  | Overlay.Net.Shortest -> "shortest"
                  | Overlay.Net.Redundant k -> Printf.sprintf "redundant-%d" k
                  | Overlay.Net.Flood -> "flood"));
              ])
            (fun () ->
              f ();
              pending_max := max !pending_max (Sim.Engine.pending engine);
              Gc_probe.poll ()));
    }
  in
  let r =
    Spans.with_span "traced" (fun () ->
        Workload.execute ~smoke ~telemetry:true ~sliced:true ~hooks kind ~seed)
  in
  Workload.check ~smoke r;
  if Workload.trajectory_digest r <> ref_digest then
    fail "%s: the traced, sliced run left the untraced run's trajectory" (Workload.name kind);
  if !Gc_probe.lost > 0 then note "gc: %d runtime events lost (ring overflow)" !Gc_probe.lost;
  let cw = Workload.confirmed_in_window r in
  let kupdates = float_of_int cw /. 1e3 in
  let gc =
    [
      ("gc.minor_per_kupdate", float_of_int !Gc_probe.minors /. kupdates, "count");
      ( "gc.major_collections",
        float_of_int (!gc1.Gc.major_collections - !gc0.Gc.major_collections),
        "count" );
      ("gc.minor_ms_per_kupdate", Int64.to_float !Gc_probe.minor_ns /. 1e6 /. kupdates, "ms");
      ("gc.major_ms_per_kupdate", Int64.to_float !Gc_probe.major_ns /. 1e6 /. kupdates, "ms");
      ( "gc.live_kb_per_update",
        float_of_int ((!live1 - !live0) * (Sys.word_size / 8)) /. 1e3 /. float_of_int cw,
        "kB" );
    ]
  in
  let knob_ms =
    match first_knob_ms r with
    | Some ms -> ms
    | None ->
      note "control.first_knob_ms: no knob applied in the window on %s; reported as 0"
        (Workload.name kind);
      0.
  in
  let layer = layer_counts r ~pending_max:!pending_max in
  let telemetry = telemetry_metrics r.sys in
  let traced_host_us = host_us_per_update r in
  Spans.close root;
  (* 3. Layer replays (after the traced run, outside its window). *)
  let replay_root = Spans.open_ "replays" in
  let replayed = replays ~smoke r ~pending_max:!pending_max in
  Spans.close replay_root;
  let metrics =
    layer @ gc
    @ [ ("control.first_knob_ms", knob_ms, "virtual_ms") ]
    @ telemetry
    @ [ ("telemetry.overhead_ratio", traced_host_us /. ref_host_us, "ratio") ]
    @ replayed
    @ [ ("e2e.host_us_per_update", ref_host_us, "us") ]
  in
  Spans.write trace_file;
  ( metrics,
    [
      ("workload", json_string (Workload.name kind));
      ("metrics", metrics_json metrics);
      ("submitted", string_of_int r.stats.submitted);
      ("failed", string_of_int (r.stats.submitted - r.stats.confirmed_of_submitted));
      ("trajectory_digest", json_string ref_digest);
      ("notes", "[" ^ String.concat ", " (List.rev_map json_string !notes) ^ "]");
    ] )

(* ------------------------------------------------------------------ *)
(* Smoke mode: every workload, every check, tiny lengths *)

let smoke () =
  List.iter
    (fun kind ->
      let seed = 0x5917EL in
      let a = Workload.execute ~smoke:true kind ~seed in
      Workload.check ~smoke:true a;
      let b = Workload.execute ~smoke:true kind ~seed in
      if Workload.trajectory_digest a <> Workload.trajectory_digest b then
        fail "smoke %s: two runs of one seed disagree" (Workload.name kind);
      ignore (metrics_json (end_to_end a) : string);
      let path = Printf.sprintf "smoke-trace-%s.json" (Workload.name kind) in
      let metrics, _ = trace ~smoke:true kind ~seed ~trace_file:path in
      Sys.remove path;
      Printf.printf "smoke %s: ok (%d per-layer metrics)\n%!" (Workload.name kind)
        (List.length metrics))
    Workload.all

let () =
  let usage () =
    prerr_endline
      "usage: spire_bench.exe (rep <workload> <seed> [smoke] | trace <workload> <seed> <trace-file> [smoke] | smoke)";
    exit 2
  in
  let kind w = match Workload.of_name w with Some k -> k | None -> usage () in
  let seed s = match Int64.of_string_opt s with Some v -> v | None -> usage () in
  try
    match Array.to_list Sys.argv |> List.tl with
    | [ "rep"; w; s ] -> rep (kind w) ~seed:(seed s)
    | [ "rep"; w; s; "smoke" ] -> rep ~smoke:true (kind w) ~seed:(seed s)
    | [ "trace"; w; s; path ] ->
      let _, fields = trace (kind w) ~seed:(seed s) ~trace_file:path in
      print_endline (json_object fields)
    | [ "trace"; w; s; path; "smoke" ] ->
      let _, fields = trace ~smoke:true (kind w) ~seed:(seed s) ~trace_file:path in
      print_endline (json_object fields)
    | [ "smoke" ] -> smoke ()
    | _ -> usage ()
  with Failure msg ->
    prerr_endline ("spire_bench: " ^ msg);
    exit 1
