(* The three benchmark workloads and their split run.

   Every workload runs [System.create] -> [start] -> a fixed warm-up
   window -> a measured window -> an untimed drain, all through the
   public [Spire] API, on one domain. The drain lets updates submitted
   near the end of the window confirm, so "submitted in the window and
   never confirmed" really means failed. *)

type kind = Steady | Wan_attack | Fleet

let all = [ Steady; Wan_attack; Fleet ]

let name = function
  | Steady -> "steady"
  | Wan_attack -> "wan_attack"
  | Fleet -> "fleet"

let of_name = function
  | "steady" -> Some Steady
  | "wan_attack" -> Some Wan_attack
  | "fleet" -> Some Fleet
  | _ -> None

(* Virtual-time lengths of one run. [smoke] shrinks them so every code
   path runs in about a second per workload. *)
type lengths = { warmup_us : int; window_us : int; drain_us : int; slices : int }

let lengths ~smoke = function
  | Steady ->
    if smoke then { warmup_us = 1_000_000; window_us = 2_000_000; drain_us = 1_000_000; slices = 4 }
    else { warmup_us = 10_000_000; window_us = 120_000_000; drain_us = 2_000_000; slices = 12 }
  | Wan_attack ->
    if smoke then { warmup_us = 1_000_000; window_us = 1_000_000; drain_us = 1_000_000; slices = 4 }
    else { warmup_us = 10_000_000; window_us = 12_000_000; drain_us = 2_000_000; slices = 12 }
  | Fleet ->
    if smoke then { warmup_us = 1_000_000; window_us = 2_000_000; drain_us = 1_000_000; slices = 4 }
    else { warmup_us = 5_000_000; window_us = 60_000_000; drain_us = 2_000_000; slices = 12 }

(* The E13 delay arm's attack factor and the E12 fleet shape. *)
let attack_factor = 20.
let fleet_concentrators = 4
let fleet_devices ~smoke = if smoke then 1_000 else 10_000

(* The paper's E3 bound: an update is on time if confirmed within it. *)
let on_time_bound_ms = 200.

(* Must equal the configs [Scenarios.fault_free], [Scenarios.adaptive]
   and [Scenarios.fleet] build, so the equivalence check can replay
   them at the same seed. *)
let config ?(smoke = false) ?(telemetry = false) kind ~seed =
  let d = Spire.System.default_config () in
  match kind with
  | Steady -> { d with Spire.System.seed; telemetry }
  | Wan_attack ->
    {
      d with
      Spire.System.seed;
      dissemination = Overlay.Net.Shortest;
      telemetry = true;
      adaptive = true;
    }
  | Fleet ->
    {
      d with
      Spire.System.seed;
      telemetry;
      substations = 2;
      hmis = 1;
      max_batch = 8;
      batch_delay_us = 5_000;
      field_concentrators = fleet_concentrators;
      field_devices = fleet_devices ~smoke;
    }

(* [Scenarios.congest_primary_wan] is not exported, so the delay attack
   is rebuilt here from the same public pieces: every inter-site link
   joining the first replica node of two sites is inflated. *)
let congest net ~replicas factor =
  let topo = Overlay.Net.topology net in
  let first_of_site = Hashtbl.create 7 in
  for r = 0 to replicas - 1 do
    let s = Overlay.Topology.site_of topo r in
    if not (Hashtbl.mem first_of_site s) then Hashtbl.replace first_of_site s r
  done;
  let is_gateway node =
    node < replicas
    && Hashtbl.find_opt first_of_site (Overlay.Topology.site_of topo node)
       = Some node
  in
  List.iter
    (fun (link : Overlay.Topology.link) ->
      let a = link.endpoint_a and b = link.endpoint_b in
      if
        is_gateway a && is_gateway b
        && Overlay.Topology.site_of topo a <> Overlay.Topology.site_of topo b
      then Overlay.Net.set_latency_factor net a b factor)
    (Overlay.Topology.links topo)

let congest_primary_wan sys factor =
  congest (Spire.System.net sys) ~replicas:(Spire.System.replica_count sys) factor

(* ------------------------------------------------------------------ *)
(* Counters read from the layers' public accessors *)

let endpoints sys =
  let c = Spire.System.config sys in
  List.init c.Spire.System.substations (fun i ->
      Scada.Proxy.endpoint (Spire.System.proxy sys i))
  @ List.init c.Spire.System.hmis (fun j ->
        Scada.Hmi.endpoint (Spire.System.hmi sys j))
  @ List.init (Spire.System.concentrator_count sys) (fun i ->
        Field.Concentrator.endpoint (Spire.System.concentrator sys i))

(* Distinct updates issued so far (each counted once, however often it
   was retransmitted). *)
let issued sys =
  List.fold_left
    (fun acc e -> acc + Scada.Endpoint.completed_count e + Scada.Endpoint.pending_count e)
    0 (endpoints sys)

let max_view sys =
  let best = ref 0 in
  for r = 0 to Spire.System.replica_count sys - 1 do
    if not (Spire.System.faults sys r).Bft.Faults.crashed then
      best := max !best (Spire.System.view_of sys r)
  done;
  !best

type counters = {
  at_us : int;
  events : int;
  confirmed : int;
  issued : int;
  ledger : (string * int * int) list;  (** per-kind (frames, bytes) *)
  net : Overlay.Net.stats;
  retx : int;
  links : Overlay.Net.link_report list;
  view : int;
  fleet : Field.Concentrator.stats;
  knobs_applied : int;
  knobs_rejected : int;
}

let counters sys =
  let engine = Spire.System.engine sys in
  let net = Spire.System.net sys in
  let knobs = Spire.System.knobs sys in
  {
    at_us = Sim.Engine.now engine;
    events = Sim.Engine.processed engine;
    confirmed = Spire.System.confirmed_updates sys;
    issued = issued sys;
    ledger =
      List.sort compare
        (List.filter (fun (_, f, _) -> f > 0) (Spire.System.wire_traffic sys));
    net = Overlay.Net.stats net;
    retx = Overlay.Net.retransmissions net;
    links = Overlay.Net.link_reports net;
    view = max_view sys;
    fleet = Spire.System.fleet_stats sys;
    knobs_applied = Control.Knobs.total_applied knobs;
    knobs_rejected = Control.Knobs.total_rejected knobs;
  }

(* [ledger_delta a b] — per-kind (frames, bytes) added between two
   snapshots, kinds with no new frames left out. *)
let ledger_delta a b =
  List.filter_map
    (fun (k, f1, b1) ->
      let f0, b0 =
        match List.find_opt (fun (k', _, _) -> k' = k) a.ledger with
        | Some (_, f, b) -> (f, b)
        | None -> (0, 0)
      in
      if f1 > f0 then Some (k, f1 - f0, b1 - b0) else None)
    b.ledger

let ledger_totals l =
  List.fold_left (fun (f, b) (_, f', b') -> (f + f', b + b')) (0, 0) l

(* ------------------------------------------------------------------ *)
(* One run *)

type hooks = {
  on_phase : 'a. string -> (unit -> 'a) -> 'a;
      (** wraps create / start / warm-up (traced spans) *)
  on_window_start : unit -> unit;  (** before the window clock starts *)
  on_window_end : unit -> unit;  (** after the window clock stops *)
  on_slice : Spire.System.t -> int -> (unit -> unit) -> unit;
      (** wraps virtual-time slice [i] of the window *)
}

let no_hooks =
  {
    on_phase = (fun _ f -> f ());
    on_window_start = ignore;
    on_window_end = ignore;
    on_slice = (fun _ _ f -> f ());
  }

type window = {
  submitted : int;  (** updates first issued inside the window *)
  confirmed_of_submitted : int;  (** of those, confirmed by the drain's end *)
  on_time : int;  (** of those, confirmed within {!on_time_bound_ms} *)
  p50_ms : float;
  p99_ms : float;
}

type run = {
  kind : kind;
  sys : Spire.System.t;
  setup_s : float;
  window_s : float;  (** host wall time of the measured window *)
  minor_words : float;  (** minor words allocated in the window *)
  c0 : counters;  (** at the window's start *)
  c1 : counters;  (** at the window's end *)
  stats : window;
  peak_heap_words : int;
}

let wall () = Unix.gettimeofday ()

(* Latency statistics over the updates first issued in (w0, w1]:
   confirmation time minus latency recovers each update's submit time. *)
let window_stats sys ~w0 ~w1 ~submitted =
  let h = Stats.Histogram.create () in
  let on_time = ref 0 in
  List.iter
    (fun (time_us, ms) ->
      let sub = time_us - int_of_float (Float.round (ms *. 1000.)) in
      if sub > w0 && sub <= w1 then begin
        Stats.Histogram.add h ms;
        if ms <= on_time_bound_ms then incr on_time
      end)
    (Stats.Timeseries.to_list (Spire.System.latency_series sys));
  let n = Stats.Histogram.count h in
  {
    submitted;
    confirmed_of_submitted = n;
    on_time = !on_time;
    p50_ms = (if n = 0 then 0. else Stats.Histogram.percentile h 50.);
    p99_ms = (if n = 0 then 0. else Stats.Histogram.percentile h 99.);
  }

(* [execute] drives one run. [sliced] runs the window as [slices]
   equal [System.run] calls (the traced run); otherwise one call. *)
let execute ?(smoke = false) ?(telemetry = false) ?(sliced = false)
    ?(hooks = no_hooks) kind ~seed =
  let len = lengths ~smoke kind in
  let cfg = config ~smoke ~telemetry kind ~seed in
  let t0 = wall () in
  let sys = hooks.on_phase "create" (fun () -> Spire.System.create cfg) in
  hooks.on_phase "start" (fun () -> Spire.System.start sys);
  if kind = Wan_attack then
    ignore
      (Sim.Engine.schedule_at (Spire.System.engine sys) ~time_us:len.warmup_us
         (fun () -> congest_primary_wan sys attack_factor)
        : Sim.Engine.timer);
  hooks.on_phase "warm-up" (fun () ->
      Spire.System.run sys ~duration_us:len.warmup_us);
  let setup_s = wall () -. t0 in
  hooks.on_window_start ();
  let c0 = counters sys in
  let m0 = Gc.minor_words () in
  let t1 = wall () in
  if sliced then begin
    let per = len.window_us / len.slices in
    for i = 0 to len.slices - 1 do
      let d = if i = len.slices - 1 then len.window_us - (per * i) else per in
      hooks.on_slice sys i (fun () -> Spire.System.run sys ~duration_us:d)
    done
  end
  else Spire.System.run sys ~duration_us:len.window_us;
  let t2 = wall () in
  let m1 = Gc.minor_words () in
  let c1 = counters sys in
  hooks.on_window_end ();
  Spire.System.run sys ~duration_us:len.drain_us;
  let stats =
    window_stats sys ~w0:c0.at_us ~w1:c1.at_us ~submitted:(c1.issued - c0.issued)
  in
  {
    kind;
    sys;
    setup_s;
    window_s = t2 -. t1;
    minor_words = m1 -. m0;
    c0;
    c1;
    stats;
    peak_heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
  }

let confirmed_in_window r = r.c1.confirmed - r.c0.confirmed

let per_update r x =
  let n = confirmed_in_window r in
  if n = 0 then 0. else x /. float_of_int n

(* ------------------------------------------------------------------ *)
(* Output checks *)

(* Raises [Failure] naming the first violated check. *)
let check ?(smoke = false) r =
  let fail fmt = Printf.ksprintf failwith fmt in
  Spire.System.assert_agreement r.sys;
  if (not smoke) && confirmed_in_window r < 1_000 then
    fail "%s: only %d confirmations in the window" (name r.kind) (confirmed_in_window r);
  if r.stats.submitted = 0 then fail "%s: nothing submitted in the window" (name r.kind);
  (match r.kind with
  | Wan_attack ->
    let knobs = Spire.System.knobs r.sys in
    if not (Control.Knobs.reconcile knobs) then
      fail "wan_attack: the knob journal does not reconcile";
    if Control.Knobs.total_applied knobs = 0 then
      fail "wan_attack: the controller applied no knob"
  | Fleet ->
    if (Spire.System.fleet_stats r.sys).Field.Concentrator.confirmed_events = 0 then
      fail "fleet: no confirmed field events"
  | Steady -> ())

(* Trajectory digest: what the simulated system did. Identical for
   every run of one seed, traced or not. *)
let trajectory_digest r =
  let b = Buffer.create 256 in
  let c = r.c1 in
  Printf.bprintf b "confirmed=%d events=%d issued=%d view=%d|" c.confirmed c.events
    c.issued c.view;
  List.iter (fun (k, f, by) -> Printf.bprintf b "%s:%d:%d;" k f by) c.ledger;
  Printf.bprintf b "|final_confirmed=%d final_events=%d"
    (Spire.System.confirmed_updates r.sys)
    (Sim.Engine.processed (Spire.System.engine r.sys));
  Printf.bprintf b "|w=%d/%d/%d p50=%h p99=%h" r.stats.submitted
    r.stats.confirmed_of_submitted r.stats.on_time r.stats.p50_ms r.stats.p99_ms;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Run digest: the trajectory plus the allocation count, which repeats
   exactly between untraced runs of one build. *)
let run_digest r =
  Digest.to_hex
    (Digest.string (Printf.sprintf "%s|minor=%.0f" (trajectory_digest r) r.minor_words))
