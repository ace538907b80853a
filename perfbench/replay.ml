(* Host-time replays of single layers.

   Each replay drives one layer through its public functions alone,
   with input sizes taken from a workload's recorded counts, and
   reports the host cost of one unit of that layer's work. Multiplied
   by the workload's units per confirmed update, it gives the layer's
   share of [host_us_per_update]. *)

let wall () = Unix.gettimeofday ()

(* Deterministic delay stream for replay inputs (no engine RNG, so the
   replays never depend on the workload's seed stream). *)
let lcg seed =
  let st = ref seed in
  fun bound ->
    st := ((!st * 1103515245) + 12345) land 0x3FFF_FFFF;
    !st mod bound

(* [sim ~depth ~events] — ns per event of [Sim.Engine] holding [depth]
   pending events, each of which re-schedules itself on firing (the
   common shape of protocol timers and hops). *)
let sim ~depth ~events =
  let e = Sim.Engine.create ~seed:1L () in
  let draw = lcg 17 in
  let rec tick () =
    ignore (Sim.Engine.schedule e ~delay_us:(1 + draw 50_000) tick : Sim.Engine.timer)
  in
  for _ = 1 to max 1 depth do
    tick ()
  done;
  let p0 = Sim.Engine.processed e in
  let t0 = wall () in
  while Sim.Engine.processed e - p0 < events do
    ignore (Sim.Engine.step e : bool)
  done;
  (wall () -. t0) *. 1e9 /. float_of_int events

(* [overlay ~topo ~replicas ~mode ~factor ~frames ~bytes ~rate] — µs per
   frame of [Overlay.Net] alone on the workload's topology and routing
   mode: [frames] frames of [bytes] bytes between replica nodes, sent at
   [rate] frames per virtual second; [factor] > 1 re-applies the delay
   attack to the primary WAN links. *)
let overlay ~topo ~replicas ~mode ~factor ~frames ~bytes ~rate =
  let e = Sim.Engine.create ~seed:2L () in
  let net : unit Overlay.Net.t = Overlay.Net.create e topo () in
  for node = 0 to Overlay.Topology.node_count topo - 1 do
    Overlay.Net.set_handler net node ignore
  done;
  if factor > 1. then Workload.congest net ~replicas factor;
  let gap_us = max 1 (int_of_float (1e6 /. rate)) in
  let sent = ref 0 in
  let rec send () =
    if !sent < frames then begin
      let src = !sent mod replicas in
      let dst = (src + 1 + (!sent / replicas mod (replicas - 1))) mod replicas in
      Overlay.Net.send net ~size_bytes:bytes ~src ~dst ~mode ();
      incr sent;
      ignore (Sim.Engine.schedule e ~delay_us:gap_us send : Sim.Engine.timer)
    end
  in
  let t0 = wall () in
  send ();
  Sim.Engine.run_until_quiescent e;
  let us = (wall () -. t0) *. 1e6 /. float_of_int frames in
  let st = Overlay.Net.stats net in
  (us, st.Overlay.Net.delivered)

(* ------------------------------------------------------------------ *)
(* Wire: a sample message for each kind the workloads send *)

let digest = Cryptosim.Digest.of_string "perfbench"
let vector n = Array.init n (fun i -> 1_000 + i)
let matrix n = Array.init n (fun _ -> vector n)

let update ~client ~seq =
  let rtu = Scada.Rtu.create ~id:client ~breakers:4 ~feeders:2 ~rng:(Sim.Rng.create 3L) in
  Scada.Op.to_update (Scada.Op.Status_report (Scada.Rtu.read_status rtu)) ~client
    ~client_seq:seq ~submitted_us:1_000_000

let reply ~replica ~seq =
  {
    Scada.Reply.replica;
    update_key = (replica, seq);
    exec_index = seq;
    digest;
    share = Cryptosim.Threshold.share_of_repr ~member:replica ~digest ~tag:digest;
    body = Scada.Reply.Ack;
  }

let device = lazy (Field.Device.create ~id:0 ~concentrator:0 ~seed:5L)

let report () =
  let d = Lazy.force device in
  let rec events k = match Field.Device.tick d with [] when k > 0 -> events (k - 1) | l -> l in
  { Scada.Field_frame.concentrator = 0; device = 0; seq = 1; events = events 50 }

(* [sample ~n ~batch kind] — a message of [kind] for an [n]-replica
   deployment; batch kinds carry [batch] members. [None] for kinds the
   benchmark's workloads never send. *)
let sample ~n ~batch kind =
  let prime m = Some (Wire.Message.Prime_msg (0, m)) in
  let updates () = List.init batch (fun i -> update ~client:i ~seq:(100 + i)) in
  match kind with
  | "prime/po_request" -> prime (Prime.Msg.Po_request { origin = 0; po_seq = 7; update = update ~client:1 ~seq:7 })
  | "prime/po_aru" -> prime (Prime.Msg.Po_aru { vector = vector n })
  | "prime/preprepare" -> prime (Prime.Msg.Preprepare { view = 0; seq = 9; matrix = matrix n })
  | "prime/prepare" -> prime (Prime.Msg.Prepare { view = 0; seq = 9; digest })
  | "prime/commit" -> prime (Prime.Msg.Commit { view = 0; seq = 9; digest })
  | "prime/suspect" -> prime (Prime.Msg.Suspect { view = 0 })
  | "prime/viewchange" -> prime (Prime.Msg.Viewchange { new_view = 1; last_committed = 9; prepared = [] })
  | "prime/newview" -> prime (Prime.Msg.Newview { view = 1; proposals = [] })
  | "prime/recon_request" -> prime (Prime.Msg.Recon_request { origin = 0; po_seq = 7 })
  | "prime/recon_reply" -> prime (Prime.Msg.Recon_reply { origin = 0; po_seq = 7; update = update ~client:1 ~seq:7 })
  | "prime/slot_request" -> prime (Prime.Msg.Slot_request { seq = 9 })
  | "prime/slot_reply" -> prime (Prime.Msg.Slot_reply { seq = 9; matrix = matrix n })
  | "prime/checkpoint" -> prime (Prime.Msg.Checkpoint { executed = 900; chain = digest })
  | "prime/po_batch" -> prime (Prime.Msg.Po_batch { origin = 0; first_seq = 7; updates = updates () })
  | "client_update" -> Some (Wire.Message.Client_update (update ~client:1 ~seq:7))
  | "client_batch" -> Some (Wire.Message.Client_batch (updates ()))
  | "replica_reply" -> Some (Wire.Message.Replica_reply (reply ~replica:0 ~seq:7))
  | "replica_reply_batch" ->
    Some (Wire.Message.Reply_batch (List.init batch (fun i -> reply ~replica:0 ~seq:(7 + i))))
  | "field/advert" -> Some (Wire.Message.Field_advert (Field.Device.advert (Lazy.force device)))
  | "field/report" -> Some (Wire.Message.Field_report (report ()))
  | _ -> None

let batch_kinds = [ "prime/po_batch"; "client_batch"; "replica_reply_batch" ]

(* The batch size whose sample frame comes closest to the workload's
   mean frame size of that kind. *)
let fit_batch ~n ~max_batch kind ~mean_bytes =
  if not (List.mem kind batch_kinds) then 1
  else begin
    let best = ref 1 and err = ref infinity in
    for b = 1 to max 1 max_batch do
      match sample ~n ~batch:b kind with
      | Some m ->
        let e = Float.abs (float_of_int (Wire.Envelope.size ~sender:0 m) -. mean_bytes) in
        if e < !err then (best := b; err := e)
      | None -> ()
    done;
    !best
  end

(* [wire ~n ~max_batch ~mix ~calls] — ns per [Wire.Envelope.size] call
   over the workload's kind mix [(kind, frames, bytes)]. Returns the
   cost and the frames of kinds with no sample (left out of the mix). *)
let wire ~n ~max_batch ~mix ~calls =
  let total = List.fold_left (fun acc (_, f, _) -> acc + f) 0 mix in
  let skipped = ref 0 in
  let pool =
    List.concat_map
      (fun (kind, frames, bytes) ->
        let mean_bytes = float_of_int bytes /. float_of_int frames in
        let batch = fit_batch ~n ~max_batch kind ~mean_bytes in
        match sample ~n ~batch kind with
        | None ->
          skipped := !skipped + frames;
          []
        | Some m ->
          let copies = max 1 (frames * 1_000 / max 1 total) in
          List.init copies (fun _ -> m))
      mix
    |> Array.of_list
  in
  if Array.length pool = 0 then (0., !skipped)
  else begin
    let len = Array.length pool in
    let acc = ref 0 in
    let t0 = wall () in
    for i = 0 to calls - 1 do
      acc := !acc + Wire.Envelope.size ~sender:(i land 7) pool.(i mod len)
    done;
    let ns = (wall () -. t0) *. 1e9 /. float_of_int calls in
    if !acc <= 0 then failwith "wire replay: non-positive frame sizes";
    (ns, !skipped)
  end

(* [prime ~cfg ~rate ~duration_us] — µs per executed update of n Prime
   replicas in [Bft.Cluster] over the deployment's site latencies (LAN
   inside a site, the WAN matrix across), with no overlay, fed
   [rate] updates per virtual second round-robin over the origins. *)
let prime ~(cfg : Spire.System.config) ~rate ~duration_us =
  let engine = Sim.Engine.create ~seed:4L () in
  let quorum = cfg.Spire.System.quorum in
  let n = quorum.Bft.Quorum.n in
  let site = Array.make n 0 in
  let _ =
    List.fold_left
      (fun (s, first) size ->
        for r = first to min n (first + size) - 1 do
          site.(r) <- s
        done;
        (s + 1, first + size))
      (0, 0) cfg.Spire.System.site_sizes
  in
  let latency a b =
    if site.(a) = site.(b) then cfg.Spire.System.lan_latency_us
    else cfg.Spire.System.wan_latency_us site.(a) site.(b)
  in
  let max_one_way = ref 0 in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      max_one_way := max !max_one_way (latency a b)
    done
  done;
  let pcfg =
    {
      (Prime.Replica.default_config quorum) with
      Prime.Replica.tat_threshold_us = max 100_000 ((8 * !max_one_way) + 60_000);
    }
  in
  let executed = ref 0 in
  let cluster =
    Bft.Cluster.create ~engine ~n ~latency_us:latency
      ~make:(fun i env ->
        let r =
          Prime.Replica.create pcfg env ~execute:(fun _ _ -> if i = 0 then incr executed)
        in
        Prime.Replica.start r;
        r)
      ~deliver:(fun r ~from msg -> Prime.Replica.handle r ~from msg)
  in
  let gap_us = max 1 (int_of_float (1e6 /. rate)) in
  (* Clients number their updates 1, 2, ... as [Scada.Endpoint] does;
     the deployment's 11 clients share the rate round-robin. *)
  let clients = 11 in
  let operation = (update ~client:0 ~seq:1).Bft.Update.operation in
  let seq = ref 0 in
  let rec submit () =
    let s = !seq in
    incr seq;
    let client = s mod clients in
    let u =
      Bft.Update.create ~client ~client_seq:(1 + (s / clients)) ~operation
        ~submitted_us:(Sim.Engine.now engine)
    in
    Prime.Replica.submit (Bft.Cluster.replica cluster (client mod n)) u;
    ignore (Sim.Engine.schedule engine ~delay_us:gap_us submit : Sim.Engine.timer)
  in
  let t0 = wall () in
  submit ();
  Sim.Engine.run engine ~until_us:duration_us;
  let dt = wall () -. t0 in
  if !executed = 0 then failwith "prime replay: nothing executed";
  dt *. 1e6 /. float_of_int !executed

(* [field ~devices ~rounds] — µs per [Field.Device.create] and ns per
   [Field.Device.tick] over a fleet of [devices] ticked [rounds] times. *)
let field ~devices ~rounds =
  let t0 = wall () in
  let fleet =
    Array.init devices (fun id ->
        Field.Device.create ~id ~concentrator:(id mod Workload.fleet_concentrators)
          ~seed:(Sim.Rng.derive ~seed:0xF1E1DL ~index:id))
  in
  let t1 = wall () in
  for _ = 1 to rounds do
    Array.iter (fun d -> ignore (Field.Device.tick d : Scada.Field_frame.event list)) fleet
  done;
  let t2 = wall () in
  ((t1 -. t0) *. 1e6 /. float_of_int devices, (t2 -. t1) *. 1e9 /. float_of_int (devices * rounds))
