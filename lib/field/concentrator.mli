(** Per-substation data concentrator: the aggregation tier between a
    device fleet and the intrusion-tolerant core.

    A concentrator owns [config.devices] register-mapped devices
    ({!Device}) and one link session per device ({!Session}). Every
    [scan_interval_us] it runs a scan round:

    - steps each session (keep-alive / link-down / relink);
    - ticks each linked device and collects its report-by-exception
      events into a per-device report frame (charged to the wire
      ledger via [charge]);
    - deduplicates replayed frames on the session sequence watermark;
    - folds the whole round into {e one} compact
      [Scada.Op.Field_report] aggregate submitted through its
      {!Scada.Endpoint} — so a thousand devices cost one ordered
      operation per round, and the endpoint's batch policy further
      packs aggregates into [Client_batch] frames.

    A separate write workload issues [Scada.Op.Field_write] operations;
    the device is actuated (a Modbus [0x10] write on the field link)
    only after the ordered write is confirmed — confirmed-write count
    is therefore an end-to-end metric through the BFT core.

    Determinism: all randomness (device processes, keep-alive loss,
    write workload) derives from [seed] via [Sim.Rng.derive]. *)

type config = {
  devices : int;
  scan_interval_us : int;
  phase_us : int;  (** stagger offset for this concentrator's timers *)
  write_interval_us : int;  (** 0 disables the write workload *)
  keepalive_loss : float;
}

val default_config : config

type frame =
  [ `Advert of Scada.Field_frame.advert | `Report of Scada.Field_frame.report ]

type t

type stats = {
  device_count : int;
  rounds : int;
  events_seen : int;
  reports_accepted : int;
  dups_dropped : int;
  churn : int;
  adverts_sent : int;
  report_frames : int;
  polls_sent : int;
  poll_bytes : int;  (** local Modbus link bytes (integrity polls, writes) *)
  writes_issued : int;
  confirmed_events : int;
  confirmed_writes : int;
}

(** [create ~engine ~id ~client_id ~first_device ~seed ~group
    ~resubmit_timeout_us ~submit ~charge ~config ()] — [charge]
    receives every field-link frame (adverts and reports) for wire
    accounting; [first_device] is the global id of device 0. *)
val create :
  ?telemetry:Telemetry.Sink.t ->
  ?batch:Bft.Batch.policy ->
  ?submit_batch:(Bft.Update.t list -> unit) ->
  engine:Sim.Engine.t ->
  id:int ->
  client_id:Bft.Types.client ->
  first_device:int ->
  seed:int64 ->
  group:Cryptosim.Threshold.group ->
  resubmit_timeout_us:int ->
  submit:(attempt:int -> Bft.Update.t -> unit) ->
  charge:(frame -> unit) ->
  config:config ->
  unit ->
  t

(** [start t] arms the scan and write timers (first round fires at
    [phase_us + scan_interval_us]). *)
val start : t -> unit

val stop : t -> unit
val endpoint : t -> Scada.Endpoint.t
val id : t -> int
val device_count : t -> int
val device : t -> int -> Device.t
val handle_reply : t -> Scada.Reply.t -> unit

(** [set_on_complete t f] — [f] fires after the concentrator's own
    completion bookkeeping (confirmed-event tally, deferred
    actuation). *)
val set_on_complete : t -> (Bft.Update.t -> latency_us:int -> unit) -> unit

val stats : t -> stats
