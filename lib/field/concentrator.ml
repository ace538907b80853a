type config = {
  devices : int;
  scan_interval_us : int;
  phase_us : int;
  write_interval_us : int;
  keepalive_loss : float;
}

let default_config =
  {
    devices = 100;
    scan_interval_us = 200_000;
    phase_us = 0;
    write_interval_us = 1_000_000;
    keepalive_loss = 0.005;
  }

type frame =
  [ `Advert of Scada.Field_frame.advert | `Report of Scada.Field_frame.report ]

type t = {
  id : int;
  first_device : int;
  config : config;
  engine : Sim.Engine.t;
  rng : Sim.Rng.t;  (* write-workload draws only *)
  devices : Device.t array;
  sessions : Session.t array;
  last_report : Scada.Field_frame.report option array;
  endpoint : Scada.Endpoint.t;
  charge : frame -> unit;
  mutable scan_timer : Sim.Engine.timer option;
  mutable write_timer : Sim.Engine.timer option;
  mutable running : bool;
  mutable round : int;
  mutable next_txn : int;
  mutable events_seen : int;
  mutable reports_accepted : int;
  mutable adverts_sent : int;
  mutable report_frames : int;
  mutable poll_bytes : int;
  mutable polls_sent : int;
  mutable writes_issued : int;
  mutable confirmed_events : int;
  mutable confirmed_writes : int;
  mutable on_complete : Bft.Update.t -> latency_us:int -> unit;
}

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
  poll_bytes : int;
  writes_issued : int;
  confirmed_events : int;
  confirmed_writes : int;
}

let note_complete (t : t) u ~latency_us:_ =
  match Scada.Op.of_update u with
  | Ok (Scada.Op.Field_report { events; _ }) ->
    t.confirmed_events <- t.confirmed_events + events
  | Ok (Scada.Op.Field_write { device; address; value; _ }) -> (
    (* Actuate only once the write is ordered and confirmed: gateway
       the ordered command into a Modbus multi-register write on the
       device's field link. *)
    let i = device - t.first_device in
    if i >= 0 && i < Array.length t.devices then begin
      t.next_txn <- t.next_txn + 1;
      let req =
        {
          Scada.Modbus.transaction = t.next_txn land 0xFFFF;
          unit_id = device land 0xFF;
          body = Scada.Modbus.Write_multiple_registers { start = address; values = [ value ] };
        }
      in
      let raw = Scada.Modbus.encode_request req in
      t.poll_bytes <- t.poll_bytes + String.length raw;
      match Scada.Modbus.decode_request raw with
      | Error _ -> ()
      | Ok dec -> (
        let resp =
          {
            Scada.Modbus.transaction = dec.Scada.Modbus.transaction;
            unit_id = dec.Scada.Modbus.unit_id;
            body = Device.serve t.devices.(i) dec.Scada.Modbus.body;
          }
        in
        let renc = Scada.Modbus.encode_response resp in
        t.poll_bytes <- t.poll_bytes + String.length renc;
        match Scada.Modbus.decode_response renc with
        | Ok { Scada.Modbus.body = Scada.Modbus.Registers_written _; _ } ->
          t.confirmed_writes <- t.confirmed_writes + 1
        | Ok _ | Error _ -> ())
    end)
  | Ok _ | Error _ -> ()

let create ?telemetry ?batch ?submit_batch ~engine ~id ~client_id
    ~first_device ~seed ~group ~resubmit_timeout_us ~submit ~charge
    ~config:(config : config) ()
    =
  if config.devices <= 0 then
    invalid_arg "Concentrator.create: need at least one device";
  let endpoint =
    Scada.Endpoint.create ?telemetry ?batch ?submit_batch ~engine
      ~client_id ~group ~resubmit_timeout_us ~submit ()
  in
  let t =
    {
      id;
      first_device;
      config;
      engine;
      rng = Sim.Rng.create (Sim.Rng.derive ~seed ~index:0);
      devices =
        Array.init config.devices (fun i ->
            Device.create ~id:(first_device + i) ~concentrator:id
              ~seed:(Sim.Rng.derive ~seed ~index:(1 + i)));
      sessions =
        Array.init config.devices (fun i ->
            Session.create
              ~seed:(Sim.Rng.derive ~seed ~index:(1 + config.devices + i))
              ~loss:config.keepalive_loss);
      last_report = Array.make config.devices None;
      endpoint;
      charge;
      scan_timer = None;
      write_timer = None;
      running = false;
      round = 0;
      next_txn = 0;
      events_seen = 0;
      reports_accepted = 0;
      adverts_sent = 0;
      report_frames = 0;
      poll_bytes = 0;
      polls_sent = 0;
      writes_issued = 0;
      confirmed_events = 0;
      confirmed_writes = 0;
      on_complete = (fun _ ~latency_us:_ -> ());
    }
  in
  Scada.Endpoint.set_on_complete endpoint (fun u ~latency_us ->
      note_complete t u ~latency_us;
      t.on_complete u ~latency_us);
  t

let endpoint t = t.endpoint
let id t = t.id
let device_count t = Array.length t.devices

let set_on_complete t f = t.on_complete <- f

(* Periodic integrity poll: a full read of one register table over the
   modeled Modbus link, alternating between the two "new" read function
   codes. Staggered so 1/8th of the fleet polls each round. *)
let integrity_poll (t : t) i =
  let dev = t.devices.(i) in
  t.next_txn <- t.next_txn + 1;
  let body =
    if (t.round + i) land 8 = 0 then
      Scada.Modbus.Read_input_registers
        { start = 0; count = Device.input_registers_count }
    else
      Scada.Modbus.Read_discrete_inputs
        { start = 0; count = Device.discrete_inputs_count }
  in
  let req =
    {
      Scada.Modbus.transaction = t.next_txn land 0xFFFF;
      unit_id = Device.id dev land 0xFF;
      body;
    }
  in
  let raw = Scada.Modbus.encode_request req in
  match Scada.Modbus.decode_request raw with
  | Error _ -> ()
  | Ok dec ->
    let resp =
      {
        Scada.Modbus.transaction = dec.Scada.Modbus.transaction;
        unit_id = dec.Scada.Modbus.unit_id;
        body = Device.serve dev dec.Scada.Modbus.body;
      }
    in
    let renc = Scada.Modbus.encode_response resp in
    t.polls_sent <- t.polls_sent + 1;
    t.poll_bytes <- t.poll_bytes + String.length raw + String.length renc

let scan_round (t : t) =
  t.round <- t.round + 1;
  let round_events = ref 0 in
  let round_devices = ref 0 in
  let checksum = ref 0 in
  for i = 0 to Array.length t.devices - 1 do
    let dev = t.devices.(i) and s = t.sessions.(i) in
    match Session.step s with
    | `Offline -> ()
    | `Relink ->
      (* Capability-advertisement handshake, then replay of the last
         report frame (the device cannot know it was delivered). The
         concentrator's sequence high-watermark drops the duplicate. *)
      t.charge (`Advert (Device.advert dev));
      t.adverts_sent <- t.adverts_sent + 1;
      (match t.last_report.(i) with
      | None -> ()
      | Some f ->
        t.charge (`Report f);
        t.report_frames <- t.report_frames + 1;
        ignore (Session.accept s ~seq:f.Scada.Field_frame.seq : bool))
    | `Online ->
      let events = Device.tick dev in
      if (t.round + i) mod 8 = 0 then integrity_poll t i;
      if events <> [] then begin
        let seq = Session.next_seq s in
        let f =
          {
            Scada.Field_frame.concentrator = t.id;
            device = Device.id dev;
            seq;
            events;
          }
        in
        t.charge (`Report f);
        t.report_frames <- t.report_frames + 1;
        t.last_report.(i) <- Some f;
        if Session.accept s ~seq then begin
          let n = List.length events in
          t.events_seen <- t.events_seen + n;
          t.reports_accepted <- t.reports_accepted + 1;
          round_events := !round_events + n;
          incr round_devices;
          checksum :=
            ((!checksum * 31) + Scada.Field_frame.report_checksum f)
            land 0x3FFF_FFFF
        end
      end
  done;
  (* Hierarchical aggregation: the whole round folds into one compact
     ordered operation, however many devices reported. *)
  if !round_events > 0 then
    ignore
      (Scada.Endpoint.send_op t.endpoint
         (Scada.Op.Field_report
            {
              concentrator = t.id;
              round = t.round;
              devices = !round_devices;
              events = !round_events;
              checksum = !checksum land 0x3FFF_FFFF;
            })
        : Bft.Update.t)

let issue_write (t : t) =
  let i = Sim.Rng.int t.rng (Array.length t.devices) in
  if Session.state t.sessions.(i) = Session.Up then begin
    let address = Sim.Rng.int t.rng Device.holding_registers_count in
    let value = Sim.Rng.int t.rng 0x10000 in
    t.writes_issued <- t.writes_issued + 1;
    ignore
      (Scada.Endpoint.send_op t.endpoint
         (Scada.Op.Field_write
            { concentrator = t.id; device = Device.id t.devices.(i); address; value })
        : Bft.Update.t)
  end

let start t =
  if not t.running then begin
    t.running <- true;
    Scada.Endpoint.start t.endpoint;
    t.scan_timer <-
      Some
        (Sim.Engine.schedule t.engine
           ~delay_us:(t.config.phase_us + t.config.scan_interval_us)
           (fun () ->
             scan_round t;
             t.scan_timer <-
               Some
                 (Sim.Engine.periodic t.engine
                    ~interval_us:t.config.scan_interval_us (fun () ->
                      scan_round t))));
    if t.config.write_interval_us > 0 then
      t.write_timer <-
        Some
          (Sim.Engine.schedule t.engine
             ~delay_us:(t.config.phase_us + t.config.write_interval_us)
             (fun () ->
               issue_write t;
               t.write_timer <-
                 Some
                   (Sim.Engine.periodic t.engine
                      ~interval_us:t.config.write_interval_us (fun () ->
                        issue_write t))))
  end

let stop t =
  t.running <- false;
  Option.iter Sim.Engine.cancel t.scan_timer;
  Option.iter Sim.Engine.cancel t.write_timer;
  t.scan_timer <- None;
  t.write_timer <- None

let stats (t : t) =
  {
    device_count = Array.length t.devices;
    rounds = t.round;
    events_seen = t.events_seen;
    reports_accepted = t.reports_accepted;
    dups_dropped =
      Array.fold_left (fun acc s -> acc + Session.dups_dropped s) 0 t.sessions;
    churn = Array.fold_left (fun acc s -> acc + Session.churn s) 0 t.sessions;
    adverts_sent = t.adverts_sent;
    report_frames = t.report_frames;
    polls_sent = t.polls_sent;
    poll_bytes = t.poll_bytes;
    writes_issued = t.writes_issued;
    confirmed_events = t.confirmed_events;
    confirmed_writes = t.confirmed_writes;
  }

let handle_reply t reply =
  ignore (Scada.Endpoint.handle_reply t.endpoint reply : Scada.Reply.body option)

let device t i = t.devices.(i)
