type mode = Shortest | Redundant of int | Flood

type 'a delivery = {
  frame_src : Topology.node;
  frame_dst : Topology.node;
  payload : 'a;
  sent_us : int;
  delivered_us : int;
}

type stats = {
  submitted : int;
  delivered : int;
  duplicates_suppressed : int;
  dropped_queue_full : int;
  dropped_link_down : int;
  dropped_no_route : int;
  dropped_arq_exhausted : int;
  dropped_retired_src : int;
  junk_frames : int;
  submitted_bytes : int;
  delivered_bytes : int;
  dropped_bytes : int;
}

(* Junk carries the attacker's actual bytes ("" when a raw test only
   cares about the size); it consumes bandwidth but is never delivered
   to a handler — the daemon's decode-and-authenticate step drops it. *)
type 'a content = Payload of 'a | Junk of string

type 'a frame = {
  id : int;
  src : Topology.node;
  dst : Topology.node;
  priority : Fair_queue.priority;
  size_bytes : int;
  content : 'a content;
  sent_us : int;
  flood : bool; (* constrained flooding; otherwise the frame follows [path] *)
  mutable path : Topology.node list;
      (* remaining hops, next first. A path frame has exactly one live
         copy, so each hop advances it in place instead of copying the
         frame. *)
  dedup : bool;
      (* only flooded / redundantly-routed frames can arrive more than
         once; single-path frames skip dedup bookkeeping entirely *)
  trace : int;
      (* telemetry trace context riding alongside the payload; -1 when
         the frame is untraced, making the hot-path guard one int
         compare *)
}

(* Directed link runtime state. A link serialises one frame at a time,
   so the frame on the wire, its ARQ attempt and its open span live
   here rather than in a closure per transmission; the two completion
   callbacks are built once per link. *)
type 'a link_state = {
  from_node : Topology.node;
  to_node : Topology.node;
  label : string; (* "u->v", the label of every hop span on this link *)
  latency_us : int;
  bandwidth_bps : int;
  queue : 'a frame Fair_queue.t;
  mutable busy : bool;
  mutable frame : 'a frame;
      (* the frame on the wire while [busy]; the net's [no_frame]
         sentinel otherwise, so an idle link keeps no frame alive *)
  mutable attempt : int; (* ARQ transmissions of [frame] before this one *)
  mutable span : int;
      (* open Net_transmit / Net_arq span of [frame], -1 when none *)
  on_transmitted : unit -> unit;
  on_arq_timeout : unit -> unit;
  mutable latency_factor : float;
  mutable loss_probability : float;
      (* per-transmission drop probability; the hop-by-hop ARQ below
         retransmits lost frames, trading latency for reliability as
         the real overlay daemons do *)
  mutable retransmissions : int;
  mutable tx_bytes : int; (* bytes serialised, retransmissions included *)
  mutable tx_busy_us : int; (* virtual time spent serialising frames *)
}

type 'a t = {
  engine : Sim.Engine.t;
  rng : Sim.Rng.t;
  topo : Topology.t;
  nodes : int;
  (* Directed link state in a flat [u * nodes + v] array: the per-hop
     path touches link state several times per frame, and tuple-keyed
     hashtables there cost a key allocation plus hashing per access. *)
  links : 'a link_state option array;
  neighbours : Topology.node array array;
      (* per node, in {!Topology.neighbors} order; links are a snapshot
         taken at creation, so flooding never re-sorts the list *)
  link_up : bool array; (* undirected, normalised [a * nodes + b] *)
  node_up : bool array;
  (* Membership guard: a retired node's id is no longer a valid frame
     source (its site was removed from the configuration).  Frames
     claiming a retired — or out-of-range — src are counted and
     dropped before they can index the per-node state rows. *)
  retired : bool array;
  handlers : ('a delivery -> unit) option array;
  seen : Dedup_cache.t array; (* per node: flooded frame ids seen *)
  delivered_ids : Dedup_cache.t array; (* per node: dedup'd frame ids delivered *)
  (* Global statistics plus the frame-id allocator. Frame ids are only
     ever compared for equality (dedup caches, queue-span keys), never
     ordered or printed. *)
  ctrs : counters;
  per_source_cap : int;
  (* Route caches: shortest paths and disjoint path sets are stable
     between topology state changes (kill/restore); recomputing them
     per frame dominates CPU otherwise. [route_cache.(src * nodes + dst)]
     is [None] when not yet computed. *)
  route_cache : Topology.node list option option array;
  kpath_cache : (int, Topology.node list list) Hashtbl.t;
      (* key = (src * nodes + dst) * 1024 + min k 1023 *)
  mutable telemetry : Telemetry.Sink.t;
  queue_spans : (int, int) Hashtbl.t;
      (* open Net_queue span per queued traced frame, keyed by
         [frame.id * nodes² + link index] — a frame record is shared
         across links when flooding, so the span id cannot live on the
         frame itself *)
  no_frame : 'a frame; (* the empty-slot sentinel of [link_state.frame] *)
}

and counters = {
  mutable c_frame_seq : int;
  mutable c_submitted : int;
  mutable c_delivered : int;
  mutable c_duplicates_suppressed : int;
  mutable c_dropped_queue_full : int;
  mutable c_dropped_link_down : int;
  mutable c_dropped_no_route : int;
  mutable c_dropped_arq_exhausted : int;
  mutable c_dropped_retired_src : int;
  mutable c_junk_frames : int;
  mutable c_submitted_bytes : int;
  mutable c_delivered_bytes : int;
  mutable c_dropped_bytes : int;
}

let norm_idx t a b = if a < b then (a * t.nodes) + b else (b * t.nodes) + a

let topology t = t.topo
let set_telemetry t sink = t.telemetry <- sink

(* Per-hop telemetry. Traced frames ([frame.trace >= 0], sink enabled)
   get root-level spans for each thing that can cost them time on a
   link: waiting in the fair queue, occupying the link, waiting out an
   ARQ retransmission, and propagating. The transmit and ARQ span ids
   live in the link's transmit state, the queue-wait ones in
   [queue_spans], the propagation one in its arrival closure. *)
let traced t frame = frame.trace >= 0 && Telemetry.Sink.enabled t.telemetry

let qspan_key t ls frame_id =
  (frame_id * t.nodes * t.nodes) + (ls.from_node * t.nodes) + ls.to_node

let open_hop_span t ~phase ls frame =
  Telemetry.Sink.open_span t.telemetry ~trace:frame.trace ~phase ~node:ls.from_node
    ~label:ls.label ~now:(Sim.Engine.now t.engine) ()

let close_hop_span t sid =
  Telemetry.Sink.close_span t.telemetry ~id:sid ~now:(Sim.Engine.now t.engine)

let set_handler t node f = t.handlers.(node) <- Some f
let link_alive t a b = t.link_up.(norm_idx t a b)
let node_alive t n = t.node_up.(n)
let usable t a b = link_alive t a b && t.node_up.(a) && t.node_up.(b)

let link_state t a b =
  match t.links.((a * t.nodes) + b) with
  | Some ls -> ls
  | None -> invalid_arg "Net: no such link"

let drop_link_down t frame =
  let c = t.ctrs in
  c.c_dropped_link_down <- c.c_dropped_link_down + 1;
  c.c_dropped_bytes <- c.c_dropped_bytes + frame.size_bytes

(* Deliver a frame that has arrived at its destination.  A frame whose
   source was retired while the frame was in flight is dropped here:
   stale-site traffic must neither reach handlers nor fault on the
   flattened per-node arrays. *)
let deliver t node frame =
  if frame.src < 0 || frame.src >= t.nodes || t.retired.(frame.src) then begin
    let c = t.ctrs in
    c.c_dropped_retired_src <- c.c_dropped_retired_src + 1;
    c.c_dropped_bytes <- c.c_dropped_bytes + frame.size_bytes
  end
  else if
    frame.dedup && Dedup_cache.mem t.delivered_ids.(node) frame.id
  then begin
    let c = t.ctrs in
    c.c_duplicates_suppressed <- c.c_duplicates_suppressed + 1
  end
  else begin
    if frame.dedup then
      Dedup_cache.add t.delivered_ids.(node) frame.id;
    match frame.content with
    | Junk _ -> ()
    | Payload payload ->
      let c = t.ctrs in
      c.c_delivered <- c.c_delivered + 1;
      c.c_delivered_bytes <- c.c_delivered_bytes + frame.size_bytes;
      (match t.handlers.(node) with
      | None -> ()
      | Some handler ->
        handler
          {
            frame_src = frame.src;
            frame_dst = frame.dst;
            payload;
            sent_us = frame.sent_us;
            delivered_us = Sim.Engine.now t.engine;
          })
  end

(* Start transmitting the head frame of the link if idle.

   Hop-by-hop reliability (ARQ): each transmission is lost with the
   link's loss probability; lost frames are retransmitted after a
   timeout of one RTT, up to [max_retransmissions] attempts. This is
   the overlay daemons' per-hop recovery; end-to-end modes (redundant
   paths, flooding) sit on top of it. *)
let max_retransmissions = 8

let rec maybe_transmit t ls =
  if (not ls.busy) && not (Fair_queue.is_empty ls.queue) then begin
    let frame = Fair_queue.take ls.queue in
    if traced t frame then begin
      let key = qspan_key t ls frame.id in
      match Hashtbl.find t.queue_spans key with
      | sid ->
        Hashtbl.remove t.queue_spans key;
        close_hop_span t sid
      | exception Not_found -> ()
    end;
    ls.frame <- frame;
    ls.attempt <- 0;
    transmit_frame t ls
  end

and transmit_frame t ls =
  let frame = ls.frame in
  ls.busy <- true;
  let tx_us = max 1 (frame.size_bytes * 1_000_000 / ls.bandwidth_bps) in
  ls.tx_bytes <- ls.tx_bytes + frame.size_bytes;
  ls.tx_busy_us <- ls.tx_busy_us + tx_us;
  ls.span <-
    (if traced t frame then
       open_hop_span t ~phase:Telemetry.Span.Net_transmit ls frame
     else -1);
  ignore
    (Sim.Engine.schedule t.engine ~delay_us:tx_us ls.on_transmitted
      : Sim.Engine.timer)

(* [ls.on_transmitted]: the frame on the wire has been serialised. *)
and transmitted t ls =
  let frame = ls.frame in
  if ls.span >= 0 then close_hop_span t ls.span;
  let prop = int_of_float (float_of_int ls.latency_us *. ls.latency_factor) in
  let lost =
    ls.loss_probability > 0. && Sim.Rng.bernoulli t.rng ls.loss_probability
  in
  if lost && ls.attempt < max_retransmissions then begin
    (* The sender detects the loss after ~one round trip and
       retransmits; the link stays occupied meanwhile. *)
    ls.retransmissions <- ls.retransmissions + 1;
    ls.span <-
      (if traced t frame then
         open_hop_span t ~phase:Telemetry.Span.Net_arq ls frame
       else -1);
    ignore
      (Sim.Engine.schedule t.engine ~delay_us:(2 * prop) ls.on_arq_timeout
        : Sim.Engine.timer)
  end
  else begin
    ls.busy <- false;
    ls.frame <- t.no_frame;
    ls.span <- -1;
    if lost then begin
      (* All ARQ attempts failed: the frame is gone for good.
         Surface the drop in stats and keep the queue draining —
         a hot-loss link must not wedge its fair queue. *)
      let c = t.ctrs in
      c.c_dropped_arq_exhausted <- c.c_dropped_arq_exhausted + 1;
      c.c_dropped_bytes <- c.c_dropped_bytes + frame.size_bytes
    end
    else begin
      (* The one closure a delivered hop allocates: a link's arrivals
         are not FIFO (its latency factor can drop while frames are in
         flight), so each copy carries its own. *)
      let prop_sid =
        if traced t frame then
          open_hop_span t ~phase:Telemetry.Span.Net_propagate ls frame
        else -1
      in
      ignore
        (Sim.Engine.schedule t.engine ~delay_us:prop (fun () ->
             if prop_sid >= 0 then close_hop_span t prop_sid;
             arrive t ls frame)
          : Sim.Engine.timer)
    end;
    maybe_transmit t ls
  end

(* [ls.on_arq_timeout]: retransmit the frame on the wire. *)
and arq_timeout t ls =
  if ls.span >= 0 then close_hop_span t ls.span;
  ls.attempt <- ls.attempt + 1;
  transmit_frame t ls

(* Frame arrives at [ls.to_node] over [ls]. *)
and arrive t ls frame =
  let u = ls.from_node and v = ls.to_node in
  if not (usable t u v) then drop_link_down t frame
  else if frame.flood then begin
    if not (Dedup_cache.mem t.seen.(v) frame.id) then begin
      Dedup_cache.add t.seen.(v) frame.id;
      if v = frame.dst then deliver t v frame;
      (* Constrained flooding: forward on all usable links except the
         one the frame came in on. *)
      let ns = t.neighbours.(v) in
      for i = 0 to Array.length ns - 1 do
        let w = ns.(i) in
        if w <> u && usable t v w then enqueue t v w frame
      done
    end
  end
  else if v = frame.dst then deliver t v frame
  else
    match frame.path with
    | next :: (hop :: _ as rest) when next = v ->
      if usable t v hop then begin
        frame.path <- rest;
        enqueue t v hop frame
      end
      else drop_link_down t frame
    | _ -> drop_link_down t frame

and enqueue t u v frame =
  let ls = link_state t u v in
  if Fair_queue.push ls.queue ~source:frame.src ~priority:frame.priority frame
  then begin
    (* Open the queue-wait span before [maybe_transmit]: an idle link
       takes the frame straight back out and closes it at zero width. *)
    if traced t frame then begin
      let sid = open_hop_span t ~phase:Telemetry.Span.Net_queue ls frame in
      if sid >= 0 then Hashtbl.replace t.queue_spans (qspan_key t ls frame.id) sid
    end;
    maybe_transmit t ls
  end
  else begin
    let c = t.ctrs in
    c.c_dropped_queue_full <- c.c_dropped_queue_full + 1;
    c.c_dropped_bytes <- c.c_dropped_bytes + frame.size_bytes
  end

let create ?(per_source_cap = 64) engine topo () =
  let n = Topology.node_count topo in
  let t =
    {
      engine;
      rng = Sim.Engine.rng engine;
      topo;
      nodes = n;
      links = Array.make (n * n) None;
      neighbours =
        Array.init n (fun v -> Array.of_list (Topology.neighbors topo v));
      link_up = Array.make (n * n) false;
      node_up = Array.make n true;
      retired = Array.make n false;
      handlers = Array.make n None;
      seen = Array.init n (fun _ -> Dedup_cache.create ());
      delivered_ids = Array.init n (fun _ -> Dedup_cache.create ());
      ctrs =
        {
          c_frame_seq = 0;
          c_submitted = 0;
          c_delivered = 0;
          c_duplicates_suppressed = 0;
          c_dropped_queue_full = 0;
          c_dropped_link_down = 0;
          c_dropped_no_route = 0;
          c_dropped_arq_exhausted = 0;
          c_dropped_retired_src = 0;
          c_junk_frames = 0;
          c_submitted_bytes = 0;
          c_delivered_bytes = 0;
          c_dropped_bytes = 0;
        };
      per_source_cap;
      route_cache = Array.make (n * n) None;
      kpath_cache = Hashtbl.create 997;
      telemetry = Telemetry.Sink.null;
      queue_spans = Hashtbl.create 64;
      no_frame =
        {
          id = -1;
          src = -1;
          dst = -1;
          priority = Fair_queue.Bulk;
          size_bytes = 0;
          content = Junk "";
          sent_us = 0;
          flood = false;
          path = [];
          dedup = false;
          trace = -1;
        };
    }
  in
  List.iter
    (fun link ->
      let a = link.Topology.endpoint_a and b = link.Topology.endpoint_b in
      let mk u v =
        let rec ls =
          {
            from_node = u;
            to_node = v;
            label = string_of_int u ^ "->" ^ string_of_int v;
            latency_us = link.Topology.latency_us;
            bandwidth_bps = link.Topology.bandwidth_bps;
            queue = Fair_queue.create ~per_source_cap ~vacant:t.no_frame;
            busy = false;
            frame = t.no_frame;
            attempt = 0;
            span = -1;
            on_transmitted = (fun () -> transmitted t ls);
            on_arq_timeout = (fun () -> arq_timeout t ls);
            latency_factor = 1.0;
            loss_probability = 0.0;
            retransmissions = 0;
            tx_bytes = 0;
            tx_busy_us = 0;
          }
        in
        t.links.((u * n) + v) <- Some ls
      in
      mk a b;
      mk b a;
      t.link_up.(norm_idx t a b) <- true)
    (Topology.links topo);
  t

let invalidate_routes t =
  Array.fill t.route_cache 0 (Array.length t.route_cache) None;
  Hashtbl.reset t.kpath_cache

let cached_shortest t ~src ~dst =
  let i = (src * t.nodes) + dst in
  match t.route_cache.(i) with
  | Some path -> path
  | None ->
    let path = Routing.shortest_path t.topo ~usable:(usable t) ~src ~dst in
    t.route_cache.(i) <- Some path;
    path

let cached_disjoint t ~src ~dst ~k =
  let key = (((src * t.nodes) + dst) * 1024) + min k 1023 in
  match Hashtbl.find_opt t.kpath_cache key with
  | Some paths -> paths
  | None ->
    let paths = Routing.disjoint_paths t.topo ~usable:(usable t) ~src ~dst ~k in
    Hashtbl.replace t.kpath_cache key paths;
    paths

let fresh_id t =
  let c = t.ctrs in
  let id = c.c_frame_seq in
  c.c_frame_seq <- id + 1;
  id

let submit t ~priority ~size_bytes ~src ~dst ~mode ~trace content =
  let c = t.ctrs in
  c.c_submitted <- c.c_submitted + 1;
  c.c_submitted_bytes <- c.c_submitted_bytes + size_bytes;
  (match content with
  | Junk _ -> c.c_junk_frames <- c.c_junk_frames + 1
  | Payload _ -> ());
  if
    src < 0 || src >= t.nodes || dst < 0 || dst >= t.nodes || t.retired.(src)
  then begin
    (* Unknown or retired source id: stale-site frames after a removal
       (or forged ids) are dropped before touching any [src * nodes]
       indexed state. *)
    c.c_dropped_retired_src <- c.c_dropped_retired_src + 1;
    c.c_dropped_bytes <- c.c_dropped_bytes + size_bytes
  end
  else if not t.node_up.(src) then begin
    c.c_dropped_link_down <- c.c_dropped_link_down + 1;
    c.c_dropped_bytes <- c.c_dropped_bytes + size_bytes
  end
  else begin
    let base_frame ~flood ~dedup path =
      {
        id = fresh_id t;
        src;
        dst;
        priority;
        size_bytes;
        content;
        sent_us = Sim.Engine.now t.engine;
        flood;
        path;
        dedup;
        trace;
      }
    in
    if src = dst then begin
      let frame = base_frame ~flood:false ~dedup:false [] in
      ignore
        (Sim.Engine.schedule t.engine ~delay_us:0
           (fun () -> if t.node_up.(src) then deliver t src frame)
          : Sim.Engine.timer)
    end
    else
      match mode with
      | Flood ->
        let frame = base_frame ~flood:true ~dedup:true [] in
        Dedup_cache.add t.seen.(src) frame.id;
        let ns = t.neighbours.(src) in
        for i = 0 to Array.length ns - 1 do
          let w = ns.(i) in
          if usable t src w then enqueue t src w frame
        done
      | Shortest -> (
        match cached_shortest t ~src ~dst with
        | None ->
          c.c_dropped_no_route <- c.c_dropped_no_route + 1;
          c.c_dropped_bytes <- c.c_dropped_bytes + size_bytes
        | Some (_ :: rest) ->
          let frame = base_frame ~flood:false ~dedup:false rest in
          (match rest with
          | hop :: _ -> enqueue t src hop frame
          | [] -> deliver t src frame)
        | Some [] ->
          c.c_dropped_no_route <- c.c_dropped_no_route + 1;
          c.c_dropped_bytes <- c.c_dropped_bytes + size_bytes)
      | Redundant k -> (
        let paths = cached_disjoint t ~src ~dst ~k:(max 1 k) in
        match paths with
        | [] ->
          c.c_dropped_no_route <- c.c_dropped_no_route + 1;
          c.c_dropped_bytes <- c.c_dropped_bytes + size_bytes
        | paths ->
          (* One frame id shared by all copies so the destination
             delivers exactly one; each copy is its own record, since
             each advances its own path. *)
          let template = base_frame ~flood:false ~dedup:true [] in
          List.iter
            (fun path ->
              match path with
              | _ :: (hop :: _ as rest) ->
                enqueue t src hop { template with path = rest }
              | _ -> ())
            paths)
  end

let send t ?(priority = Fair_queue.Control) ?(trace = -1) ~size_bytes ~src ~dst
    ~mode payload =
  submit t ~priority ~size_bytes ~src ~dst ~mode ~trace (Payload payload)

let inject_junk t ~src ~dst ~size_bytes ~priority =
  submit t ~priority ~size_bytes ~src ~dst ~mode:Shortest ~trace:(-1) (Junk "")

let inject_junk_bytes t ~src ~dst ~bytes ~priority =
  submit t ~priority ~size_bytes:(String.length bytes) ~src ~dst ~mode:Shortest
    ~trace:(-1) (Junk bytes)

let has_link t a b = t.links.((a * t.nodes) + b) <> None

let kill_link t a b =
  if not (has_link t a b) then invalid_arg "Net.kill_link: no such link";
  t.link_up.(norm_idx t a b) <- false;
  invalidate_routes t

let restore_link t a b =
  if not (has_link t a b) then invalid_arg "Net.restore_link: no such link";
  t.link_up.(norm_idx t a b) <- true;
  invalidate_routes t

let kill_node t n =
  t.node_up.(n) <- false;
  invalidate_routes t

let restore_node t n =
  t.node_up.(n) <- true;
  invalidate_routes t

(* Membership retirement is orthogonal to liveness: a retired node may
   still be up (its daemons keep running on stale state) but its
   frames are no longer admissible. *)
let retire_node t n =
  if n >= 0 && n < t.nodes then t.retired.(n) <- true

let unretire_node t n =
  if n >= 0 && n < t.nodes then t.retired.(n) <- false

let node_retired t n = n >= 0 && n < t.nodes && t.retired.(n)

let set_latency_factor t a b factor =
  if factor < 1.0 then invalid_arg "Net.set_latency_factor: factor < 1";
  (link_state t a b).latency_factor <- factor;
  (link_state t b a).latency_factor <- factor

let set_loss_probability t a b p =
  if p < 0. || p >= 1. then
    invalid_arg "Net.set_loss_probability: need 0 <= p < 1";
  (link_state t a b).loss_probability <- p;
  (link_state t b a).loss_probability <- p

(* Ascending (u, v) order. *)
let fold_links t f acc =
  let acc = ref acc in
  Array.iteri
    (fun i ls ->
      match ls with
      | None -> ()
      | Some ls -> acc := f (i / t.nodes) (i mod t.nodes) ls !acc)
    t.links;
  !acc

let retransmissions t = fold_links t (fun _ _ ls acc -> acc + ls.retransmissions) 0

type link_report = {
  link_src : Topology.node;
  link_dst : Topology.node;
  tx_bytes : int;
  tx_busy_us : int;
}

let link_reports t =
  fold_links t
    (fun u v (ls : _ link_state) acc ->
      if ls.tx_bytes = 0 then acc
      else
        {
          link_src = u;
          link_dst = v;
          tx_bytes = ls.tx_bytes;
          tx_busy_us = ls.tx_busy_us;
        }
        :: acc)
    []
  |> List.sort (fun a b ->
         match compare b.tx_bytes a.tx_bytes with
         | 0 -> compare (a.link_src, a.link_dst) (b.link_src, b.link_dst)
         | c -> c)

let link_utilisation _t ~elapsed_us report =
  if elapsed_us <= 0 then 0.
  else min 1. (float_of_int report.tx_busy_us /. float_of_int elapsed_us)

let current_route t ~src ~dst =
  Routing.shortest_path t.topo ~usable:(usable t) ~src ~dst

let estimated_latency_us t ~src ~dst =
  Option.map (Routing.path_latency_us t.topo) (current_route t ~src ~dst)

let stats t =
  let c = t.ctrs in
  {
    submitted = c.c_submitted;
    delivered = c.c_delivered;
    duplicates_suppressed = c.c_duplicates_suppressed;
    dropped_queue_full = c.c_dropped_queue_full;
    dropped_link_down = c.c_dropped_link_down;
    dropped_no_route = c.c_dropped_no_route;
    dropped_arq_exhausted = c.c_dropped_arq_exhausted;
    dropped_retired_src = c.c_dropped_retired_src;
    junk_frames = c.c_junk_frames;
    submitted_bytes = c.c_submitted_bytes;
    delivered_bytes = c.c_delivered_bytes;
    dropped_bytes = c.c_dropped_bytes;
  }
