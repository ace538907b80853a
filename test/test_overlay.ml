(* Tests for the intrusion-tolerant overlay: topology, routing, fair
   queueing, and the network runtime. *)

module T = Overlay.Topology
module R = Overlay.Routing
module FQ = Overlay.Fair_queue
module N = Overlay.Net

(* ------------------------------------------------------------------ *)
(* Topology *)

let test_full_mesh () =
  let t = T.full_mesh ~nodes:4 ~latency_us:100 ~bandwidth_bps:1_000_000 in
  Alcotest.(check int) "links" 6 (List.length (T.links t));
  Alcotest.(check (list int)) "neighbors of 0" [ 1; 2; 3 ] (T.neighbors t 0);
  Alcotest.(check bool) "connected" true (T.connected t)

let test_duplicate_link_rejected () =
  let t = T.create ~nodes:3 in
  T.add_link t ~a:0 ~b:1 ~latency_us:10 ~bandwidth_bps:1000;
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Topology.add_link: duplicate link") (fun () ->
      T.add_link t ~a:1 ~b:0 ~latency_us:10 ~bandwidth_bps:1000)

let test_self_link_rejected () =
  let t = T.create ~nodes:3 in
  Alcotest.check_raises "self" (Invalid_argument "Topology.add_link: self-link")
    (fun () -> T.add_link t ~a:1 ~b:1 ~latency_us:10 ~bandwidth_bps:1000)

let test_multi_site_structure () =
  let t =
    T.multi_site ~site_sizes:[ 2; 2; 1 ] ~extra_nodes:2 ~lan_latency_us:50
      ~wan_latency_us:(fun _ _ -> 5_000)
      ~lan_bandwidth_bps:1_000_000 ~wan_bandwidth_bps:100_000
  in
  Alcotest.(check int) "nodes" 7 (T.node_count t);
  Alcotest.(check int) "sites" 5 (T.site_count t);
  Alcotest.(check (list int)) "site 0 members" [ 0; 1 ] (T.nodes_in_site t 0);
  Alcotest.(check (list int)) "site 2 members" [ 4 ] (T.nodes_in_site t 2);
  (* Extra nodes sit alone in the sites after the real ones, unlinked. *)
  Alcotest.(check (list int)) "extra node site" [ 6 ] (T.nodes_in_site t 4);
  Alcotest.(check (list int)) "extra node unlinked" [] (T.neighbors t 5);
  Alcotest.(check int) "links" 6 (List.length (T.links t));
  (* Redundant WAN links exist between 2-node sites. *)
  Alcotest.(check bool) "redundant wan link" true
    (Option.is_some (T.link_between t 1 3))

let test_east_coast_topology () =
  let t, sites = T.wide_area_east_coast () in
  Alcotest.(check int) "nodes" 10 (T.node_count t);
  Alcotest.(check int) "sites" 4 (List.length sites);
  Alcotest.(check bool) "connected" true (T.connected t);
  let ccs = List.filter (fun (_, k) -> k = `Control_center) sites in
  Alcotest.(check int) "two control centers" 2 (List.length ccs)

(* ------------------------------------------------------------------ *)
(* Routing *)

(* A diamond: 0 - {1 fast, 2 slow} - 3 plus a long direct edge 0-3. *)
let diamond () =
  let t = T.create ~nodes:4 in
  T.add_link t ~a:0 ~b:1 ~latency_us:10 ~bandwidth_bps:1_000_000;
  T.add_link t ~a:1 ~b:3 ~latency_us:10 ~bandwidth_bps:1_000_000;
  T.add_link t ~a:0 ~b:2 ~latency_us:50 ~bandwidth_bps:1_000_000;
  T.add_link t ~a:2 ~b:3 ~latency_us:50 ~bandwidth_bps:1_000_000;
  T.add_link t ~a:0 ~b:3 ~latency_us:500 ~bandwidth_bps:1_000_000;
  t

let all_usable _ _ = true

let test_shortest_path_picks_fast_route () =
  let t = diamond () in
  match R.shortest_path t ~usable:all_usable ~src:0 ~dst:3 with
  | Some path -> Alcotest.(check (list int)) "fast route" [ 0; 1; 3 ] path
  | None -> Alcotest.fail "no path"

let test_shortest_path_avoids_unusable () =
  let t = diamond () in
  let usable a b = not ((a = 0 && b = 1) || (a = 1 && b = 0)) in
  match R.shortest_path t ~usable ~src:0 ~dst:3 with
  | Some path -> Alcotest.(check (list int)) "detour" [ 0; 2; 3 ] path
  | None -> Alcotest.fail "no path"

let test_shortest_path_unreachable () =
  let t = T.create ~nodes:3 in
  T.add_link t ~a:0 ~b:1 ~latency_us:10 ~bandwidth_bps:1000;
  Alcotest.(check bool) "no route" true
    (R.shortest_path t ~usable:all_usable ~src:0 ~dst:2 = None)

let test_path_latency () =
  let t = diamond () in
  Alcotest.(check int) "latency sums" 20 (R.path_latency_us t [ 0; 1; 3 ])

let test_disjoint_paths () =
  let t = diamond () in
  let paths = R.disjoint_paths t ~usable:all_usable ~src:0 ~dst:3 ~k:3 in
  Alcotest.(check int) "three disjoint routes" 3 (List.length paths);
  (* Internal nodes must not repeat across paths. *)
  let internals =
    List.concat_map
      (fun p -> List.filter (fun n -> n <> 0 && n <> 3) p)
      paths
  in
  let dedup = List.sort_uniq compare internals in
  Alcotest.(check int) "internally disjoint" (List.length internals)
    (List.length dedup)

let test_max_disjoint_east_coast () =
  let t, _ = T.wide_area_east_coast () in
  (* First nodes of sites 0 and 1 (0 and 3) have several disjoint
     routes thanks to redundant WAN links. *)
  Alcotest.(check bool) "at least 2 disjoint" true
    (R.max_disjoint t ~src:0 ~dst:3 >= 2)

(* ------------------------------------------------------------------ *)
(* Fair queue *)

let test_fair_queue_priority () =
  let q = FQ.create ~per_source_cap:10 ~vacant:"" in
  ignore (FQ.push q ~source:1 ~priority:FQ.Bulk "bulk1");
  ignore (FQ.push q ~source:1 ~priority:FQ.Control "ctl1");
  Alcotest.(check string) "control first" "ctl1" (FQ.take q);
  Alcotest.(check string) "then bulk" "bulk1" (FQ.take q);
  Alcotest.(check bool) "empty" true (FQ.is_empty q);
  Alcotest.check_raises "take on empty"
    (Invalid_argument "Fair_queue.take: empty queue") (fun () ->
      ignore (FQ.take q : string))

let test_fair_queue_round_robin () =
  let q = FQ.create ~per_source_cap:10 ~vacant:"" in
  (* Source 1 floods; source 2 sends one item. *)
  for i = 1 to 5 do
    ignore (FQ.push q ~source:1 ~priority:FQ.Control (Printf.sprintf "a%d" i))
  done;
  ignore (FQ.push q ~source:2 ~priority:FQ.Control "b1");
  (* Service order must alternate: a1 then b1 (fair share), not a1..a5. *)
  let first = FQ.take q in
  let second = FQ.take q in
  Alcotest.(check string) "a1 first" "a1" first;
  Alcotest.(check string) "b1 second (fairness)" "b1" second

let test_fair_queue_cap_drops () =
  let q = FQ.create ~per_source_cap:3 ~vacant:0 in
  let accepted = ref 0 in
  for i = 1 to 10 do
    if FQ.push q ~source:7 ~priority:FQ.Bulk i then incr accepted
  done;
  Alcotest.(check int) "cap respected" 3 !accepted;
  Alcotest.(check int) "drops counted" 7 (FQ.dropped q);
  Alcotest.(check int) "backlog" 3 (FQ.backlog_of q ~source:7 ~priority:FQ.Bulk)

let prop_fair_queue_conserves_items =
  QCheck.Test.make ~name:"fair queue: popped = pushed (under cap)"
    QCheck.(list (pair (int_bound 4) (int_bound 100)))
    (fun pushes ->
      QCheck.assume (List.length pushes <= 32);
      let q = FQ.create ~per_source_cap:1000 ~vacant:0 in
      List.iter
        (fun (source, v) ->
          ignore (FQ.push q ~source ~priority:FQ.Control v))
        pushes;
      let rec drain acc =
        if FQ.is_empty q then acc
        else begin
          ignore (FQ.take q : int);
          drain (acc + 1)
        end
      in
      drain 0 = List.length pushes)

(* Exact round-robin order: a source re-enters the rotation behind
   every other backlogged source after being served. Regression for the
   O(1) ring rotation — the order must match the list-rotation
   semantics it replaced. *)
let test_fair_queue_exact_rotation () =
  let q = FQ.create ~per_source_cap:10 ~vacant:"" in
  List.iter
    (fun (s, v) -> ignore (FQ.push q ~source:s ~priority:FQ.Control v))
    [ (1, "a1"); (2, "b1"); (3, "c1"); (1, "a2"); (3, "c2"); (3, "c3") ];
  let rec drain acc =
    if FQ.is_empty q then List.rev acc else drain (FQ.take q :: acc)
  in
  Alcotest.(check (list string))
    "round-robin service order"
    [ "a1"; "b1"; "c1"; "a2"; "c2"; "c3" ]
    (drain [])

(* Reference model: per-source FIFOs with the rotation kept as a plain
   list rotated with [rest @ [src]]. Arbitrary interleaving of pushes
   and pops must give the ring implementation the same observable
   behaviour (accepted pushes and dequeued values alike). Items carry
   their source, so a dequeue is checked against the model's source
   too. *)
let fair_queue_model_prop ~cap steps =
  let q = FQ.create ~per_source_cap:cap ~vacant:(-1, -1) in
  let model_queues : (int, int Queue.t) Hashtbl.t = Hashtbl.create 7 in
  let model_rotation = ref [] in
  let model_q src =
    match Hashtbl.find_opt model_queues src with
    | Some mq -> mq
    | None ->
      let mq = Queue.create () in
      Hashtbl.add model_queues src mq;
      mq
  in
  let model_push src v =
    let mq = model_q src in
    if Queue.length mq >= cap then false
    else begin
      if Queue.is_empty mq then model_rotation := !model_rotation @ [ src ];
      Queue.push v mq;
      true
    end
  in
  let model_pop () =
    match !model_rotation with
    | [] -> None
    | src :: rest ->
      let mq = model_q src in
      let v = Queue.pop mq in
      model_rotation :=
        (if Queue.is_empty mq then rest else rest @ [ src ]);
      Some (src, v)
  in
  List.for_all
    (fun (is_push, (src, v)) ->
      if is_push then
        FQ.push q ~source:src ~priority:FQ.Control (src, v) = model_push src v
      else
        match model_pop () with
        | None -> FQ.is_empty q
        | Some (s', x') ->
          (not (FQ.is_empty q))
          &&
          let s, x = FQ.take q in
          s = s' && x = x')
    steps

let prop_fair_queue_matches_list_model =
  QCheck.Test.make ~count:300 ~name:"fair queue: ring matches list-rotation model"
    QCheck.(
      list
        (pair bool (pair (int_bound 5) (int_bound 1000)) (* push / pop steps *)))
    (fair_queue_model_prop ~cap:3)

(* The same model with few sources and a cap of 20: each source's
   backlog ring (4 slots at first) grows and wraps around while items
   are dequeued between pushes. *)
let prop_fair_queue_backlog_rings =
  QCheck.Test.make ~count:300 ~name:"backlog rings grow and wrap like FIFOs"
    QCheck.(
      list_of_size Gen.(0 -- 200)
        (pair (make Gen.(frequency [ (2, return true); (1, return false) ]))
           (pair (int_bound 2) (int_bound 1000))))
    (fair_queue_model_prop ~cap:20)

(* A dequeued item is not kept alive by the queue's ring slots. *)
let test_fair_queue_releases_items () =
  let q = FQ.create ~per_source_cap:8 ~vacant:[||] in
  let w = Weak.create 1 in
  let push () =
    let item = Array.make 8 0 in
    Weak.set w 0 (Some item);
    ignore (FQ.push q ~source:1 ~priority:FQ.Control item)
  in
  push ();
  ignore (FQ.take q : int array);
  Gc.full_major ();
  Alcotest.(check bool) "dequeued item collected" true (Weak.get w 0 = None);
  (* [q] is used after the collection, so it was live during it. *)
  Alcotest.(check int) "queue empty" 0 (FQ.length q)

(* The rotation ring starts at capacity 16; exceed it to cover growth. *)
let test_fair_queue_many_sources () =
  let q = FQ.create ~per_source_cap:4 ~vacant:0 in
  for s = 0 to 99 do
    ignore (FQ.push q ~source:s ~priority:FQ.Bulk s)
  done;
  let order = ref [] in
  while not (FQ.is_empty q) do
    order := FQ.take q :: !order
  done;
  Alcotest.(check (list int)) "one pass, push order" (List.init 100 Fun.id)
    (List.rev !order);
  Alcotest.(check bool) "empty after drain" true (FQ.is_empty q)

(* ------------------------------------------------------------------ *)
(* Net runtime *)

type net_msg = Ping of int

let make_net ?(per_source_cap = 64) topo =
  let engine = Sim.Engine.create ~seed:7L () in
  let net : net_msg N.t = N.create ~per_source_cap engine topo () in
  (engine, net)

let test_net_unicast_latency () =
  let topo = diamond () in
  let engine, net = make_net topo in
  let received = ref [] in
  N.set_handler net 3 (fun d -> received := d :: !received);
  N.send net ~src:0 ~dst:3 ~size_bytes:256 ~mode:N.Shortest (Ping 1);
  Sim.Engine.run_until_quiescent engine;
  match !received with
  | [ d ] ->
    (* 2 hops x 10us latency + 2 x ~transmission. *)
    Alcotest.(check bool) "latency sane" true
      (d.N.delivered_us - d.N.sent_us >= 20
      && d.N.delivered_us - d.N.sent_us < 1_000)
  | l -> Alcotest.failf "expected 1 delivery, got %d" (List.length l)

let test_net_reroutes_after_link_kill () =
  let topo = diamond () in
  let engine, net = make_net topo in
  let received = ref 0 in
  N.set_handler net 3 (fun _ -> incr received);
  N.kill_link net 0 1;
  N.send net ~src:0 ~dst:3 ~size_bytes:256 ~mode:N.Shortest (Ping 1);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "delivered via detour" 1 !received;
  Alcotest.(check (option (list int))) "route avoids dead link"
    (Some [ 0; 2; 3 ])
    (N.current_route net ~src:0 ~dst:3)

let test_net_redundant_survives_path_kill_in_flight () =
  (* With redundant dissemination, killing one path right after send
     still delivers via the others. *)
  let topo = diamond () in
  let engine, net = make_net topo in
  let received = ref 0 in
  N.set_handler net 3 (fun _ -> incr received);
  N.send net ~src:0 ~dst:3 ~size_bytes:256 ~mode:(N.Redundant 3) (Ping 1);
  (* Kill the fastest path's middle node before anything propagates. *)
  N.kill_node net 1;
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "exactly one delivery" 1 !received

let test_net_redundant_dedups () =
  let topo = diamond () in
  let engine, net = make_net topo in
  let received = ref 0 in
  N.set_handler net 3 (fun _ -> incr received);
  N.send net ~src:0 ~dst:3 ~size_bytes:256 ~mode:(N.Redundant 3) (Ping 9);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "one delivery despite 3 copies" 1 !received;
  let stats = N.stats net in
  Alcotest.(check bool) "duplicates suppressed" true
    (stats.N.duplicates_suppressed >= 1)

let test_net_flood_reaches_all () =
  let topo, _ = T.wide_area_east_coast () in
  let engine, net = make_net topo in
  let received = ref 0 in
  N.set_handler net 9 (fun _ -> incr received);
  N.send net ~src:0 ~dst:9 ~size_bytes:256 ~mode:N.Flood (Ping 1);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "flood delivers once" 1 !received

let test_net_flood_survives_heavy_link_loss () =
  let topo, _ = T.wide_area_east_coast () in
  let engine, net = make_net topo in
  let received = ref 0 in
  N.set_handler net 9 (fun _ -> incr received);
  (* Kill several WAN links; flooding still finds a way while the graph
     stays connected. *)
  N.kill_link net 0 3;
  N.kill_link net 0 6;
  N.kill_link net 0 8;
  N.send net ~src:0 ~dst:9 ~size_bytes:256 ~mode:N.Flood (Ping 1);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "delivered" 1 !received

let test_net_node_down_no_delivery () =
  let topo = diamond () in
  let engine, net = make_net topo in
  let received = ref 0 in
  N.set_handler net 3 (fun _ -> incr received);
  N.kill_node net 3;
  N.send net ~src:0 ~dst:3 ~size_bytes:256 ~mode:N.Shortest (Ping 1);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "nothing delivered" 0 !received

let test_net_junk_does_not_reach_handlers () =
  let topo = diamond () in
  let engine, net = make_net topo in
  let received = ref 0 in
  N.set_handler net 3 (fun _ -> incr received);
  N.inject_junk net ~src:0 ~dst:3 ~size_bytes:10_000
    ~priority:FQ.Bulk;
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "junk invisible" 0 !received;
  Alcotest.(check int) "junk counted" 1 (N.stats net).N.junk_frames

let test_net_control_priority_beats_junk_flood () =
  (* A bulk-class junk flood on the direct link must not starve control
     traffic: control jumps the queue. *)
  let t = T.create ~nodes:2 in
  (* Slow link so that queueing matters: 10 KB/s. *)
  T.add_link t ~a:0 ~b:1 ~latency_us:100 ~bandwidth_bps:10_000;
  let engine, net = make_net t in
  let delivered_at = ref (-1) in
  N.set_handler net 1 (fun d -> delivered_at := d.N.delivered_us);
  (* 50 junk frames of 1000 bytes: 100ms of serialisation each. *)
  for _ = 1 to 50 do
    N.inject_junk net ~src:0 ~dst:1 ~size_bytes:1_000 ~priority:FQ.Bulk
  done;
  N.send net ~src:0 ~dst:1 ~size_bytes:100 ~mode:N.Shortest (Ping 1);
  Sim.Engine.run_until_quiescent engine;
  (* The control frame waits at most for the junk frame already being
     transmitted (~100ms), never the whole backlog (~5s). *)
  Alcotest.(check bool) "delivered" true (!delivered_at >= 0);
  Alcotest.(check bool) "control jumped the queue" true (!delivered_at < 350_000)

let test_net_latency_factor () =
  let t = T.create ~nodes:2 in
  T.add_link t ~a:0 ~b:1 ~latency_us:1_000 ~bandwidth_bps:1_000_000;
  let engine, net = make_net t in
  let lat = ref 0 in
  N.set_handler net 1 (fun d -> lat := d.N.delivered_us - d.N.sent_us);
  N.set_latency_factor net 0 1 10.;
  N.send net ~src:0 ~dst:1 ~size_bytes:256 ~mode:N.Shortest (Ping 1);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check bool) "10x latency" true (!lat >= 10_000)

let test_net_lossy_link_arq_recovers () =
  (* 30% loss: hop-by-hop ARQ retransmits and every frame arrives. *)
  let t = T.create ~nodes:2 in
  T.add_link t ~a:0 ~b:1 ~latency_us:1_000 ~bandwidth_bps:1_000_000;
  let engine, net = make_net t in
  N.set_loss_probability net 0 1 0.3;
  let received = ref 0 in
  N.set_handler net 1 (fun _ -> incr received);
  for i = 1 to 100 do
    ignore
      (Sim.Engine.schedule_at engine ~time_us:(i * 50_000) (fun () ->
           N.send net ~src:0 ~dst:1 ~size_bytes:256 ~mode:N.Shortest (Ping i))
        : Sim.Engine.timer)
  done;
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "all delivered despite loss" 100 !received;
  Alcotest.(check bool) "retransmissions happened" true
    (N.retransmissions net > 10)

let test_net_loss_probability_validation () =
  let t = T.create ~nodes:2 in
  T.add_link t ~a:0 ~b:1 ~latency_us:1_000 ~bandwidth_bps:1_000_000;
  let _, net = make_net t in
  Alcotest.check_raises "p = 1 rejected"
    (Invalid_argument "Net.set_loss_probability: need 0 <= p < 1") (fun () ->
      N.set_loss_probability net 0 1 1.0)

let test_net_loss_adds_latency_not_loss () =
  let t = T.create ~nodes:2 in
  T.add_link t ~a:0 ~b:1 ~latency_us:2_000 ~bandwidth_bps:1_000_000;
  let engine, net = make_net t in
  N.set_loss_probability net 0 1 0.5;
  let latencies = ref [] in
  N.set_handler net 1 (fun d ->
      latencies := (d.N.delivered_us - d.N.sent_us) :: !latencies);
  for i = 1 to 50 do
    ignore
      (Sim.Engine.schedule_at engine ~time_us:(i * 100_000) (fun () ->
           N.send net ~src:0 ~dst:1 ~size_bytes:256 ~mode:N.Shortest (Ping i)))
  done;
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "all delivered" 50 (List.length !latencies);
  (* Some frames needed retries: their latency includes ARQ round trips. *)
  Alcotest.(check bool) "some retried frames are slower" true
    (List.exists (fun l -> l >= 6_000) !latencies)

let test_net_arq_exhaustion_counted_not_wedged () =
  (* Loss so high that some frames exhaust all 8 retransmission
     attempts: the drops must surface in stats (not vanish silently)
     and the link's fair queue must keep draining afterwards. *)
  let t = T.create ~nodes:2 in
  T.add_link t ~a:0 ~b:1 ~latency_us:1_000 ~bandwidth_bps:1_000_000;
  let engine, net = make_net t in
  N.set_loss_probability net 0 1 0.95;
  let received = ref 0 in
  N.set_handler net 1 (fun _ -> incr received);
  for i = 1 to 40 do
    ignore
      (Sim.Engine.schedule_at engine ~time_us:(i * 100_000) (fun () ->
           N.send net ~src:0 ~dst:1 ~size_bytes:256 ~mode:N.Shortest (Ping i))
        : Sim.Engine.timer)
  done;
  Sim.Engine.run_until_quiescent engine;
  let s = N.stats net in
  (* With p=0.95 each frame survives its 9 transmissions with
     probability 1 - 0.95^9 ~ 0.37; both outcomes occur in 40 frames. *)
  Alcotest.(check bool) "some frames exhausted ARQ" true
    (s.N.dropped_arq_exhausted > 0);
  Alcotest.(check int) "every submitted frame accounted for" 40
    (!received + s.N.dropped_arq_exhausted);
  (* The queue is not wedged: after the loss clears, traffic flows. *)
  N.set_loss_probability net 0 1 0.0;
  N.send net ~src:0 ~dst:1 ~size_bytes:256 ~mode:N.Shortest (Ping 0);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check bool) "link usable after exhaustion" true
    (!received > 0 && (N.stats net).N.delivered = !received)

(* An idle link keeps no frame alive: once the frame has left the
   wire, the link's transmit slot holds a sentinel, and the fair queue's
   slot is vacant. *)
let test_net_idle_link_releases_frame () =
  let t = T.create ~nodes:2 in
  T.add_link t ~a:0 ~b:1 ~latency_us:100 ~bandwidth_bps:1_000_000;
  let engine, net = make_net t in
  N.set_handler net 1 ignore;
  let w = Weak.create 1 in
  (* The payload is only reachable through the net while in flight. *)
  let send () =
    let payload = Ping (Sys.opaque_identity 5) in
    Weak.set w 0 (Some payload);
    N.send net ~src:0 ~dst:1 ~size_bytes:256 ~mode:N.Shortest payload
  in
  send ();
  Sim.Engine.run_until_quiescent engine;
  (* The engine's heap keeps its last popped event in a vacated slot;
     one more event overwrites it. *)
  ignore (Sim.Engine.schedule engine ~delay_us:1 ignore : Sim.Engine.timer);
  Sim.Engine.run_until_quiescent engine;
  Gc.full_major ();
  Alcotest.(check bool) "frame collected" true (Weak.get w 0 = None);
  Alcotest.(check int) "delivered" 1 (N.stats net).N.delivered

let test_net_retired_src_dropped () =
  (* A retired (removed-from-membership) node keeps babbling: its
     frames must be counted and dropped, not delivered — whether
     submitted after retirement or already in flight when it lands.
     Re-admission restores delivery. *)
  let topo = diamond () in
  let engine, net = make_net topo in
  let received = ref 0 in
  N.set_handler net 3 (fun _ -> incr received);
  N.send net ~src:0 ~dst:3 ~size_bytes:256 ~mode:N.Shortest (Ping 1);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "baseline delivery" 1 !received;
  N.retire_node net 0;
  Alcotest.(check bool) "marked retired" true (N.node_retired net 0);
  N.send net ~src:0 ~dst:3 ~size_bytes:256 ~mode:N.Shortest (Ping 2);
  N.send net ~src:0 ~dst:3 ~size_bytes:256 ~mode:(N.Redundant 3) (Ping 3);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "retired frames not delivered" 1 !received;
  Alcotest.(check bool) "drops counted" true
    ((N.stats net).N.dropped_retired_src >= 2);
  (* In flight at retirement time: submitted while admissible, retired
     before delivery. *)
  N.unretire_node net 0;
  N.send net ~src:0 ~dst:3 ~size_bytes:256 ~mode:N.Shortest (Ping 4);
  N.retire_node net 0;
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "in-flight frame dropped" 1 !received;
  (* Retirement is about the source id, not liveness: a retired node
     still forwards other nodes' traffic through itself. *)
  N.kill_link net 0 2;
  N.retire_node net 1;
  N.send net ~src:0 ~dst:3 ~size_bytes:256 ~mode:N.Shortest (Ping 5);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "frame dropped while src retired" 1 !received;
  N.unretire_node net 0;
  N.send net ~src:0 ~dst:3 ~size_bytes:256 ~mode:N.Shortest (Ping 6);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "re-admitted src via retired forwarder" 2 !received;
  (* Unknown source ids (spoofed frames from outside the membership
     universe) are counted and dropped too, and never crash the
     runtime; retiring an out-of-range id is a no-op. *)
  N.retire_node net 99;
  N.retire_node net (-1);
  let before = (N.stats net).N.dropped_retired_src in
  N.send net ~src:42 ~dst:3 ~size_bytes:256 ~mode:N.Shortest (Ping 7);
  N.send net ~src:(-3) ~dst:3 ~size_bytes:256 ~mode:N.Shortest (Ping 8);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "unknown src never delivered" 2 !received;
  Alcotest.(check int) "unknown src counted" (before + 2)
    (N.stats net).N.dropped_retired_src

let test_net_self_send () =
  let topo = diamond () in
  let engine, net = make_net topo in
  let received = ref 0 in
  N.set_handler net 0 (fun _ -> incr received);
  N.send net ~src:0 ~dst:0 ~size_bytes:256 ~mode:N.Shortest (Ping 1);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "self delivery" 1 !received

(* ------------------------------------------------------------------ *)
(* Mid-run dissemination-mode switches (the runtime tuning plane's
   overlay contract) *)

(* Flip Shortest -> Flood -> Redundant 2 while the previous phase's
   frames are still in flight (sends are spaced 200us; the 0->9 route
   crosses several WAN hops of >= 1ms each). Contract: every frame is
   delivered exactly once — dedup absorbs the redundant copies — none
   is dropped for lack of a route, and the route caches survive being
   invalidated at each switch, exactly as [System.set_dissemination]
   does. *)
let test_net_mode_switch_under_load () =
  let topo, _ = T.wide_area_east_coast () in
  let engine, net = make_net ~per_source_cap:1024 topo in
  let got : (int, int) Hashtbl.t = Hashtbl.create 256 in
  N.set_handler net 9 (fun d ->
      let (Ping i) = d.N.payload in
      Hashtbl.replace got i
        (1 + Option.value ~default:0 (Hashtbl.find_opt got i)));
  let per_phase = 40 in
  List.iter
    (fun (p, mode) ->
      if p > 0 then
        ignore
          (Sim.Engine.schedule_at engine ~time_us:(p * per_phase * 200)
             (fun () -> N.invalidate_routes net)
            : Sim.Engine.timer);
      for i = 0 to per_phase - 1 do
        let id = (p * per_phase) + i in
        ignore
          (Sim.Engine.schedule_at engine
             ~time_us:((id * 200) + 1)
             (fun () ->
               N.send net ~src:0 ~dst:9 ~size_bytes:256 ~mode (Ping id))
            : Sim.Engine.timer)
      done)
    [ (0, N.Shortest); (1, N.Flood); (2, N.Redundant 2) ];
  Sim.Engine.run_until_quiescent engine;
  let total = 3 * per_phase in
  let missing = ref 0 and dup = ref 0 in
  for id = 0 to total - 1 do
    match Hashtbl.find_opt got id with
    | None -> incr missing
    | Some 1 -> ()
    | Some _ -> incr dup
  done;
  Alcotest.(check int) "no frame lost across switches" 0 !missing;
  Alcotest.(check int) "no duplicate delivery" 0 !dup;
  let s = N.stats net in
  Alcotest.(check bool) "redundant copies suppressed, not delivered" true
    (s.N.duplicates_suppressed > 0);
  Alcotest.(check int) "never dropped for lack of a route" 0
    s.N.dropped_no_route;
  Alcotest.(check int) "per-source cap never hit" 0 s.N.dropped_queue_full

(* Invalidation is harmless by construction: recomputation from the
   unchanged topology yields the same route, so a mode switch can never
   change where Shortest frames go. *)
let test_net_invalidate_routes_recomputes_same () =
  let topo = diamond () in
  let engine, net = make_net topo in
  let received = ref 0 in
  N.set_handler net 3 (fun _ -> incr received);
  N.send net ~src:0 ~dst:3 ~size_bytes:256 ~mode:N.Shortest (Ping 1);
  Sim.Engine.run_until_quiescent engine;
  let before = N.current_route net ~src:0 ~dst:3 in
  N.invalidate_routes net;
  let after = N.current_route net ~src:0 ~dst:3 in
  Alcotest.(check (option (list int))) "same route after invalidation" before
    after;
  N.send net ~src:0 ~dst:3 ~size_bytes:256 ~mode:N.Shortest (Ping 2);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "delivery unaffected" 2 !received

(* An in-flight frame keeps the route captured at submit: invalidating
   the caches immediately after send (what a mode switch does) neither
   loses nor duplicates it. *)
let test_net_switch_preserves_in_flight () =
  let topo, _ = T.wide_area_east_coast () in
  let engine, net = make_net topo in
  let deliveries = ref 0 in
  N.set_handler net 9 (fun _ -> incr deliveries);
  N.send net ~src:0 ~dst:9 ~size_bytes:256 ~mode:N.Shortest (Ping 1);
  N.invalidate_routes net;
  N.send net ~src:0 ~dst:9 ~size_bytes:256 ~mode:N.Flood (Ping 2);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "both frames delivered exactly once" 2 !deliveries;
  Alcotest.(check int) "no route drops" 0 (N.stats net).N.dropped_no_route

(* ------------------------------------------------------------------ *)
(* WAN boundary *)

(* Cross-site bytes are read off the per-link transmit counters of links
   whose endpoints sit in different sites. Shortest-path traffic between
   daemons of one site rides the LAN and leaves those counters at zero;
   a cross-site frame shows up on them. *)
let test_wan_links_carry_only_cross_site () =
  let topo =
    T.multi_site ~site_sizes:[ 2; 2; 1 ] ~extra_nodes:0 ~lan_latency_us:50
      ~wan_latency_us:(fun sa sb -> 2_000 + (500 * (sa + sb)))
      ~lan_bandwidth_bps:10_000_000 ~wan_bandwidth_bps:1_000_000
  in
  let engine, net = make_net topo in
  let tx ~cross =
    List.fold_left
      (fun acc (r : N.link_report) ->
        let crosses = T.site_of topo r.N.link_src <> T.site_of topo r.N.link_dst in
        if crosses = cross then acc + r.N.tx_bytes else acc)
      0 (N.link_reports net)
  in
  List.iter
    (fun site ->
      match T.nodes_in_site topo site with
      | a :: b :: _ ->
        N.send net ~src:a ~dst:b ~size_bytes:128 ~mode:N.Shortest (Ping a);
        N.send net ~src:b ~dst:a ~size_bytes:128 ~mode:N.Shortest (Ping b)
      | _ -> ())
    (List.init (T.site_count topo) Fun.id);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "intra-site frames delivered" 4 (N.stats net).N.delivered;
  Alcotest.(check bool) "LAN links carried them" true (tx ~cross:false > 0);
  Alcotest.(check int) "WAN links idle" 0 (tx ~cross:true);
  let src = List.hd (T.nodes_in_site topo 0)
  and dst = List.hd (T.nodes_in_site topo 2) in
  N.send net ~src ~dst ~size_bytes:128 ~mode:N.Shortest (Ping 9);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "cross-site frame delivered" 5 (N.stats net).N.delivered;
  Alcotest.(check bool) "WAN links carried it" true (tx ~cross:true >= 128)

let () =
  Alcotest.run "overlay"
    [
      ( "topology",
        [
          Alcotest.test_case "full mesh" `Quick test_full_mesh;
          Alcotest.test_case "duplicate link" `Quick test_duplicate_link_rejected;
          Alcotest.test_case "self link" `Quick test_self_link_rejected;
          Alcotest.test_case "multi-site" `Quick test_multi_site_structure;
          Alcotest.test_case "east coast" `Quick test_east_coast_topology;
        ] );
      ( "routing",
        [
          Alcotest.test_case "shortest path" `Quick
            test_shortest_path_picks_fast_route;
          Alcotest.test_case "avoids unusable" `Quick
            test_shortest_path_avoids_unusable;
          Alcotest.test_case "unreachable" `Quick test_shortest_path_unreachable;
          Alcotest.test_case "path latency" `Quick test_path_latency;
          Alcotest.test_case "disjoint paths" `Quick test_disjoint_paths;
          Alcotest.test_case "east coast redundancy" `Quick
            test_max_disjoint_east_coast;
        ] );
      ( "fair_queue",
        [
          Alcotest.test_case "priority" `Quick test_fair_queue_priority;
          Alcotest.test_case "round robin" `Quick test_fair_queue_round_robin;
          Alcotest.test_case "cap drops" `Quick test_fair_queue_cap_drops;
          QCheck_alcotest.to_alcotest prop_fair_queue_conserves_items;
          Alcotest.test_case "exact rotation" `Quick
            test_fair_queue_exact_rotation;
          QCheck_alcotest.to_alcotest prop_fair_queue_matches_list_model;
          Alcotest.test_case "ring growth past 16 sources" `Quick
            test_fair_queue_many_sources;
          QCheck_alcotest.to_alcotest prop_fair_queue_backlog_rings;
          Alcotest.test_case "dequeued items released" `Quick
            test_fair_queue_releases_items;
        ] );
      ( "net",
        [
          Alcotest.test_case "unicast latency" `Quick test_net_unicast_latency;
          Alcotest.test_case "reroute after kill" `Quick
            test_net_reroutes_after_link_kill;
          Alcotest.test_case "redundant survives kill" `Quick
            test_net_redundant_survives_path_kill_in_flight;
          Alcotest.test_case "redundant dedups" `Quick test_net_redundant_dedups;
          Alcotest.test_case "flood reaches" `Quick test_net_flood_reaches_all;
          Alcotest.test_case "flood survives link loss" `Quick
            test_net_flood_survives_heavy_link_loss;
          Alcotest.test_case "node down" `Quick test_net_node_down_no_delivery;
          Alcotest.test_case "junk invisible" `Quick
            test_net_junk_does_not_reach_handlers;
          Alcotest.test_case "control beats junk flood" `Quick
            test_net_control_priority_beats_junk_flood;
          Alcotest.test_case "latency factor" `Quick test_net_latency_factor;
          Alcotest.test_case "lossy link ARQ" `Quick test_net_lossy_link_arq_recovers;
          Alcotest.test_case "loss validation" `Quick
            test_net_loss_probability_validation;
          Alcotest.test_case "ARQ exhaustion counted, queue drains" `Quick
            test_net_arq_exhaustion_counted_not_wedged;
          Alcotest.test_case "loss becomes latency" `Quick
            test_net_loss_adds_latency_not_loss;
          Alcotest.test_case "self send" `Quick test_net_self_send;
          Alcotest.test_case "retired and unknown src dropped" `Quick
            test_net_retired_src_dropped;
          Alcotest.test_case "mode switch under load" `Quick
            test_net_mode_switch_under_load;
          Alcotest.test_case "invalidation recomputes same routes" `Quick
            test_net_invalidate_routes_recomputes_same;
          Alcotest.test_case "switch preserves in-flight frames" `Quick
            test_net_switch_preserves_in_flight;
          Alcotest.test_case "idle link keeps no frame alive" `Quick
            test_net_idle_link_releases_frame;
        ] );
      ( "wan_boundary",
        [
          Alcotest.test_case "WAN links carry only cross-site frames" `Quick
            test_wan_links_carry_only_cross_site;
        ] );
    ]
