type priority = Control | Bulk

(* Growable ring buffer, for the round-robin rotation of source ids and
   for each source's FIFO of items: a push or a pop is an index update
   and allocates nothing in steady state, where a list rotation or a
   [Queue.t] would allocate a cell. A dequeued slot is overwritten with
   [vacant], so the ring keeps no dequeued item alive. *)
type 'a ring = {
  mutable buf : 'a array;
  mutable head : int;
  mutable len : int;
  vacant : 'a;
}

let ring_create ~vacant capacity =
  { buf = Array.make capacity vacant; head = 0; len = 0; vacant }

let ring_push r v =
  let cap = Array.length r.buf in
  if r.len = cap then begin
    let buf = Array.make (2 * cap) r.vacant in
    for i = 0 to r.len - 1 do
      buf.(i) <- r.buf.((r.head + i) mod cap)
    done;
    r.buf <- buf;
    r.head <- 0
  end;
  r.buf.((r.head + r.len) mod Array.length r.buf) <- v;
  r.len <- r.len + 1

(* Precondition: [r.len > 0]. *)
let ring_pop r =
  let v = r.buf.(r.head) in
  r.buf.(r.head) <- r.vacant;
  r.head <- (r.head + 1) mod Array.length r.buf;
  r.len <- r.len - 1;
  v

type 'a class_state = {
  queues : (int, 'a ring) Hashtbl.t; (* per source, oldest item first *)
  rotation : int ring; (* sources with pending items, service order *)
  mutable count : int;
}

type 'a t = {
  per_source_cap : int;
  vacant : 'a;
  control : 'a class_state;
  bulk : 'a class_state;
  mutable dropped : int;
}

let empty_class () =
  { queues = Hashtbl.create 17; rotation = ring_create ~vacant:0 16; count = 0 }

let create ~per_source_cap ~vacant =
  if per_source_cap <= 0 then invalid_arg "Fair_queue.create: cap <= 0";
  {
    per_source_cap;
    vacant;
    control = empty_class ();
    bulk = empty_class ();
    dropped = 0;
  }

let class_of t = function Control -> t.control | Bulk -> t.bulk

(* [Hashtbl.find] rather than [find_opt]: the lookup runs on every
   push and every dequeue, and an option would box each hit. *)
let queue_of t cls source =
  match Hashtbl.find cls.queues source with
  | q -> q
  | exception Not_found ->
    let q = ring_create ~vacant:t.vacant (min 4 t.per_source_cap) in
    Hashtbl.add cls.queues source q;
    q

let push t ~source ~priority item =
  let cls = class_of t priority in
  let q = queue_of t cls source in
  if q.len >= t.per_source_cap then begin
    t.dropped <- t.dropped + 1;
    false
  end
  else begin
    if q.len = 0 then ring_push cls.rotation source;
    ring_push q item;
    cls.count <- cls.count + 1;
    true
  end

(* Precondition: [cls.count > 0]. *)
let take_class t cls =
  let source = ring_pop cls.rotation in
  let q = queue_of t cls source in
  let item = ring_pop q in
  cls.count <- cls.count - 1;
  if q.len > 0 then ring_push cls.rotation source;
  item

let take t =
  if t.control.count > 0 then take_class t t.control
  else if t.bulk.count > 0 then take_class t t.bulk
  else invalid_arg "Fair_queue.take: empty queue"

let length t = t.control.count + t.bulk.count
let is_empty t = length t = 0
let dropped t = t.dropped

let backlog_of t ~source ~priority =
  let cls = class_of t priority in
  match Hashtbl.find cls.queues source with
  | q -> q.len
  | exception Not_found -> 0
