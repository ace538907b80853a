(** Two-class priority queue with round-robin fairness across sources.

    This is the queueing discipline of the intrusion-tolerant overlay:
    protocol traffic ([Control]) is always served before bulk traffic,
    and within each class service rotates round-robin over source nodes
    so that a single (possibly compromised) source flooding the link
    cannot starve other sources — it only ever gets its fair share.

    Each source's per-class backlog is additionally capped; pushes beyond
    the cap are dropped and counted, bounding the memory a flooding
    source can consume (the overlay's defence against resource-exhaustion
    DoS). *)

type priority = Control | Bulk

type 'a t

(** [create ~per_source_cap ~vacant] is an empty queue; each (source,
    class) backlog holds at most [per_source_cap] items. Backlogs are
    ring buffers, and [vacant] fills their free slots, so a dequeued
    item is not kept alive by the queue. It is never returned. *)
val create : per_source_cap:int -> vacant:'a -> 'a t

(** [push t ~source ~priority item] enqueues; returns [false] (and drops)
    if the source's backlog for that class is full. *)
val push : 'a t -> source:int -> priority:priority -> 'a -> bool

(** [take t] dequeues the next item by (priority, round-robin source)
    order. It allocates nothing; check {!is_empty} first.
    @raise Invalid_argument if [t] is empty. *)
val take : 'a t -> 'a

(** [length t] is the number of queued items across classes. *)
val length : 'a t -> int

(** [is_empty t]. *)
val is_empty : 'a t -> bool

(** [dropped t] is the number of pushes rejected by the cap so far. *)
val dropped : 'a t -> int

(** [backlog_of t ~source ~priority] is that backlog's current length. *)
val backlog_of : 'a t -> source:int -> priority:priority -> int
