(** Bounded drop-oldest ring buffer.

    A fixed-capacity buffer that overwrites its oldest element once
    full, counting every overwrite in {!dropped}. This is the
    telemetry {!Sink}'s retention policy: memory stays bounded on
    arbitrarily long runs and the caller can always tell how much
    history was shed. *)

type 'a t

(** [create capacity] is an empty ring holding at most [capacity]
    elements. @raise Invalid_argument if [capacity <= 0]. *)
val create : int -> 'a t

(** [push t x] appends [x], evicting the oldest element (and bumping
    {!dropped}) when the ring is full. *)
val push : 'a t -> 'a -> unit

(** Number of elements currently retained. *)
val length : 'a t -> int

val capacity : 'a t -> int

(** Total elements evicted by overwrite since creation / last {!clear}. *)
val dropped : 'a t -> int

(** [iter f t] applies [f] oldest-first. *)
val iter : ('a -> unit) -> 'a t -> unit

(** [fold f init t] folds oldest-first. *)
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

(** Retained elements, oldest first. *)
val to_list : 'a t -> 'a list

val clear : 'a t -> unit
