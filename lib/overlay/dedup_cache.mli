(** Bounded-memory duplicate-suppression cache.

    Frame-id dedup must remember ids long enough to suppress duplicates
    still in flight, but a long-running overlay cannot remember every
    id forever. This cache keeps two generations: inserts go to the
    current generation; when it fills, the previous generation is
    dropped and the generations rotate. An id is remembered for at
    least one full generation — orders of magnitude longer than any
    frame's time in flight.

    Each generation is an open-addressing int set: an insert allocates
    nothing once the table has grown to its working size, and the
    dropped generation's table is cleared and reused as the next
    current one. Ids must be non-negative (frame ids are a counter
    from 0); a negative slot value marks a free slot. *)

type t

(** [create ~generation_size ()] — each generation holds up to
    [generation_size] ids (default 65536).
    @raise Invalid_argument if [generation_size < 1]. *)
val create : ?generation_size:int -> unit -> t

(** [mem t id] is true if [id] was added within the last two
    generations. @raise Invalid_argument if [id < 0]. *)
val mem : t -> int -> bool

(** [add t id] records [id] (rotating generations when full). An id
    either generation already holds is left where it is.
    @raise Invalid_argument if [id < 0]. *)
val add : t -> int -> unit

(** [size t] is the number of ids currently remembered. *)
val size : t -> int
