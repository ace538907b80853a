(** Deterministic discrete-event simulation engine.

    All protocol code in this repository is written against this engine:
    components schedule callbacks at future virtual times and the engine
    executes them in timestamp order (ties broken by scheduling order).
    Virtual time is in integer {b microseconds}.

    {b Ownership.} An engine value owns all of its mutable state — there
    are no module-level globals — so independent engines (one per
    scenario instance) can run concurrently on different domains. A
    single engine must only ever be driven from one domain at a time. *)

type t

(** Handle to a scheduled event, usable with {!cancel}. *)
type timer

(** [create ~seed ()] is a fresh engine whose root RNG is seeded with
    [seed]. *)
val create : ?seed:int64 -> unit -> t

(** [now t] is the current virtual time in microseconds. *)
val now : t -> int

(** [rng t] derives a fresh independent RNG stream from the engine's
    root stream. Call once per component at setup time. *)
val rng : t -> Rng.t

(** [schedule t ~delay_us f] runs [f ()] at [now t + delay_us].
    Negative delays are clamped to 0 (run "now", after the current
    callback returns). Returns a cancellable timer handle. *)
val schedule : t -> delay_us:int -> (unit -> unit) -> timer

(** [schedule_at t ~time_us f] runs [f ()] at absolute virtual time
    [time_us] (clamped to [now]). *)
val schedule_at : t -> time_us:int -> (unit -> unit) -> timer

(** [periodic t ~interval_us f] runs [f ()] every [interval_us] starting
    [interval_us] from now, until cancelled. Firings stay anchored to the
    original cadence: each one is re-armed at [scheduled_time +
    interval_us], so a callback that advances the clock (e.g. a nested
    {!run}) does not drift later firings; a timer that falls behind
    catches up by firing in quick succession.
    @raise Invalid_argument if [interval_us <= 0]. *)
val periodic : t -> interval_us:int -> (unit -> unit) -> timer

(** [cancel timer] prevents a pending event from firing; idempotent. *)
val cancel : timer -> unit

(** [run t ~until_us] executes events in order until the queue is empty
    or the next event is after [until_us]; afterwards [now t = until_us]
    (time always advances to the horizon). *)
val run : t -> until_us:int -> unit

(** [step t] executes the single earliest pending event (or pops one
    cancelled entry). Returns [false] when the queue is empty. *)
val step : t -> bool

(** [run_until_quiescent t ?max_events ()] executes events until none
    remain. @raise Failure if [max_events] is exceeded (runaway guard,
    default 100 million). *)
val run_until_quiescent : ?max_events:int -> t -> unit

(** [pending t] is the number of queued events. *)
val pending : t -> int

(** [processed t] is the number of events executed so far. *)
val processed : t -> int

(** Pretty time: microseconds rendered as e.g. ["1.250s"] or ["750ms"]. *)
val pp_time_us : Format.formatter -> int -> unit
