(* Allocation-lean scheduler core: one timer record per scheduled
   callback is the only per-event allocation. A periodic timer is a
   single record re-pushed into the heap at each firing (no fresh
   closure or event box per period), and the heap itself stores events
   in parallel arrays. Cancelled-but-queued entries are purged lazily
   once they are numerous enough to matter, so cancel/re-arm-heavy
   workloads (client resubmit timers, chaos schedules) cannot bloat the
   heap. *)

type t = {
  mutable clock_us : int;
  heap : timer Event_heap.t;
  root_rng : Rng.t;
  mutable processed : int;
  mutable cancelled_queued : int; (* cancelled entries still queued *)
}

and timer = {
  engine : t;
  callback : unit -> unit;
  interval_us : int; (* 0 = one-shot *)
  mutable next_at : int; (* scheduled firing time (cadence anchor) *)
  mutable cancelled : bool;
  mutable queued : bool; (* currently has an entry in the heap *)
}

let create ?(seed = 0xC0FFEEL) () =
  {
    clock_us = 0;
    heap = Event_heap.create ();
    root_rng = Rng.create seed;
    processed = 0;
    cancelled_queued = 0;
  }

let now t = t.clock_us
let rng t = Rng.split t.root_rng
let push_timer t tm = Event_heap.push t.heap ~time:tm.next_at tm

let schedule_at t ~time_us f =
  let time_us = max time_us (now t) in
  let timer =
    {
      engine = t;
      callback = f;
      interval_us = 0;
      next_at = time_us;
      cancelled = false;
      queued = true;
    }
  in
  push_timer t timer;
  timer

let schedule t ~delay_us f = schedule_at t ~time_us:(now t + max 0 delay_us) f

let periodic t ~interval_us f =
  if interval_us <= 0 then invalid_arg "Engine.periodic: interval_us <= 0";
  let timer =
    {
      engine = t;
      callback = f;
      interval_us;
      next_at = now t + interval_us;
      cancelled = false;
      queued = true;
    }
  in
  push_timer t timer;
  timer

let pending t = Event_heap.size t.heap

(* Purge threshold: compaction is O(total queued) and resets the debt,
   so amortised cost stays O(1) per cancel; requiring the cancelled
   share to be at least half the queued load bounds heap size at 2x the
   live load. Compaction preserves (time, seq) keys, so pop order of
   survivors is untouched. *)
let compact_min_cancelled = 64

let maybe_compact t =
  if
    t.cancelled_queued >= compact_min_cancelled
    && 2 * t.cancelled_queued >= pending t
  then begin
    Event_heap.compact t.heap ~keep:(fun tm -> not tm.cancelled);
    t.cancelled_queued <- 0
  end

let cancel timer =
  if not timer.cancelled then begin
    timer.cancelled <- true;
    if timer.queued then begin
      let e = timer.engine in
      e.cancelled_queued <- e.cancelled_queued + 1;
      maybe_compact e
    end
  end

(* Pop and run the earliest entry; the heap must be non-empty. *)
let step_min t =
  let time = Event_heap.min_time t.heap in
  let tm = Event_heap.pop_min t.heap in
  if time > t.clock_us then t.clock_us <- time;
  tm.queued <- false;
  if tm.cancelled then t.cancelled_queued <- t.cancelled_queued - 1
  else begin
    t.processed <- t.processed + 1;
    tm.callback ();
    (* Re-arm relative to the firing's *scheduled* time, not the
       clock at callback return: a callback that advances the clock
       (nested [run]) or pops late must not skew subsequent firings.
       Re-arming after the callback keeps insertion order — and hence
       same-timestamp tie-breaking — identical to scheduling done
       inside the callback itself. *)
    if tm.interval_us > 0 && not tm.cancelled then begin
      tm.next_at <- tm.next_at + tm.interval_us;
      tm.queued <- true;
      push_timer t tm
    end
  end

let step t =
  if Event_heap.is_empty t.heap then false
  else begin
    step_min t;
    true
  end

let run t ~until_us =
  while
    (not (Event_heap.is_empty t.heap)) && Event_heap.min_time t.heap <= until_us
  do
    step_min t
  done;
  t.clock_us <- max t.clock_us until_us

let run_until_quiescent ?(max_events = 100_000_000) t =
  let budget = ref max_events in
  while step t do
    decr budget;
    if !budget <= 0 then failwith "Engine.run_until_quiescent: event budget exceeded"
  done

let processed t = t.processed

let pp_time_us ppf us =
  if us >= 1_000_000 then Format.fprintf ppf "%.3fs" (float_of_int us /. 1e6)
  else if us >= 1_000 then Format.fprintf ppf "%dms" (us / 1000)
  else Format.fprintf ppf "%dus" us
