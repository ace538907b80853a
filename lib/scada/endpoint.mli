(** Client-side endpoint logic shared by substation proxies and HMIs.

    An endpoint assigns client sequence numbers, submits updates through
    a deployment-provided hook, collects threshold-signature shares from
    replica replies, validates the combined signature, measures
    submission-to-validation latency, and retransmits updates that are
    not confirmed within a timeout (covering origin-replica failures). *)

type t

(** [create ~engine ~client_id ~group ~resubmit_timeout_us ~submit ()] —
    [submit ~attempt update] hands the update to the deployment for
    routing; [attempt] starts at 0 and increments per retransmission.
    [telemetry] (default {!Telemetry.Sink.null}) receives the submit
    and confirmation milestones of every update this endpoint issues.

    [batch] (default {!Bft.Batch.singleton}) aggregates first-attempt
    submissions: updates accumulate until [max_batch] or [max_delay_us]
    and flush together through [submit_batch] (falling back to one
    [submit] per member when absent), firing the batched telemetry
    milestone per member at flush. A singleton policy bypasses the
    accumulator entirely — [submit] fires synchronously inside
    {!send_op}, and no timer is ever scheduled. Retransmissions always
    use [submit] individually. *)
val create :
  ?telemetry:Telemetry.Sink.t ->
  ?batch:Bft.Batch.policy ->
  ?submit_batch:(Bft.Update.t list -> unit) ->
  engine:Sim.Engine.t ->
  client_id:Bft.Types.client ->
  group:Cryptosim.Threshold.group ->
  resubmit_timeout_us:int ->
  submit:(attempt:int -> Bft.Update.t -> unit) ->
  unit ->
  t

(** [start t] arms the retransmission watchdog. *)
val start : t -> unit

(** [push_group t g] adopts a new epoch's threshold group; the previous
    one is retained (and only it) so in-flight replies signed by the
    outgoing epoch's group still combine during a membership cutover. *)
val push_group : t -> Cryptosim.Threshold.group -> unit

(** [send_op t op] wraps [op] into the next update and submits it. *)
val send_op : t -> Op.t -> Bft.Update.t

(** [handle_reply t reply] ingests one replica's share. Returns
    [Some body] the first time the shares for that update reach the
    threshold and the combined signature verifies; [None] otherwise. *)
val handle_reply : t -> Reply.t -> Reply.body option

(** [set_on_complete t f]: [f update ~latency_us] fires once per
    confirmed update. *)
val set_on_complete : t -> (Bft.Update.t -> latency_us:int -> unit) -> unit

val client_id : t -> Bft.Types.client
val pending_count : t -> int
val completed_count : t -> int
val resubmit_count : t -> int

(** [batch_policy t] is the current (possibly hot-swapped) aggregation
    policy. *)
val batch_policy : t -> Bft.Batch.policy

(** [set_batch_policy t p] swaps the aggregation policy on the live
    endpoint (runtime tuning plane). If the swap makes the buffered
    generation due — new [max_batch] at or below the buffered length,
    or a shorter deadline now in the past — it flushes immediately; the
    stale generation timer re-checks the deadline, so no update ships
    twice. Note a swap {e to} a singleton policy still drains buffered
    updates through the batch path; only future {!send_op}s bypass the
    accumulator.
    @raise Invalid_argument on an invalid policy. *)
val set_batch_policy : t -> Bft.Batch.policy -> unit
