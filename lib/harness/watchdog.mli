(** Progress watchdog over {!Ct_util.Progress} heartbeats.

    Detects worker domains that have stopped {e publishing} — a domain
    parked inside a yield-point hook, crashed mid-operation, or
    spinning in a CAS retry loop all look the same here: an attached
    slot whose heartbeat counter stays frozen across epochs.  The
    report names the last yield-point site the domain was observed at
    (the {!Ct_util.Yieldpoint} observer fires before the main hook, so
    the site is recorded even when the hook never returns).

    The watchdog is advisory: it never unblocks a domain itself.  Its
    escalation hook is meant to run a {e scrub} on the affected
    structures so the survivors stop depending on the stuck domain's
    incidental helping. *)

type report = {
  slot : int;  (** progress slot of the stalled domain *)
  beats : int;  (** heartbeat count frozen since the stall began *)
  epochs_stalled : int;  (** consecutive silent epochs *)
  site : Ct_util.Yieldpoint.site option;
      (** last yield point the domain reached, if any *)
  phase : Ct_util.Yieldpoint.phase option;
}

type t

val create :
  ?stall_epochs:int ->
  ?on_stall:(report -> unit) ->
  ?flight:Obs.Flight.t ->
  ?tracer:Obs.Trace.t * Obs.Latency.t ->
  Ct_util.Progress.t ->
  t
(** [create progress] watches [progress].  A slot is reported stalled
    after [stall_epochs] (default 3) consecutive epochs without a
    heartbeat; slots never attached are ignored.  [on_stall] runs once
    per slot per stall episode, from the stepping thread — it must not
    block on the stalled domain.  [flight] wires in a flight recorder
    whose stamp-ordered dump {!post_mortem} embeds (install it with
    {!Obs.Flight.install_with_progress} so heartbeats and events come
    from the same observer).  [tracer] pairs a span collector with the
    latency histogram whose tail exemplars index into it;
    {!post_mortem} then dumps the span tree of the slowest sampled
    request still resident — what the stalled site was doing to the
    tail. *)

val step : t -> report list
(** Advance one epoch by hand and return every currently stalled slot
    (deterministic mode, used by the tests).  Fresh stalls trigger
    [on_stall]; a slot that beats again re-arms its escalation. *)

val stalled : t -> report list
(** Currently stalled slots, without advancing the epoch. *)

val report_to_string : report -> string
(** ["slot 2 stalled for 4 epochs at cachetrie.txn.help/before (17 beats)"] *)

val post_mortem : ?flight_limit:int -> t -> string
(** Full diagnostic dump: per-slot heartbeat ages (beats, epochs of
    silence, last yield point) for every attached slot, the current
    stall reports, — when a flight recorder was passed to {!create} —
    its most recent [flight_limit] (default 64) events in stamp order,
    and — with [tracer] — the span tree of the current tail exemplar.
    Safe to call concurrently with running workers. *)

val start : t -> interval:float -> unit
(** Spawn a background monitor thread stepping every [interval]
    seconds.  Raises [Invalid_argument] if already running. *)

val stop : t -> unit
(** Stop and join the monitor thread; idempotent. *)
