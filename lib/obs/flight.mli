(** Lock-free flight recorder: the last N yield-point events per
    domain, for post-mortem dumps (DESIGN.md §11).

    Each domain slot owns a private {!Ring} of (site, phase, stamp)
    entries, written from the yield-point {e observer} slot — the slot
    that fires before the chaos hook and the domain-local hook, so the
    recorder captures the site even when an injector parks or kills
    the domain right there.  Recording allocates nothing: two payload
    stores and the stamp, taken by one [Atomic.fetch_and_add] on the
    global logical clock that gives every event a unique stamp and the
    merged dump a strict total order.

    [dump] may run concurrently with recorders (that is its point: it
    runs from watchdog stall callbacks and failing-test handlers).  It
    is best-effort on the entries being overwritten at that instant —
    a ring slot mid-rewrite can pair a fresh site with a stale stamp —
    but the result is always stamp-sorted and never mixes up entries
    that were quiescent when the dump started. *)

type t

type entry = {
  slot : int;
      (** the recording domain's {!Ct_util.Domain_slot};
          [Domain_slot.capacity] for the shared overflow ring *)
  stamp : int;  (** global logical time; unique, totally ordered *)
  site : Ct_util.Yieldpoint.site;
  phase : Ct_util.Yieldpoint.phase;
}

val create : ?size:int -> unit -> t
(** [create ()] — rings of [size] entries (default 256, rounded up to
    a power of two) for every domain slot and the overflow ring. *)

val size : t -> int
(** Ring capacity per domain slot. *)

val record : t -> Ct_util.Yieldpoint.phase -> Ct_util.Yieldpoint.site -> unit
(** Append one event to the calling domain's ring, overwriting the
    oldest.  Allocation-free; safe from any domain. *)

val recorded : t -> int
(** Total events ever recorded (the logical clock's value). *)

val install : t -> unit
(** Put [record t] in the yield-point observer slot, replacing any
    previous observer. *)

val install_with_progress : t -> Ct_util.Progress.t -> unit
(** Compose with the progress tracker: the observer first feeds
    [Progress.observe] (heartbeats for the watchdog), then records —
    both consumers share the single observer slot. *)

val uninstall : unit -> unit
(** Clear the observer slot. *)

val dump : t -> entry list
(** Every live entry across all rings, sorted by stamp (oldest
    first). *)

val dump_to_string : ?limit:int -> t -> string
(** Render the dump one event per line, oldest first; with [limit],
    only the most recent [limit] events.  Empty dump renders as a
    single explanatory line. *)

val reset : t -> unit
(** Forget all recorded events (racy against concurrent recorders). *)
