(** Lock-free MPMC key ring: the striped replacement-order substrate
    of the bounded cache tier (DESIGN.md §15).

    Tracks {e eviction candidates} in admission order.  Best-effort by
    design: under races a slot can be abandoned (its key then lives in
    the map untracked by any ring), which the cache covers with a fold
    fallback — the budget invariant never depends on ring
    completeness. *)

type 'k t

val create : capacity:int -> 'k t
(** [create ~capacity] — an empty ring of at least [capacity] slots
    (rounded up to a power of two, min 2). *)

val capacity : 'k t -> int

val length : 'k t -> int
(** Occupancy estimate (racy reads, clamped to [[0, capacity]]). *)

val try_push : 'k t -> 'k -> bool
(** [try_push t k] appends [k] if the ring has a free slot; [false]
    (and no change) when it is full. *)

val push : 'k t -> 'k -> on_displace:('k -> unit) -> unit
(** [push t k ~on_displace] appends [k].  Always lands; when the ring
    is full the oldest element is popped and handed to [on_displace]
    first (the cache evicts it), so a ring sized below the resident
    set degrades into eviction pressure, never an error. *)

val pop : 'k t -> 'k option
(** [pop t] removes and returns the oldest element, or [None] when
    empty.  Lock-free; concurrent pops each get distinct elements. *)
