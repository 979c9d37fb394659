(** Dense per-domain slots: the one source of per-domain indices.

    [Domain.self] ids are unique per spawn, not dense, so masking one
    down to a table size makes two live domains share an entry.  A slot
    is instead leased: a domain takes the lowest free slot on its first
    {!get}, keeps it in domain-local storage and returns it at
    [Domain.at_exit].  Slots [0 .. capacity - 1] are each held by at
    most one live domain, so a per-slot cell can be a plain
    read-add-write and still count exactly.  A domain that arrives
    while every slot is held gets the shared overflow slot {!capacity}
    for its lifetime; per-slot structures update that one atomically
    ({!Stripe}).

    Systhreads of one domain share its slot.  They switch only at
    allocations and polls, so a writer must not allocate between its
    load and its store of a slot-owned cell. *)

val capacity : int
(** [Bits.next_power_of_two (Domain.recommended_domain_count () + 1)]:
    the number of exclusive slots (room for the main domain and one
    worker per recommended domain), and the overflow slot's index. *)

val get : unit -> int
(** The calling domain's slot, in [[0, capacity]]. *)
