(** Chaos layer: fault injection at the tries' yield points.

    The paper's lock-freedom and linearizability arguments rest on
    {e helping}: any domain that finds a frozen slot, a live
    ENode/FNode/XNode descriptor, or an announced SNode transaction
    can complete the stalled operation itself (PAPER.md §3.4–§3.7),
    and likewise for the Ctrie's TNode cleanup and GCAS/RDCSS
    descriptors.  The scheduler alone almost never produces the
    adversarial interleavings those paths exist for, so this module
    forces them: it installs hooks on the {!Ct_util.Yieldpoint} sites
    that bracket every CAS in [Cachetrie], [Ctrie_snap] and the other
    lock-free maps.

    Three injectors, all driven by seeded {!Ct_util.Rng} state:

    - {!stall} parks a chosen victim domain the first time it reaches
      a chosen yield point, until {!release} — used to show peers
      still make progress whichever single step a domain is suspended
      at (lock-freedom via helping);
    - {!crash} raises {!Injected_crash} in the victim at a chosen
      point, abandoning the operation mid-flight and leaving its
      descriptor/announcement live in the structure — used to show a
      peer's next operation help-completes the residue;
    - {!jitter} randomly pauses {e every} domain at yield points,
      widening race windows for the linearizability battery.

    Only one injector is active at a time (constructors overwrite the
    global hook); call {!clear} when done — tests should do so in a
    [Fun.protect] finalizer so a failing assertion cannot leak a hook
    into later tests. *)

exception Injected_crash of string
(** Raised in the victim domain by {!crash}; the payload is the site
    name.  The abandoned operation's partial state is left in the
    structure on purpose. *)

type t
(** An injector handle. *)

val stall : ?phase:Ct_util.Yieldpoint.phase -> Ct_util.Yieldpoint.site -> t
(** [stall site] installs a stall injector: the first time the victim
    domain (see {!as_victim}) reaches [site] at [phase] (default
    [Before]), it parks in a sleep loop until {!release} (sleeping
    keeps the parked domain in a blocking section, so it cannot block
    other domains' stop-the-world sections).  Fires at most once. *)

val crash : ?phase:Ct_util.Yieldpoint.phase -> ?skip:int -> Ct_util.Yieldpoint.site -> t
(** [crash site] installs a crash injector: the [skip]+1-th time
    (default first) the victim reaches [site] at [phase] (default
    [After] — i.e. just {e after} a successful publication, the
    canonical "died holding a live descriptor" state), raise
    {!Injected_crash}.  Fires at most once. *)

val jitter : ?seed:int -> ?one_in:int -> ?max_spin:int -> unit -> t
(** [jitter ()] installs a delay injector affecting all domains: at
    every yield point, with probability [1/one_in] (default 4), spin
    for a pseudo-random number of [cpu_relax] steps drawn from a
    per-domain seeded {!Ct_util.Backoff} window capped at [max_spin]
    (default 512).  Deterministic per (seed, domain). *)

val as_victim : t -> (unit -> 'a) -> 'a
(** [as_victim inj f] runs [f] with the current domain registered as
    [inj]'s victim (stall/crash injectors only target the victim).
    Always unregisters, including on exception. *)

val stalled : t -> bool
(** Has the stall victim parked at the site yet?  (Stall handles only.) *)

val release : t -> unit
(** Let a parked (or future) stall victim through.  (Stall handles only.) *)

val crashed : t -> bool
(** Did the crash fire?  (Crash handles only.) *)

val clear : unit -> unit
(** Uninstall whatever hook is active; yield points return to the
    production no-op fast path. *)

(** Traffic-path fault family: client-side connection faults
    (drops, slow-loris, read pauses) and bounded worker stalls for
    the serving layer.  See {!Chaos_net}. *)
module Net : module type of Chaos_net

(** Storage-path fault family: torn/short writes, failed and delayed
    fsyncs, deterministic kills on the {!Persist.Io} seam.  See
    {!Chaos_disk}. *)
module Disk : module type of Chaos_disk
