(** Yield points: named fault-injection hooks inside the lock-free
    algorithms.

    Every CAS, freeze step, transaction announcement and cache install
    in the trie implementations is bracketed by a call to {!here} with
    a registered {!site}.  In production nothing is installed and
    [here] is a single [Atomic.get] of a [None] default — no
    allocation, no branch beyond the option match — so the hooks are
    free to leave enabled unconditionally.

    The chaos layer ([lib/chaos]) installs a hook to stall a victim
    domain at a chosen point, abandon an operation mid-flight
    (simulating a crashed/descheduled domain), or inject randomized
    delays that widen race windows.  This is what lets the test suite
    drive the helping and freeze-completion paths deterministically
    instead of hoping the scheduler produces the adversarial
    interleavings the paper's lock-freedom argument is about.

    Contract at each instrumented operation:
    - [here Before site] fires before the CAS/write is attempted;
    - [here After site] fires only after a {e successful} CAS (or
      after the plain write, for cache installs) — so a hook raising at
      [After] leaves the published value visible, exactly the state a
      domain that died right after publication would leave behind.

    The hook may spin or raise; it must not re-enter the structure
    under test. *)

type phase = Before | After

type site
(** A registered yield point.  Sites are interned by name: registering
    the same name twice returns the same site, so hooks can match on
    physical equality. *)

val register : string -> site
(** [register name] interns a site.  Called at module-initialization
    time by the instrumented libraries; names are dot-separated
    ["structure.operation.step"], e.g. ["cachetrie.expand.publish"]. *)

val register_read : string -> site
(** Like {!register}, but marks the site read-only: the step it
    brackets performs no write that another operation's correctness can
    observe (benign racy cache maintenance excepted).  The
    deterministic scheduler uses this to prune commuting read/read
    interleavings; everything else treats the site like any other. *)

val name : site -> string

val is_read : site -> bool
(** Whether the site was registered with {!register_read}. *)

val id : site -> int
(** A dense, unique integer for the site, so recorders can store sites
    in int arrays. *)

val of_id : int -> site
(** Inverse of {!id}.
    @raise Not_found for an id no site has. *)

val all : unit -> site list
(** Every registered site, sorted by name.  Only sites of libraries
    linked into the current program appear. *)

val with_prefix : string -> site list
(** [with_prefix "cachetrie."] — the instrumented points of one
    structure. *)

val here : phase -> site -> unit
(** Fast path.  With no hook installed this is one atomic load. *)

val install : (phase -> site -> unit) -> unit
(** [install f] makes every [here] call run [f].  Installing replaces
    any previous hook; the hook is global (all domains), so injectors
    that target one domain must filter on [Domain.self] themselves. *)

val clear : unit -> unit
(** Remove the hook (back to the production fast path). *)

val active : unit -> bool

val install_observer : (phase -> site -> unit) -> unit
(** [install_observer f] installs a passive listener in a slot
    independent of {!install}: every [here] call runs the observer
    {e before} the main hook, so the observer records the site even
    when the hook parks the domain or raises (the chaos stall/crash
    injectors).  Used by the progress watchdog to note the last yield
    point each domain reached.  The observer must not raise and must
    not re-enter the structure under test. *)

val clear_observer : unit -> unit

val observer_active : unit -> bool

(** {2 Domain-local hooks}

    A third slot, independent of {!install} and {!install_observer},
    that fires only for code running in the domain that installed it.
    This is the per-fiber hook context the deterministic scheduler
    ([lib/mc]) needs: it runs several virtual domains as
    cooperatively-scheduled fibers on one real domain and parks each
    fiber at every yield point by performing an effect from the local
    hook — without filtering on [Domain.self], and without perturbing
    other domains that happen to cross yield points concurrently.

    The local hook runs after the observer and before the global hook.
    When no domain has a local hook installed, [here] pays one extra
    atomic load of a zero counter and never touches domain-local
    storage. *)

val set_local : (phase -> site -> unit) -> unit
(** Install a hook visible only to the calling domain (replacing any
    previous local hook of this domain). *)

val clear_local : unit -> unit
(** Remove the calling domain's local hook, if any. *)

val local_active : unit -> bool
(** Whether the calling domain has a local hook installed. *)

val with_local : (phase -> site -> unit) -> (unit -> 'a) -> 'a
(** [with_local f body] runs [body] with [f] installed as the calling
    domain's local hook, uninstalling it on exit (also on raise). *)
