(** Per-structure telemetry counters — the metrics registry of the
    observability layer (DESIGN.md §11).

    Every concurrent map owns a [Metrics.t] and bumps a fixed
    vocabulary of counters from its hot paths.  A bump is a plain
    read-add-write of one int in the calling domain's {!Stripe} row —
    no CAS, no allocation, no fence — so the counters are cheap enough
    to leave always-on (the budget enforced by [BENCH_obs.json]: ≤5% on
    [find], 0 minor words/op).  Rows are leased per {!Domain_slot}, so
    no two live domains share one and counts are exact; domains beyond
    [Domain_slot.capacity] share the overflow row, bumped by CAS.

    Instances register themselves in a process-global weak registry, so
    {!aggregate} can sum per structure family for the exporters without
    keeping short-lived maps alive. *)

(** The counter vocabulary shared by all structures.  A structure bumps
    the subset that applies to it and reports 0 for the rest. *)
type counter =
  | Cas_attempts  (** CAS operations attempted (publication tries) *)
  | Cas_retries  (** CAS operations that failed and will be retried *)
  | Helps  (** helping steps completed on behalf of another operation *)
  | Freezes  (** slots/nodes successfully frozen during expansion/compression *)
  | Expansions  (** completed node expansions (ENode; CHM table growth) *)
  | Compressions  (** completed remove-side compressions (XNode) *)
  | Entombments  (** TNode entombments published (Ctrie family) *)
  | Cache_hits  (** cache-trie probes served from a cache level *)
  | Cache_misses  (** cache-trie probes that fell through to the root walk *)
  | Cache_invalidations  (** cache entries cleared (scrub coherence pass) *)
  | Scrub_repairs  (** repairs performed by [scrub] *)
  | Sampling_passes  (** cache-trie depth-sampling passes *)
  | Cache_installs  (** cache-trie cache creations *)
  | Cache_adjustments  (** cache-trie cache level changes *)
  | Wal_appends  (** records appended to the write-ahead log *)
  | Wal_fsyncs  (** group-commit fsyncs completed by the WAL *)
  | Wal_retries  (** failed fsyncs retried on the WAL's backoff budget *)
  | Checkpoints  (** checkpoint files published (fsync + rename) *)
  | Checkpoint_records  (** bindings serialized across all checkpoints *)
  | Recovery_replayed  (** WAL records replayed by [Recovery.load] *)
  | Tier_hits  (** bounded-cache tier: lookups served a live value *)
  | Tier_misses
      (** bounded-cache tier: lookups that found nothing (includes
          entries dropped for expiry on the read path) *)
  | Tier_negative_hits
      (** bounded-cache tier: lookups answered by a cached [Absent]
          entry — a backing-store miss the tier absorbed *)
  | Tier_evictions  (** bounded-cache tier: entries evicted for budget *)
  | Tier_expirations  (** bounded-cache tier: entries dropped by TTL *)
  | Tier_rejections
      (** bounded-cache tier: puts refused by admission control *)
  | Renewals
      (** Ctrie_snap: C-nodes copied into the current generation
          because a snapshot moved the root to a new one *)

val all : counter list
(** Every counter, in the fixed export order. *)

val label : counter -> string
(** Stable snake_case name used by the exporters ("cas_attempts"). *)

val index : counter -> int
(** Position of the counter in {!all} / in a totals array. *)

type t

val create : family:string -> t
(** [create ~family] makes a zeroed counter block, one row per
    {!Domain_slot} plus the overflow row, and registers it (weakly) under
    [family] — the structure name ("cachetrie", "ctrie-snap", ...). *)

val family : t -> string

val incr : t -> counter -> unit
(** Bump by one on the calling domain's block.  Allocation-free; a
    no-op while disabled. *)

val add : t -> counter -> int -> unit

val cursor : t -> int
(** Precomputed bump target for a run of increments from one domain:
    the calling domain's {!Stripe} row handle, or [-1] while disabled.
    [incr] looks up the domain's slot on every bump, a call that
    clobbers caller-saved registers — measurable inside a
    register-heavy read loop.  Hot paths instead take a cursor once at
    operation entry, where little is live, and bump through it with
    pure array arithmetic.  A cursor stays valid for the domain's
    lifetime; an enable/disable flip is seen at the next capture. *)

val incr_at : t -> int -> counter -> unit
(** [incr_at t cursor c]: bump by one through a {!cursor}.  No call,
    and for a leased row no branch beyond the [cursor >= 0] test. *)

val add_at : t -> int -> counter -> int -> unit

val get_at : t -> int -> counter -> int
(** [get_at t cursor c]: the calling domain's own cell of [c], read
    through a {!cursor} (0 while disabled).  Unlike {!get}, no row
    sweep and no cross-domain noise — bracketing one operation with two
    [get_at]s yields the delta that operation alone produced on this
    domain, which is how traced requests annotate their map-op spans
    with per-request CAS-retry counts.  On the shared overflow row the
    delta also counts the other overflow domains' bumps. *)

val get : t -> counter -> int
(** Sum of one counter across all rows (racy reads; exact once the
    writers are quiescent). *)

val snapshot : t -> (string * int) list
(** All counters as [(label, total)] pairs in {!all} order — the
    uniform [stats] surface every map exposes. *)

val reset : t -> unit
(** Zero every counter (racy against concurrent bumps, by design). *)

val set_enabled : bool -> unit
(** Global gate over every bump in the program.  Default [true]; the
    obs-off side of the overhead benchmark flips it off.  Reads and
    exporters keep working either way. *)

val live : unit -> t list
(** Every instance still alive (weak registry, pruned lazily). *)

val aggregate : unit -> (string * int * (string * int) list) list
(** Per-family totals over {!live}: [(family, live_instances,
    counters)], sorted by family name.  This is what the Prometheus
    and JSON exporters serialize. *)
