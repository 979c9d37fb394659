(** Bounded cache tier: a functor over any [CONCURRENT_MAP] that
    enforces a word budget with CLOCK replacement, TTL expiry, and
    negative caching of backing-store misses (DESIGN.md §15).

    CLOCK is the only policy: keys sit in striped rings in admission
    order; eviction pops the oldest, and an entry read since its last
    pass gets one second chance (its access bit is cleared and it is
    re-pushed) instead.  An overwrite keeps the key's ring position.

    The budget is a hard invariant, not a goal: admission reserves an
    entry's cost against the budget with a CAS {e before} the entry
    becomes resident, evicting until the reservation fits, so the
    resident footprint never exceeds [budget_words] at any instant of
    any interleaving.  Costs follow the Footprint word model
    ([Obj.reachable_words] of key and value by default, overridable)
    plus a fixed {!entry_overhead_words} metadata charge.

    An expired entry is never served.  It is reclaimed where the tier
    already touches it: by the read that finds it dead, or by the CLOCK
    scan when it pops the entry (counted as an expiration, not an
    eviction).  Until then it stays charged against the budget. *)

type config = {
  budget_words : int;  (** resident-cost ceiling, machine words *)
  stripes : int;
      (** ring stripes; [<= 0] = one per {!Ct_util.Domain_slot} *)
  max_entry_frac : float;
      (** entries costing more than this fraction of the budget are
          rejected at admission rather than flushing the cache *)
}

val default_config : budget_words:int -> config
(** Auto stripes and [max_entry_frac = 0.25]. *)

val entry_overhead_words : int
(** Fixed metadata charge per resident entry (entry record, map leaf,
    ring slot), added to the caller-visible value cost. *)


(** Counter snapshot; also exported via {!Make.metrics} under the
    [cache-tier] family (Prometheus/JSON). *)
type stats = {
  hits : int;
  misses : int;
  negative_hits : int;
  evictions : int;
  expirations : int;
  rejections : int;
  used_words : int;
  budget_words_ : int;
  resident : int;
}

module Make (M : Ct_util.Map_intf.CONCURRENT_MAP) : sig
  type key = M.key
  type 'v t

  val create :
    ?config:config ->
    ?now:(unit -> int) ->
    ?cost:(key -> 'v -> int) ->
    unit ->
    'v t
  (** [create ()] — a cache over a fresh [M.t].  [config] defaults to
      [default_config ~budget_words:(1 lsl 20)] (8 MiB on 64-bit);
      [now] is the nanosecond clock driving TTLs (default
      [Ct_util.Clock.monotonic_ns]; inject a fake for deterministic
      expiry tests); [cost] prices a key/value pair in words (default
      [Obj.reachable_words] of both, the
      same model as [Harness.Footprint]).
      @raise Invalid_argument on a budget below one entry's overhead
      or [max_entry_frac] outside [(0, 1]]. *)

  val get : 'v t -> key -> 'v option
  (** Read path.  Checks the expiry stamp itself (dropping a dead
      entry on sight) and sets the access bit.  Counts a hit, negative
      hit, or miss; a cached absence and a miss both read [None]. *)

  val put : ?ttl_ns:int -> 'v t -> key -> 'v -> bool
  (** [put t k v] admits [k -> v] under the budget, evicting as
      needed.  [false] = admission refused (entry above
      [max_entry_frac], or the budget could not be met), counted as a
      rejection.  [ttl_ns] omitted or [<= 0] means no expiry.
      Overwriting keeps the key's ring position. *)

  val remove : 'v t -> key -> bool
  (** Explicit invalidation; releases the entry's reservation. *)

  val get_or_load :
    ?ttl_ns:int ->
    ?negative_ttl_ns:int ->
    'v t ->
    key ->
    load:(key -> 'v option) ->
    'v option
  (** Read-through: on a miss calls [load] and caches its answer —
      [Some v] as a value for [ttl_ns], [None] as a cached absence for
      [negative_ttl_ns] (default 1 s), so an absent key storm costs one
      load per negative-TTL window rather than a stampede. *)

  val used_words : 'v t -> int
  (** Reserved words right now; [used_words t <= budget_words t]
      always, and at quiescence equals the resident cost sum. *)

  val budget_words : 'v t -> int
  val resident : 'v t -> int
  val config : 'v t -> config
  val stats : 'v t -> stats

  val metrics : 'v t -> Ct_util.Metrics.t
  (** The [cache-tier] counter block ([Tier_hits] .. [Tier_rejections])
      — registered globally, so it exports via [Metrics.prometheus] /
      [Metrics.to_json] like every other family. *)

  val validate : 'v t -> (unit, string) result
  (** Quiescent invariant check: [0 <= used <= budget] and [used]
      equals the fold-summed cost of resident entries. *)
end
