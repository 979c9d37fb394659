(** Cache-trie: a concurrent lock-free hash trie with expected
    constant-time operations.

    This is the primary data structure of Prokopec, {e Cache-Tries:
    Concurrent Lock-Free Hash Tries with Constant-Time Operations}
    (PPoPP 2018).  A cache-trie is a 16-way hash trie whose inner nodes
    ([ANode]s) come in two sizes (narrow: 4 slots, wide: 16 slots), with
    leaf nodes ([SNode]s) carrying one binding each.  All operations are
    lock-free; lookups that do not encounter concurrent structural
    changes are wait-free.  An auxiliary, quiescently-consistent
    {e cache} keeps pointers to nodes at the trie level where most keys
    live, which makes [lookup], [insert] and [remove] run in expected
    O(1) time (paper, Theorems 4.1-4.4).

    Concurrency contract: any number of domains may call any operation
    concurrently.  Aggregate queries ([size], [fold], [iter],
    [to_list], [depth_histogram], [footprint_words], [validate]) are
    weakly consistent and intended for quiescent or read-mostly use. *)

(** Tuning knobs.  The defaults correspond to the constants reported in
    the paper (Sections 3.5-3.6). *)
type config = {
  enable_cache : bool;  (** [false] gives the paper's "w/o cache" ablation variant *)
  max_misses : int;
      (** cache misses per domain before a sampling pass (paper: 2048);
          each domain counts in its own padded {!Ct_util.Stripe} row *)
  sample_paths : int;  (** random root-to-leaf paths walked per sampling pass *)
  min_cache_level : int;  (** level of the first cache installed (paper: 8) *)
  cache_trigger_level : int;  (** trie level whose nodes trigger cache creation (paper: 12) *)
  narrow_nodes : bool;  (** [false] always allocates 16-slot nodes (ablation) *)
  dual_level_cache : bool;
      (** keep the chain's fallback level inhabited too — the paper's
          Section 7 "cache two levels at once" suggestion; [false]
          restricts inhabiting to the head level (ablation) *)
}

val default_config : config

(** Counters describing cache behaviour; see {!Make.cache_stats}. *)
type stats = {
  cache_level : int option;  (** current deepest cache level, if a cache exists *)
  cache_chain : int list;  (** levels in the cache chain, deepest first *)
  expansions : int;  (** completed narrow-to-wide expansions *)
  compressions : int;  (** completed remove-side compressions *)
  sampling_passes : int;
  cache_installs : int;
  cache_adjustments : int;  (** cache level changes decided by sampling *)
}

module Make (H : Ct_util.Hashing.HASHABLE) : sig
  include Ct_util.Map_intf.CONCURRENT_MAP with type key = H.t

  val create_with : config:config -> unit -> 'v t
  (** [create_with ~config ()] makes an empty cache-trie with explicit
      tuning (use [{ default_config with enable_cache = false }] for
      the paper's cache-less baseline). *)

  val to_seq : 'v t -> (key * 'v) Seq.t
  (** Lazy, weakly consistent iteration over the bindings: slots are
      read as the sequence is consumed, so the unconsumed suffix
      observes concurrent updates.  Each binding present for the whole
      traversal is produced exactly once. *)

  val cache_stats : 'v t -> stats
  (** Cache-trie-specific view over the telemetry counters, plus the
      cache chain shape.  The raw counters are the same ones [stats]
      (the uniform {!Ct_util.Map_intf.CONCURRENT_MAP} snapshot)
      reports under the registry labels. *)

  val depth_histogram : 'v t -> int array
  (** [depth_histogram t].(d) is the number of keys whose leaf sits at
      trie depth [d] (level [4*d]).  Index 0 is always 0 (the root is
      an ANode); the last slot aggregates any deeper keys.  This is the
      artifact's "BirthdaySimulations" histogram. *)

  (** [validate] (from {!Ct_util.Map_intf.CONCURRENT_MAP}) checks, for
      a quiescent trie: hash-prefix consistency, node widths, absence
      of freeze markers and descriptors, narrow-node content
      restrictions, LNode sanity, and cache coherence — every cache
      entry either reaches the recorded level from the root or is
      self-invalidating stale (frozen/dead), never a live-looking
      detached node.  [scrub] walks the trie help-completing expansion
      and compression descriptors and pending [txn]s, then drops
      incoherent cache entries. *)
end
