(** Deterministic workload generation for the benchmarks.

    The paper's workloads are synthetic key sets (Appendix A.2.4):
    uniformly hashed integer keys, inserted either by all threads (high
    contention, Figure 11) or in disjoint ranges (low contention,
    Figure 12), then looked up in shuffled order (Figures 10 and 13).
    Every generator is deterministic in its [seed] so runs are
    reproducible. *)

val shuffled_keys : ?seed:int -> int -> int array
(** [shuffled_keys n] — the keys [0 .. n-1] in a random order.  The
    maps mix hashes, so sequential key values already give uniform
    trie positions; shuffling removes allocation-order artifacts. *)

val disjoint_ranges : domains:int -> total:int -> int array array
(** [disjoint_ranges ~domains ~total] splits [0 .. total-1] into
    [domains] contiguous chunks (sizes differ by at most 1). *)

val lookup_order : ?seed:int -> int array -> int array
(** A shuffled copy of the key set, for lookup passes. *)

val batches : batch:int -> int array -> int array array
(** [batches ~batch keys] slices [keys] into consecutive chunks of
    [batch] keys (the last chunk may be shorter), the shape
    [find_batch] consumes.  Chunks preserve the
    input order, so [batches ~batch (shuffled_keys n)] is a seeded
    batch-shaped workload.
    @raise Invalid_argument if [batch <= 0]. *)

val batched_lookups : ?seed:int -> batch:int -> int array -> int array array
(** [batched_lookups ~batch keys] — {!lookup_order} of the key set,
    pre-sliced into [batch]-sized chunks for batched lookup passes. *)

val zipf_keys : ?seed:int -> n:int -> universe:int -> float -> int array
(** [zipf_keys ~n ~universe s] — [n] keys drawn from a Zipf([s])
    distribution over [0, universe); used by the skewed-workload
    example and ablations (not part of the paper's figures). *)
