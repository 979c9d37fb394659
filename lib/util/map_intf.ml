(** Shared signature implemented by all four concurrent maps
    (cache-trie, Ctrie, hash map, skip list), so that the benchmark
    harness, linearizability checker and cross-structure tests are
    generic over the structure under test.

    Semantics follow the JDK [ConcurrentMap] contract the paper
    benchmarks against; every operation is atomic (linearizable) with
    the exception of the aggregate queries ([size], [fold], [iter],
    [to_list]), which are weakly consistent: they observe every key
    present for the whole duration of the call and never observe a key
    absent for the whole duration. *)

module type CONCURRENT_MAP = sig
  type key

  type 'v t

  val name : string
  (** Short structure name used in benchmark reports ("cachetrie",
      "ctrie-snap", "chm", "skiplist", ...). *)

  val create : unit -> 'v t
  (** [create ()] makes an empty map. *)

  val lookup : 'v t -> key -> 'v option
  (** [lookup t k] is the current binding of [k], if any. *)

  val find : 'v t -> key -> 'v
  (** [find t k] is the current binding of [k].
      @raise Not_found if [k] is unbound.  Unlike {!lookup}, a hit
      allocates nothing (no [Some] box): this is the read every
      benchmark measures and every hot caller should prefer. *)

  val mem : 'v t -> key -> bool
  (** [mem t k] is [true] iff [k] is bound.  Allocation-free. *)

  val insert : 'v t -> key -> 'v -> unit
  (** [insert t k v] binds [k] to [v], replacing any previous
      binding (JDK [put] without the return value). *)

  val add : 'v t -> key -> 'v -> 'v option
  (** [add t k v] binds [k] to [v] and returns the previous binding
      (JDK [put]). *)

  val put_if_absent : 'v t -> key -> 'v -> 'v option
  (** [put_if_absent t k v] binds [k] to [v] only if unbound; returns
      the existing binding otherwise (JDK [putIfAbsent]). *)

  val replace : 'v t -> key -> 'v -> 'v option
  (** [replace t k v] rebinds [k] only if already bound; returns the
      previous binding (JDK [replace]). *)

  val replace_if : 'v t -> key -> expected:'v -> 'v -> bool
  (** [replace_if t k ~expected v] atomically rebinds [k] to [v] iff
      its current value is physically equal to [expected] — the JDK
      [replace(key, old, new)], i.e. a compare-and-swap on the
      binding.  For immediate values such as [int], physical equality
      coincides with structural equality. *)

  val remove : 'v t -> key -> 'v option
  (** [remove t k] removes and returns the binding of [k], if any. *)

  val remove_if : 'v t -> key -> expected:'v -> bool
  (** [remove_if t k ~expected] atomically removes [k] iff its current
      value is physically equal to [expected] — the JDK
      [remove(key, value)]. *)

  val find_batch : 'v t -> key array -> miss:'v -> 'v array -> int
  (** [find_batch t keys ~miss out] looks up every [keys.(i)] and
      stores its binding — or [miss] if unbound — into [out.(i)];
      returns the number of keys found.  Semantically identical to a
      left-to-right loop of {!find}: each lookup is individually
      linearizable (there is no atomicity across the batch), and like
      {!find} the call allocates nothing (the [miss] sentinel avoids
      the [option] box).  Structures with staged traversals process
      the keys in lockstep per level, issuing {!Prefetch} hints for the
      next level's nodes before touching them, so the cache misses of
      a batch overlap instead of serializing (DESIGN.md §13); the rest
      fall back to the scalar loop via {!Batch_fallback}.
      @raise Invalid_argument if [out] is shorter than [keys]. *)

  val size : 'v t -> int
  (** Number of bindings; weakly consistent, O(n). *)

  val is_empty : 'v t -> bool

  val fold : ('a -> key -> 'v -> 'a) -> 'a -> 'v t -> 'a
  (** Weakly consistent fold over the bindings. *)

  val iter : (key -> 'v -> unit) -> 'v t -> unit

  val to_list : 'v t -> (key * 'v) list
  (** Bindings in unspecified order. *)

  val footprint_words : 'v t -> int
  (** Structural memory footprint estimate in machine words, using the
      word-cost model documented in DESIGN.md (headers included, keys
      and values counted as one pointer word each).  Single-threaded
      use only. *)

  val validate : 'v t -> (unit, string) result
  (** Structural invariant check.  [Ok ()] on a quiescent,
      residue-free structure; [Error msg] names the first violated
      invariant (including residue a crashed domain left behind:
      frozen subtrees, descriptors, entombed or marked nodes,
      uncommitted transaction boxes).  Read-only — it reports, never
      repairs — and only meaningful during quiescence. *)

  val metrics : 'v t -> Metrics.t
  (** The structure's telemetry counter block (DESIGN.md §11).  Every
      instance owns one, registered under the structure's family name;
      the exporters aggregate them via {!Metrics.aggregate}. *)

  val stats : 'v t -> (string * int) list
  (** Uniform counter snapshot: [(label, total)] for every counter of
      the {!Metrics.counter} vocabulary, in fixed order.  Counters a
      structure never bumps read 0. *)

  val reset_stats : 'v t -> unit
  (** Zero this instance's counters (racy against concurrent bumps). *)

  val scrub : 'v t -> int
  (** [scrub t] actively help-completes every piece of residue an
      abandoned operation may have left behind — the self-healing
      sweep of DESIGN.md §9.  Safe to run concurrently with live
      traffic (it only performs the same helping steps any operation
      would).  Returns the number of repairs performed, so
      [scrub t = 0] witnesses that the structure was already clean:
      on a quiescent structure, [scrub] is idempotent and a second
      call always returns 0.  After a scrub with no concurrent
      writers, {!validate} holds.  Structures with no lock-free
      residue (the lock-striped table, the copy-on-write map) always
      return 0. *)
end

(** A concurrent map construction parameterized by the key type. *)
module type MAKER = functor (H : Hashing.HASHABLE) ->
  CONCURRENT_MAP with type key = H.t

(** A construction available only for integer keys (the folklore
    open-addressing table packs keys into slot words, so it cannot be
    generic).  Any {!MAKER} is also an [INT_MAKER] (functors are
    contravariant in their parameter), so generic batteries written
    against this signature cover both kinds. *)
module type INT_MAKER = functor (H : Hashing.HASHABLE with type t = int) ->
  CONCURRENT_MAP with type key = int

(** Scalar-loop implementation of {!CONCURRENT_MAP.find_batch}, for
    structures without a staged traversal (lock-striped table, skip
    list).  The contract is [find_batch]'s own: a batch IS the loop of
    [find], only faster where staging helps. *)
module Batch_fallback (M : sig
  type key
  type 'v t

  val find : 'v t -> key -> 'v
end) =
struct
  let find_batch t keys ~miss out =
    let n = Array.length keys in
    if Array.length out < n then
      invalid_arg "find_batch: out array shorter than keys";
    let hits = ref 0 in
    for i = 0 to n - 1 do
      match M.find t (Array.unsafe_get keys i) with
      | v ->
          Array.unsafe_set out i v;
          incr hits
      | exception Not_found -> Array.unsafe_set out i miss
    done;
    !hits
end
