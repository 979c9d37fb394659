(** Ctrie with constant-time lazy snapshots (Prokopec, Bronson,
    Bagwell & Odersky, {e Concurrent Tries with Efficient Non-blocking
    Snapshots}, PPoPP 2012).

    This is the full snapshotting variant of the Ctrie baseline: every
    I-node carries a generation token, all main-node replacements go
    through GCAS (generation-compare-and-swap, a restartable
    double-compare-single-swap keyed on the root generation), and
    {!Make.snapshot} atomically swaps the root to a fresh generation
    with an RDCSS descriptor.  Both the original and the snapshot then
    lazily copy I-nodes on first access per generation — so a snapshot
    is O(1) and subsequent operations pay amortized copy-on-write.

    The cache-trie paper's conclusion names an efficient linearizable
    snapshot as the deciding feature tries hold over hash tables; this
    module reproduces that capability for the baseline, and its cost
    is measured by the [snapshot] benchmark.

    All operations are lock-free and linearizable; [snapshot] is
    linearizable with respect to every other operation. *)

module Make (H : Ct_util.Hashing.HASHABLE) : sig
  include Ct_util.Map_intf.CONCURRENT_MAP with type key = H.t

  val snapshot : 'v t -> 'v t
  (** [snapshot t] returns, in O(1), a map holding exactly the
      bindings of [t] at the linearization point.  The result and [t]
      evolve independently afterwards. *)

  val fold_snapshot : ('a -> key -> 'v -> 'a) -> 'a -> 'v t -> 'a
  (** [fold_snapshot f acc t] folds over a linearizable snapshot of
      [t] (unlike {!fold}, which is weakly consistent). *)

  (** [validate] (from {!Ct_util.Map_intf.CONCURRENT_MAP}) checks, for
      a quiescent trie: bitmap/array agreement, hash-prefix
      consistency, LNode sanity, no reachable TNode, every GCAS update
      committed and no pending RDCSS root descriptor.  Read-only —
      residue left by a crashed domain is reported, not repaired —
      which is what the chaos/crash-recovery tests rely on.  [scrub]
      performs the repairs: it completes any pending RDCSS root
      descriptor, decides every pending GCAS update, and compacts
      entombed branches. *)
end
