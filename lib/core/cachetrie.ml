module Slots = Ct_util.Slots

(* Cache-trie: lock-free concurrent hash trie with a quiescently
   consistent cache (Prokopec, PPoPP'18).

   The implementation follows the paper's pseudocode (Figures 2-8)
   with the OCaml-specific decisions documented in DESIGN.md:

   - An ANode is one heap block, as in the paper's Figure 1: its tag
     is the [ANode] constructor's and its 4 or 16 fields are its
     slots, read and CASed in place through Ct_util.Slots (the
     runtime's [caml_atomic_cas_field]).  There is no constructor box
     around a slot array, so a level of the walk is one dependent load
     (the slot) and the node a slot holds is the node itself, also as
     a cache entry.  A slot is a stable location for the lifetime of
     its ANode, so CAS identities work exactly as in the paper
     (DESIGN.md "Slot layout").  The casts between the two views of an
     ANode block sit in one section below.
   - An SNode is one 5-word block, an inline record whose mutable
     [txn] field is CASed in place through the same primitive
     (Ct_util.Field), so a leaf is named by its [node] value.  [txn]
     is a closed variant instead of [Any].
   - Full 32-bit hash collisions are resolved with immutable LNodes
     (association lists), updated by direct slot CAS and frozen by
     wrapping in FNode.
   - Remove-side compression uses an explicit XNode descriptor that
     mirrors ENode, so every restarted operation finds a descriptor to
     help (the paper describes this step in prose in Section 3.7).
   - The cache entry arrays are plain (non-atomic) arrays: the cache is
     quiescently consistent and every fast-path read is validated
     against the trie, so racy cache reads are benign (the paper's
     inhabit uses a plain WRITE for the same reason).
   - [find] is the primitive read ([raise_notrace Not_found] on a
     miss); [lookup]/[mem] wrap it, so a hit allocates nothing. *)

module Hashing = Ct_util.Hashing
module Bits = Ct_util.Bits
module Rng = Ct_util.Rng
module Stripe = Ct_util.Stripe
module Domain_slot = Ct_util.Domain_slot
module Yp = Ct_util.Yieldpoint
module Metrics = Ct_util.Metrics
module Prefetch = Ct_util.Prefetch

(* Yield points (DESIGN.md "Fault injection & robustness"): one site
   per distinct CAS/write, registered once per program.  [yp_cas]
   brackets a CAS on an [Atomic.t] (descriptor cells, the cache head),
   [yp_cas_slot] a CAS on an ANode slot and [yp_cas_txn] a CAS on an
   SNode's [txn] field, so that After fires only when the value was
   actually published. *)
let yp_freeze_null = Yp.register "cachetrie.freeze.null"
let yp_freeze_txn = Yp.register "cachetrie.freeze.txn"
let yp_freeze_wrap = Yp.register "cachetrie.freeze.wrap"
let yp_txn_announce = Yp.register "cachetrie.txn.announce"
let yp_txn_commit = Yp.register "cachetrie.txn.commit"
let yp_txn_help = Yp.register "cachetrie.txn.help"
let yp_expand_publish = Yp.register "cachetrie.expand.publish"
let yp_expand_wide = Yp.register "cachetrie.expand.wide"
let yp_expand_commit = Yp.register "cachetrie.expand.commit"
let yp_compress_publish = Yp.register "cachetrie.compress.publish"
let yp_compress_repl = Yp.register "cachetrie.compress.repl"
let yp_compress_commit = Yp.register "cachetrie.compress.commit"
let yp_insert_null = Yp.register "cachetrie.insert.null"
let yp_insert_lnode = Yp.register "cachetrie.insert.lnode"
let yp_remove_lnode = Yp.register "cachetrie.remove.lnode"
let yp_cache_install = Yp.register "cachetrie.cache.install"
let yp_cache_adjust = Yp.register "cachetrie.cache.adjust"

(* Read-path yield point, fired at every level step of the slow-path
   walk.  Production cost with nothing installed is the atomic loads in
   [Yp.here]; the deterministic scheduler (lib/mc) needs it so a read
   can be parked mid-walk between two writers' CASes — without it reads
   execute atomically under exploration and read/write races are
   untestable.  Registered as a read site: two parked reads commute, so
   the explorer prunes one of the two orders. *)
let yp_read_walk = Yp.register_read "cachetrie.read.walk"

(* Both wrappers also feed the metrics registry: every call is a CAS
   attempt, every failure a retry the caller is about to re-drive. *)
let yp_cas m site slot expected repl =
  Metrics.incr m Metrics.Cas_attempts;
  Yp.here Yp.Before site;
  let ok = Atomic.compare_and_set slot expected repl in
  if ok then Yp.here Yp.After site else Metrics.incr m Metrics.Cas_retries;
  ok

let yp_cas_slot m site an pos expected repl =
  Metrics.incr m Metrics.Cas_attempts;
  Yp.here Yp.Before site;
  let ok = Slots.cas an pos expected repl in
  if ok then Yp.here Yp.After site else Metrics.incr m Metrics.Cas_retries;
  ok

(* [txn] is field 3 of an SNode block ({hash; key; value; txn}). *)
let txn_field = 3

let yp_cas_txn m site leaf expected repl =
  Metrics.incr m Metrics.Cas_attempts;
  Yp.here Yp.Before site;
  let ok = Ct_util.Field.cas leaf txn_field expected repl in
  if ok then Yp.here Yp.After site else Metrics.incr m Metrics.Cas_retries;
  ok

type config = {
  enable_cache : bool;  (** if false, behaves as the paper's "w/o cache" variant *)
  max_misses : int;  (** misses per counter stripe before a sampling pass (paper: 2048) *)
  sample_paths : int;  (** random paths walked per sampling pass *)
  min_cache_level : int;  (** first cache level installed (paper: 8) *)
  cache_trigger_level : int;  (** trie level whose nodes trigger cache creation (paper: 12) *)
  narrow_nodes : bool;  (** if false, always allocate wide ANodes (ablation) *)
  dual_level_cache : bool;
      (** keep the fallback cache level fresh too (paper Section 7's
          two-level-cache suggestion); if false only the head level is
          inhabited *)
}

(* Cap on the cache level, bounding cache memory. *)
let max_cache_level = 20

let default_config =
  {
    enable_cache = true;
    max_misses = 2048;
    sample_paths = 64;
    min_cache_level = 8;
    cache_trigger_level = 12;
    narrow_nodes = true;
    dual_level_cache = true;
  }

type stats = {
  cache_level : int option;
  cache_chain : int list;
  expansions : int;
  compressions : int;
  sampling_passes : int;
  cache_installs : int;
  cache_adjustments : int;
}

(* The argument type of the [ANode] constructor: abstract and without
   values, so an [ANode] can be matched but never built or bound (see
   "ANode blocks" below). *)
type anode_repr

module Make (H : Hashing.HASHABLE) = struct
  type key = H.t

  let name = "cachetrie"

  (* ---------------------------------------------------------------- *)
  (* Node types (paper Figure 1 and Table 1).                          *)
  (* ---------------------------------------------------------------- *)

  type 'v node =
    | Null  (** empty ANode slot *)
    | FVNode  (** frozen empty slot *)
    | SNode of { hash : int; key : key; value : 'v; mutable txn : 'v txn }
        (** leaf holding one binding; [txn] is CASed in place *)
    | ANode of anode_repr [@warning "-37"]
        (** inner node: one block of 4 (narrow) or 16 (wide) slots,
            allocated by [new_anode], never by the constructor *)
    | LNode of 'v lnode  (** list of bindings whose 32-bit hashes collide *)
    | FNode of 'v node  (** freeze wrapper for an ANode or LNode *)
    | ENode of 'v enode  (** expansion descriptor *)
    | XNode of 'v xnode  (** compression descriptor *)

  and 'v txn =
    | No_txn
    | Frozen_snode
    | Replace of 'v node  (** announced replacement (SNode, ANode or LNode) *)
    | Removed  (** announced removal: parent slot will become Null *)

  and 'v anode = 'v node Slots.t  (** an [ANode] block, seen as its slots *)

  and 'v lnode = { lhash : int; entries : (key * 'v) list }

  and 'v enode = {
    e_parent : 'v anode;
    e_parentpos : int;
    e_narrow : 'v anode;
    e_level : int;  (** level of the narrow node being expanded *)
    e_wide : 'v anode option Atomic.t;
  }

  and 'v xnode = {
    x_parent : 'v anode;
    x_parentpos : int;
    x_stale : 'v anode;
    x_level : int;  (** level of the node being compressed *)
    x_repl : 'v node option Atomic.t;
  }

  (* Cache (paper Figure 5): a list of levels, deepest first.  Entry
     arrays are plain: see the header comment.  Miss counters are a
     padded [Stripe.t], one row per domain slot — with a bare
     [int array] eight domains' counters share one line and every miss
     ping-pongs it. *)
  type 'v cache_level = {
    c_level : int;  (** trie level covered, multiple of 4 *)
    c_entries : 'v node array;  (** length [2^c_level] *)
    c_misses : Stripe.t;  (** per-domain miss counters *)
    c_parent : 'v cache_level option;
  }

  (* Per-call state of a staged batch traversal (DESIGN.md §13),
     indexed by chunk position.  Pooled per domain so a steady-state
     [find_batch] allocates nothing: all loop counters live in the
     mutable fields, not in refs. *)
  type 'v scratch = {
    s_h : int array;  (** mixed hash per chunk position *)
    s_lev : int array;  (** current trie level; -1 = already resolved *)
    s_cur : 'v anode array;  (** node the next step reads *)
    s_act : int array;  (** active chunk positions, compacted in place *)
    mutable s_nact : int;
    mutable s_hits : int;
  }

  type 'v t = {
    root : 'v anode;
    cache_head : 'v cache_level option Atomic.t;
    config : config;
    metrics : Metrics.t;
        (* single source of truth for every maintenance counter; the
           [cache_stats] record is a view over it *)
    seed : int Atomic.t;
    scratch_pool : 'v scratch Atomic.t array;
        (* one entry per [Domain_slot] plus the overflow slot; holds
           [scratch_dummy] while the domain's scratch is in use *)
    scratch_dummy : 'v scratch;
  }

  let narrow_width = 4
  let wide_width = 16

  (* Keys per staged chunk: enough lookups in flight to overlap their
     cache misses, small enough that the per-level state stays in L1. *)
  let chunk_cap = 64

  (* ---------------------------------------------------------------- *)
  (* ANode blocks: every cast of the trie.  An [ANode] value and its    *)
  (* slots are one block of the [ANode] constructor's tag (1: [SNode]   *)
  (* is 0).  [anode_of_node] is only applied to a value matched as      *)
  (* [ANode _].  [Obj.new_block] fills the fields with [()], which is   *)
  (* [Null]'s representation; the start-up check fails if it is not.   *)
  (* ---------------------------------------------------------------- *)

  let anode_tag = 1

  let[@inline] node_of_anode (an : 'v anode) : 'v node = Obj.magic an
  let[@inline] anode_of_node (node : 'v node) : 'v anode = Obj.magic node
  let new_anode n : 'v anode = Obj.obj (Obj.new_block anode_tag n)

  (* [None] when [an] is laid out as an ANode: the [ANode] tag and 4 or
     16 fields.  [validate] checks it on every ANode of the trie. *)
  let anode_layout_error (an : 'v anode) =
    let r = Obj.repr an in
    let size = Obj.size r in
    if Obj.tag r = anode_tag && (size = narrow_width || size = wide_width) then None
    else
      Some
        (Printf.sprintf "ANode block with tag %d and %d fields (must be tag %d with 4 or 16)"
           (Obj.tag r) size anode_tag)

  let () =
    let an = new_anode wide_width in
    assert (match node_of_anode an with ANode _ -> true | _ -> false);
    assert (anode_layout_error an = None);
    for i = 0 to wide_width - 1 do
      assert (match Slots.get an i with Null -> true | _ -> false)
    done

  let create_with ~config () =
    let scratch_dummy =
      {
        s_h = [||];
        s_lev = [||];
        s_cur = [||];
        s_act = [||];
        s_nact = 0;
        s_hits = 0;
      }
    in
    {
      root = new_anode wide_width;
      cache_head = Atomic.make None;
      config;
      metrics = Metrics.create ~family:name;
      seed = Atomic.make 0x9E3779B9;
      scratch_pool =
        Array.init (Domain_slot.capacity + 1) (fun _ -> Atomic.make scratch_dummy);
      scratch_dummy;
    }

  let create () = create_with ~config:default_config ()
  let hash_of k = H.hash k land Hashing.mask
  let apos (an : 'v anode) h lev = (h lsr lev) land (Slots.length an - 1)
  let is_narrow (an : 'v anode) = Slots.length an = narrow_width

  let fresh_snode h k v = SNode { hash = h; key = k; value = v; txn = No_txn }

  (* Association-list operations with the structure's own key equality
     (the [List.assoc_opt]/[List.remove_assoc] they replace used
     polymorphic [=], which both disagrees with the [H.equal] the SNode
     paths use and compiles to a [caml_equal] C call).  The mismatch
     was a real bug, found by the lib/mc explorer's hostile-equality
     scenarios: with a key type whose [H.equal] is coarser than [(=)],
     the LNode insert path failed to replace the existing entry and
     accumulated duplicates, and the LNode remove path left an
     H.equal-matching entry behind after reporting a successful
     removal. *)
  let rec lassoc k = function
    | [] -> raise_notrace Not_found
    | (k', v) :: rest -> if H.equal k' k then v else lassoc k rest

  let lassoc_opt k entries =
    match lassoc k entries with v -> Some v | exception Not_found -> None

  let rec lremove_assoc k = function
    | [] -> []
    | ((k', _) as pair) :: rest ->
        if H.equal k' k then rest else pair :: lremove_assoc k rest

  (* ---------------------------------------------------------------- *)
  (* Sequential construction on private nodes.                         *)
  (*                                                                    *)
  (* These run on nodes not yet published (expansion/compression       *)
  (* targets, children built for a txn announcement), so plain          *)
  (* Slots.set is race-free here.                                       *)
  (* ---------------------------------------------------------------- *)

  (* Build the node that holds two bindings whose hashes differ,
     starting at [lev] (paper's createANode).  Always allocates fresh
     SNodes: a published SNode must never be reinstalled elsewhere,
     because its txn field would no longer mean "reachable". *)
  let rec join_disjoint cfg h1 k1 v1 h2 k2 v2 lev : 'v node =
    assert (h1 <> h2);
    let np1 = (h1 lsr lev) land (narrow_width - 1)
    and np2 = (h2 lsr lev) land (narrow_width - 1) in
    if cfg.narrow_nodes && np1 <> np2 then begin
      let an = new_anode narrow_width in
      Slots.set an np1 (fresh_snode h1 k1 v1);
      Slots.set an np2 (fresh_snode h2 k2 v2);
      node_of_anode an
    end
    else begin
      let wp1 = (h1 lsr lev) land (wide_width - 1)
      and wp2 = (h2 lsr lev) land (wide_width - 1) in
      let an = new_anode wide_width in
      if wp1 <> wp2 then begin
        Slots.set an wp1 (fresh_snode h1 k1 v1);
        Slots.set an wp2 (fresh_snode h2 k2 v2)
      end
      else Slots.set an wp1 (join_disjoint cfg h1 k1 v1 h2 k2 v2 (lev + 4));
      node_of_anode an
    end

  (* Insert into a private (unpublished) subtree.  [build_insert node
     lev h k v] returns the node that replaces [node], where [node]
     sits at pointer level [lev] (an ANode result indexes hash bits
     [lev, lev+4)).  Narrow nodes with an occupied target slot are
     promoted to wide ones, preserving the invariant that narrow
     ANodes contain only SNodes. *)
  let rec build_insert cfg (node : 'v node) lev h k v : 'v node =
    match node with
    | Null -> fresh_snode h k v
    | SNode sn ->
        if sn.hash = h && H.equal sn.key k then fresh_snode h k v
        else if sn.hash = h then
          LNode { lhash = h; entries = [ (k, v); (sn.key, sn.value) ] }
        else join_disjoint cfg sn.hash sn.key sn.value h k v lev
    | LNode ln ->
        if ln.lhash = h then
          LNode { ln with entries = (k, v) :: lremove_assoc k ln.entries }
        else begin
          (* Push the whole list one level down next to the new key. *)
          let an = new_anode wide_width in
          Slots.set an ((ln.lhash lsr lev) land (wide_width - 1)) (LNode ln);
          build_into_anode cfg an lev h k v
        end
    | ANode _ ->
        let an = anode_of_node node in
        if is_narrow an then begin
          let pos = (h lsr lev) land (narrow_width - 1) in
          match Slots.get an pos with
          | Null ->
              Slots.set an pos (fresh_snode h k v);
              node
          | _ ->
              (* Promote the narrow node to a wide one, then insert. *)
              let wide = new_anode wide_width in
              Slots.iter
                (fun child ->
                  match child with
                  | Null -> ()
                  | SNode sn as leaf ->
                      Slots.set wide ((sn.hash lsr lev) land (wide_width - 1)) leaf
                  | LNode _ | ANode _ | FVNode | FNode _ | ENode _ | XNode _ ->
                      (* narrow nodes hold only SNodes *)
                      assert false)
                an;
              build_into_anode cfg wide lev h k v
        end
        else build_into_anode cfg an lev h k v
    | FVNode | FNode _ | ENode _ | XNode _ ->
        (* Private subtrees contain only committed node kinds. *)
        assert false

  and build_into_anode cfg (an : 'v anode) lev h k v : 'v node =
    let pos = apos an h lev in
    Slots.set an pos (build_insert cfg (Slots.get an pos) (lev + 4) h k v);
    node_of_anode an

  (* Collect all bindings of a frozen subtree (used by compression and
     as the generic expansion-copy fallback). *)
  let rec collect_frozen (node : 'v node) acc =
    match node with
    | Null | FVNode -> acc
    | SNode sn -> (sn.hash, sn.key, sn.value) :: acc
    | LNode ln -> List.fold_left (fun acc (k, v) -> (ln.lhash, k, v) :: acc) acc ln.entries
    | FNode inner -> collect_frozen inner acc
    | ANode _ ->
        Slots.fold (fun acc child -> collect_frozen child acc) acc (anode_of_node node)
    | ENode _ | XNode _ ->
        (* freeze completes nested descriptors before wrapping *)
        assert false

  (* Copy a frozen narrow node into a fresh wide node (paper's copy
     subroutine).  The narrow-node invariant means entries are frozen
     SNodes, FNode-wrapped LNodes, or FVNode; the generic collect +
     build_into_anode also covers any deeper content defensively. *)
  let transfer cfg (narrow : 'v anode) (wide : 'v anode) lev =
    let bindings = Slots.fold (fun acc child -> collect_frozen child acc) [] narrow in
    List.iter (fun (h, k, v) -> ignore (build_into_anode cfg wide lev h k v)) bindings

  (* ---------------------------------------------------------------- *)
  (* Freezing, expansion, compression (paper Figure 4 + Section 3.7).  *)
  (* ---------------------------------------------------------------- *)

  let rec freeze t (cur : 'v anode) =
    let m = t.metrics in
    let i = ref 0 in
    while !i < Slots.length cur do
      (match Slots.get cur !i with
      | Null ->
          if yp_cas_slot m yp_freeze_null cur !i Null FVNode then begin
            Metrics.incr m Metrics.Freezes;
            incr i
          end
      | FVNode -> incr i
      | SNode sn as old -> begin
          match sn.txn with
          | No_txn ->
              if yp_cas_txn m yp_freeze_txn old No_txn Frozen_snode then begin
                Metrics.incr m Metrics.Freezes;
                incr i
              end
          | Frozen_snode -> incr i
          | Replace repl ->
              (* Commit the pending transaction first, then re-examine. *)
              if yp_cas_slot m yp_txn_help cur !i old repl then
                Metrics.incr m Metrics.Helps
          | Removed ->
              if yp_cas_slot m yp_txn_help cur !i old Null then
                Metrics.incr m Metrics.Helps
        end
      | ANode _ as old ->
          if yp_cas_slot m yp_freeze_wrap cur !i old (FNode old) then
            Metrics.incr m Metrics.Freezes
      | LNode _ as old ->
          if yp_cas_slot m yp_freeze_wrap cur !i old (FNode old) then
            Metrics.incr m Metrics.Freezes
      | FNode (ANode _ as inner) ->
          freeze t (anode_of_node inner);
          incr i
      | FNode _ -> incr i
      | ENode en as self -> complete_expansion t self en
      | XNode xn as self -> complete_compression t self xn);
      ()
    done

  (* [self] must be the physical ENode value read from the parent slot
     (the commit CAS compares identities). *)
  and complete_expansion t (self : 'v node) (en : 'v enode) =
    freeze t en.e_narrow;
    (match Atomic.get en.e_wide with
    | Some _ -> ()
    | None ->
        let wide = new_anode wide_width in
        transfer t.config en.e_narrow wide en.e_level;
        if yp_cas t.metrics yp_expand_wide en.e_wide None (Some wide) then
          Metrics.incr t.metrics Metrics.Expansions);
    match Atomic.get en.e_wide with
    | Some wide ->
        ignore
          (yp_cas_slot t.metrics yp_expand_commit en.e_parent en.e_parentpos
             self (node_of_anode wide))
    | None -> assert false

  and complete_compression t (self : 'v node) (xn : 'v xnode) =
    freeze t xn.x_stale;
    (match Atomic.get xn.x_repl with
    | Some _ -> ()
    | None ->
        let bindings = Slots.fold (fun acc child -> collect_frozen child acc) [] xn.x_stale in
        let repl =
          match bindings with
          | [] -> Null
          | [ (h, k, v) ] -> fresh_snode h k v
          | many ->
              let an = new_anode wide_width in
              List.iter (fun (h, k, v) -> ignore (build_into_anode t.config an xn.x_level h k v)) many;
              node_of_anode an
        in
        if yp_cas t.metrics yp_compress_repl xn.x_repl None (Some repl) then
          Metrics.incr t.metrics Metrics.Compressions);
    match Atomic.get xn.x_repl with
    | Some repl ->
        ignore
          (yp_cas_slot t.metrics yp_compress_commit xn.x_parent xn.x_parentpos
             self repl)
    | None -> assert false

  (* ---------------------------------------------------------------- *)
  (* Cache maintenance (paper Figures 5-8).                             *)
  (* ---------------------------------------------------------------- *)

  let make_cache_level level parent =
    {
      c_level = level;
      c_entries = Array.make (1 lsl level) Null;
      c_misses = Stripe.create ();
      c_parent = parent;
    }

  let write_entry cl (nv : 'v node) h =
    let pos = h land (Array.length cl.c_entries - 1) in
    Yp.here Yp.Before yp_cache_install;
    cl.c_entries.(pos) <- nv;
    Yp.here Yp.After yp_cache_install

  (* Install a node into the cache (paper Figure 7).  [nv] is a live
     SNode whose trie level is [lev].  With [dual_level_cache] the
     fallback level in the chain keeps being refreshed too — the
     paper's Section 7 suggestion of caching two levels at once, which
     serves both of the populated adjacent levels without the extra
     trie hop. *)
  let inhabit t (nv : 'v node) h lev =
    if t.config.enable_cache then begin
      match Atomic.get t.cache_head with
      | None ->
          if lev >= t.config.cache_trigger_level then begin
            let fresh = make_cache_level t.config.min_cache_level None in
            if yp_cas t.metrics yp_cache_install t.cache_head None (Some fresh)
            then Metrics.incr t.metrics Metrics.Cache_installs
          end
      | Some head -> (
          if head.c_level = lev then write_entry head nv h
          else if t.config.dual_level_cache then
            match head.c_parent with
            | Some cl when cl.c_level = lev -> write_entry cl nv h
            | Some _ | None -> ())
    end

  (* [inhabit] for an ANode at trie level [lev] that the traversal
     reached through a trie slot (never the root or a descriptor's
     node).  Only wide nodes are cached, and the width is read only on
     a cache level.  The store is skipped when the entry already is
     the node — the steady state for every cache-served read, which
     would otherwise dirty the entry's cache line on each hit. *)
  let write_anode_entry cl (an : 'v anode) h =
    let pos = h land (Array.length cl.c_entries - 1) in
    let entry = node_of_anode an in
    if Slots.length an = wide_width && cl.c_entries.(pos) != entry then begin
      Yp.here Yp.Before yp_cache_install;
      cl.c_entries.(pos) <- entry;
      Yp.here Yp.After yp_cache_install
    end

  let inhabit_anode t (an : 'v anode) h lev =
    if t.config.enable_cache then
      match Atomic.get t.cache_head with
      | None -> ()
      | Some head -> (
          if head.c_level = lev then write_anode_entry head an h
          else if t.config.dual_level_cache then
            match head.c_parent with
            | Some cl when cl.c_level = lev -> write_anode_entry cl an h
            | Some _ | None -> ())

  (* Does any cache level in the chain cover trie level [lev]? *)
  let cache_covers t lev =
    match Atomic.get t.cache_head with
    | None -> false
    | Some head -> (
        head.c_level = lev
        ||
        (t.config.dual_level_cache
        && match head.c_parent with Some cl -> cl.c_level = lev | None -> false))

  (* Walk one random path and accumulate, per level, how many SNode /
     LNode children the ANodes along the path hold (Section 3.6). *)
  (* Count the SNode/LNode children of [an] without the closure and
     ref a [Slots.iter] formulation would allocate per call (sampling
     runs inside otherwise allocation-free reads). *)
  let rec count_leaves (an : 'v anode) i acc =
    if i >= Slots.length an then acc
    else
      let acc =
        match Slots.get an i with
        | SNode _ | LNode _ -> acc + 1
        | Null | FVNode | ANode _ | FNode _ | ENode _ | XNode _ -> acc
      in
      count_leaves an (i + 1) acc

  (* Top-level recursion (a nested [let rec] capturing [hist] would
     allocate a closure per sampled path). *)
  let rec sample_walk (hist : int array) h (an : 'v anode) lev =
    let child_depth = (lev + 4) / 4 in
    if child_depth < Array.length hist then begin
      hist.(child_depth) <- hist.(child_depth) + count_leaves an 0 0;
      match Slots.get an (apos an h lev) with
      | ANode _ as child -> sample_walk hist h (anode_of_node child) (lev + 4)
      | ENode en -> sample_walk hist h en.e_narrow (lev + 4)
      | XNode xn -> sample_walk hist h xn.x_stale (lev + 4)
      | FNode (ANode _ as child) -> sample_walk hist h (anode_of_node child) (lev + 4)
      | Null | FVNode | SNode _ | LNode _ | FNode _ -> ()
    end

  let sample_path t rng (hist : int array) =
    sample_walk hist (Rng.next_int32 rng) t.root 0

  let chain_levels head =
    let rec go acc = function
      | None -> List.rev acc
      | Some cl -> go (cl.c_level :: acc) cl.c_parent
    in
    go [] head

  let sample_and_adjust t =
    Metrics.incr t.metrics Metrics.Sampling_passes;
    let seed = Atomic.fetch_and_add t.seed 0x61C88647 in
    let rng = Rng.create (Rng.mix64 (seed lxor (Domain.self () :> int))) in
    let hist = Array.make 10 0 in
    for _ = 1 to t.config.sample_paths do
      sample_path t rng hist
    done;
    (* Most populated pair of adjacent depths; the cache targets the
       first of the pair. *)
    let best = ref 1 and best_count = ref (-1) in
    for d = 1 to Array.length hist - 2 do
      let c = hist.(d) + hist.(d + 1) in
      if c > !best_count then begin
        best := d;
        best_count := c
      end
    done;
    let target =
      let lv = 4 * !best in
      min max_cache_level (max t.config.min_cache_level lv)
    in
    match Atomic.get t.cache_head with
    | None -> ()
    | Some head as old ->
        if head.c_level <> target then begin
          (* Keep at most one fallback level below the new head. *)
          let rec fallback c =
            match c with
            | None -> None
            | Some cl when cl.c_level < target -> Some { cl with c_parent = None }
            | Some cl -> fallback cl.c_parent
          in
          let fresh = make_cache_level target (fallback (Some head)) in
          if yp_cas t.metrics yp_cache_adjust t.cache_head old (Some fresh) then
            Metrics.incr t.metrics Metrics.Cache_adjustments
        end

  (* Count a miss against the calling domain's counter (paper Figure 8),
     its own padded [Stripe] row.  The reset subtracts what was read
     rather than storing 0, so on the shared overflow row it drops no
     other domain's misses. *)
  let record_miss t =
    match Atomic.get t.cache_head with
    | None -> ()
    | Some cl ->
        let h = Stripe.cursor cl.c_misses in
        let count = Stripe.get_at cl.c_misses h 0 in
        if count >= t.config.max_misses then begin
          Stripe.add_at cl.c_misses h 0 (-count);
          sample_and_adjust t
        end
        else Stripe.add_at cl.c_misses h 0 1

  let cache_level_of t =
    match Atomic.get t.cache_head with None -> -1 | Some cl -> cl.c_level

  (* Cache bookkeeping when the slow path reaches an SNode/LNode at
     pointer level [plev] (paper Figure 6, lines 9-13). *)
  let leaf_housekeeping t (leaf : 'v node) h plev =
    if t.config.enable_cache then begin
      let cl = cache_level_of t in
      if cl < 0 then inhabit t leaf h plev (* may create the cache *)
      else if plev = cl || (t.config.dual_level_cache && cache_covers t plev)
      then begin
        match leaf with SNode _ -> inhabit t leaf h plev | _ -> ()
      end
      else if plev < cl || plev > cl + 4 then record_miss t
    end

  (* ---------------------------------------------------------------- *)
  (* Reads (paper Figure 2, with Figure 6's fast path + housekeeping). *)
  (*                                                                    *)
  (* [find] is the primitive: a hit returns the value directly, a miss *)
  (* raises (notrace) — no [option] box, and no closures: the cache    *)
  (* probe is a top-level recursion over the level chain.              *)
  (* ---------------------------------------------------------------- *)

  let rec find_at t k h lev (cur : 'v anode) : 'v =
    Yp.here Yp.Before yp_read_walk;
    match Slots.get cur (apos cur h lev) with
    | Null | FVNode -> raise_notrace Not_found
    | ANode _ as child ->
        let an = anode_of_node child in
        inhabit_anode t an h (lev + 4);
        find_at t k h (lev + 4) an
    | SNode sn as leaf ->
        leaf_housekeeping t leaf h (lev + 4);
        if H.equal sn.key k then sn.value else raise_notrace Not_found
    | LNode ln as leaf ->
        leaf_housekeeping t leaf h (lev + 4);
        if ln.lhash = h then lassoc k ln.entries else raise_notrace Not_found
    | ENode en -> find_at t k h (lev + 4) en.e_narrow
    | XNode xn -> find_at t k h (lev + 4) xn.x_stale
    | FNode (ANode _ as child) -> find_at t k h (lev + 4) (anode_of_node child)
    | FNode (LNode ln) ->
        if ln.lhash = h then lassoc k ln.entries else raise_notrace Not_found
    | FNode _ -> raise_notrace Not_found

  (* Fast read through the cache (paper Figure 6): try each cache level
     deepest-first, fall back to the root walk.  Each probed read is
     classified exactly once for the metrics registry: a {e hit} is
     served through a cache entry (directly from a cached SNode, or by
     descending from a cached ANode), a {e miss} fell through the whole
     level chain to the root walk.  This probe-level accounting is
     independent of [record_miss], whose striped counters are the
     sampling {e trigger} of paper Figure 8, reset on every pass. *)
  (* [mcur] is a {!Metrics.cursor} captured once in [find]: the bump
     itself must stay a pure array add, because the [Domain_slot.get]
     call behind a fresh cursor clobbers the probe's live registers and
     shows up directly in the find-overhead budget. *)
  let rec probe_find t k h mcur = function
    | None ->
        Metrics.incr_at t.metrics mcur Metrics.Cache_misses;
        find_at t k h 0 t.root
    | Some cl -> (
        let pos = h land (Array.length cl.c_entries - 1) in
        match cl.c_entries.(pos) with
        | SNode sn -> (
            match sn.txn with
            | No_txn ->
                Metrics.incr_at t.metrics mcur Metrics.Cache_hits;
                if H.equal sn.key k then sn.value else raise_notrace Not_found
            | Frozen_snode | Replace _ | Removed ->
                probe_find t k h mcur cl.c_parent)
        | ANode _ as entry -> (
            let an = anode_of_node entry in
            let cpos = (h lsr cl.c_level) land (Slots.length an - 1) in
            match Slots.get an cpos with
            | FVNode | FNode _ -> probe_find t k h mcur cl.c_parent
            | SNode s2
              when (match s2.txn with
                   | Frozen_snode -> true
                   | No_txn | Replace _ | Removed -> false) ->
                probe_find t k h mcur cl.c_parent
            | Null | SNode _ | ANode _ | LNode _ | ENode _ | XNode _ ->
                Metrics.incr_at t.metrics mcur Metrics.Cache_hits;
                find_at t k h cl.c_level an)
        | Null | FVNode | LNode _ | FNode _ | ENode _ | XNode _ ->
            probe_find t k h mcur cl.c_parent)

  let find t k =
    let h = hash_of k in
    match Atomic.get t.cache_head with
    | None -> find_at t k h 0 t.root
    | Some _ as head -> probe_find t k h (Metrics.cursor t.metrics) head

  let lookup t k = match find t k with v -> Some v | exception Not_found -> None
  let mem t k = match find t k with _ -> true | exception Not_found -> false

  (* ---------------------------------------------------------------- *)
  (* Updates (paper Figure 3 generalized to put/putIfAbsent/replace/   *)
  (* remove).                                                           *)
  (* ---------------------------------------------------------------- *)

  (* Three-way result instead of [Done of 'v option]: the common "hit"
     outcome carries the previous value unboxed, and callers that
     discard the previous value ([insert], [replace_if], [remove_if])
     never materialize an option at all. *)
  type 'v outcome = Done_none | Done_some of 'v | Restart

  let done_of_opt = function None -> Done_none | Some v -> Done_some v

  type 'v mode =
    | Always  (** JDK put *)
    | If_absent  (** JDK putIfAbsent *)
    | If_present  (** JDK replace(k,v) *)
    | If_value of 'v  (** JDK replace(k,old,new): physical equality on the old value *)

  (* Announce a transaction on the SNode [leaf] and commit it into slot
     [pos] of [cur].  [leaf] must be the value physically read from the
     slot (CAS compares identities).  The first CAS, on [leaf]'s own
     [txn] field, invalidates cache entries pointing at it; the second
     publishes the change in the trie. *)
  let announce_and_commit m (cur : 'v anode) pos (leaf : 'v node) txn_value repl =
    if yp_cas_txn m yp_txn_announce leaf No_txn txn_value then begin
      ignore (yp_cas_slot m yp_txn_commit cur pos leaf repl);
      true
    end
    else false

  let rec insert_at t k v h lev (cur : 'v anode) (prev : 'v anode option) mode :
      'v outcome =
    let pos = apos cur h lev in
    match Slots.get cur pos with
    | Null -> (
        match mode with
        | If_present | If_value _ -> Done_none
        | Always | If_absent ->
            if
              yp_cas_slot t.metrics yp_insert_null cur pos Null
                (fresh_snode h k v)
            then Done_none
            else insert_at t k v h lev cur prev mode)
    | ANode _ as child ->
        let an = anode_of_node child in
        inhabit_anode t an h (lev + 4);
        insert_at t k v h (lev + 4) an (Some cur) mode
    | SNode old as leaf -> begin
        match old.txn with
        | No_txn ->
            leaf_housekeeping t leaf h (lev + 4);
            if H.equal old.key k then begin
              match mode with
              | If_absent -> Done_some old.value
              | If_value expected when old.value != expected -> Done_some old.value
              | Always | If_present | If_value _ ->
                  let repl = fresh_snode h k v in
                  if
                    announce_and_commit t.metrics cur pos leaf
                      (Replace repl) repl
                  then Done_some old.value
                  else insert_at t k v h lev cur prev mode
            end
            else if (match mode with If_present | If_value _ -> true | Always | If_absent -> false)
            then Done_none
            else if old.hash = h && not (is_narrow cur) then begin
              (* Full hash collision: replace the SNode with an LNode.
                 Narrow nodes expand first, so LNodes (and ANode
                 children) only ever live inside wide nodes. *)
              let ln = LNode { lhash = h; entries = [ (k, v); (old.key, old.value) ] } in
              if announce_and_commit t.metrics cur pos leaf (Replace ln) ln
              then Done_none
              else insert_at t k v h lev cur prev mode
            end
            else if is_narrow cur then begin
              (* Narrow node must be expanded first (scenario 3). *)
              match prev with
              | None -> Restart (* fast path entered here without a parent *)
              | Some parent -> (
                  let ppos = apos parent h (lev - 4) in
                  (* Re-read the parent slot: it must still hold [cur]
                     itself, or a descriptor to help. *)
                  match Slots.get parent ppos with
                  | ANode _ as pnode when pnode == node_of_anode cur ->
                      let en =
                        {
                          e_parent = parent;
                          e_parentpos = ppos;
                          e_narrow = cur;
                          e_level = lev;
                          e_wide = Atomic.make None;
                        }
                      in
                      let self = ENode en in
                      if
                        yp_cas_slot t.metrics yp_expand_publish parent ppos
                          pnode self
                      then begin
                        complete_expansion t self en;
                        match Slots.get parent ppos with
                        | ANode _ as node ->
                            let wide = anode_of_node node in
                            inhabit_anode t wide h lev;
                            insert_at t k v h lev wide (Some parent) mode
                        | _ -> Restart
                      end
                      else Restart
                  | ENode e as self ->
                      Metrics.incr t.metrics Metrics.Helps;
                      complete_expansion t self e;
                      Restart
                  | XNode x as self ->
                      Metrics.incr t.metrics Metrics.Helps;
                      complete_compression t self x;
                      Restart
                  | _ -> Restart)
            end
            else begin
              (* Wide node: push both bindings one level down. *)
              let child = join_disjoint t.config old.hash old.key old.value h k v (lev + 4) in
              if
                announce_and_commit t.metrics cur pos leaf
                  (Replace child) child
              then Done_none
              else insert_at t k v h lev cur prev mode
            end
        | Frozen_snode -> Restart
        | Replace repl ->
            if yp_cas_slot t.metrics yp_txn_help cur pos leaf repl then
              Metrics.incr t.metrics Metrics.Helps;
            insert_at t k v h lev cur prev mode
        | Removed ->
            if yp_cas_slot t.metrics yp_txn_help cur pos leaf Null then
              Metrics.incr t.metrics Metrics.Helps;
            insert_at t k v h lev cur prev mode
      end
    | LNode ln as old_node ->
        if ln.lhash = h then begin
          let previous = lassoc_opt k ln.entries in
          let proceed =
            match (mode, previous) with
            | If_absent, Some _ -> false
            | (If_present | If_value _), None -> false
            | If_value expected, Some p -> p == expected
            | (Always | If_absent | If_present), _ -> true
          in
          if not proceed then done_of_opt previous
          else begin
            let entries = (k, v) :: lremove_assoc k ln.entries in
            let fresh = LNode { ln with entries } in
            if yp_cas_slot t.metrics yp_insert_lnode cur pos old_node fresh then
              done_of_opt previous
            else insert_at t k v h lev cur prev mode
          end
        end
        else if (match mode with If_present | If_value _ -> true | Always | If_absent -> false)
        then Done_none
        else begin
          (* Different hash shares this slot prefix: grow downward. *)
          let child = new_anode wide_width in
          let lpos = (ln.lhash lsr (lev + 4)) land (wide_width - 1) in
          Slots.set child lpos old_node;
          let repl = build_into_anode t.config child (lev + 4) h k v in
          if yp_cas_slot t.metrics yp_insert_lnode cur pos old_node repl then
            Done_none
          else insert_at t k v h lev cur prev mode
        end
    | ENode en as self ->
        Metrics.incr t.metrics Metrics.Helps;
        complete_expansion t self en;
        insert_at t k v h lev cur prev mode
    | XNode xn as self ->
        Metrics.incr t.metrics Metrics.Helps;
        complete_compression t self xn;
        insert_at t k v h lev cur prev mode
    | FVNode | FNode _ -> Restart

  (* Attempt compression of [cur] (which just lost an entry) into its
     parent (Section 3.7).  Best effort: triggers when the node looks
     empty, or holds a single leaf (SNode or LNode), which the rebuild
     lifts one level up — this is what lets survivors float back
     towards the root after mass removals, so that depth sampling can
     move the cache to a shallower level.  The freeze + rebuild inside
     complete_compression recomputes the truth, so a stale trigger is
     harmless. *)
  let try_compress t (cur : 'v anode) lev h (prev : 'v anode option) =
    match prev with
    | None -> ()
    | Some parent ->
        if lev > 0 then begin
          let live = ref 0 and only_leaves = ref true in
          Slots.iter
            (fun child ->
              match child with
              | Null -> ()
              | SNode _ | LNode _ -> incr live
              | ANode _ | FVNode | FNode _ | ENode _ | XNode _ ->
                  incr live;
                  only_leaves := false)
            cur;
          if !live = 0 || (!live = 1 && !only_leaves) then begin
            let ppos = apos parent h (lev - 4) in
            match Slots.get parent ppos with
            | ANode _ as pnode when pnode == node_of_anode cur ->
                let xn =
                  {
                    x_parent = parent;
                    x_parentpos = ppos;
                    x_stale = cur;
                    x_level = lev;
                    x_repl = Atomic.make None;
                  }
                in
                let self = XNode xn in
                if yp_cas_slot t.metrics yp_compress_publish parent ppos pnode self
                then complete_compression t self xn
            | _ -> ()
          end
        end

  (* [rmode] mirrors the JDK remove variants: unconditional, or only
     when the current value is physically [expected]. *)
  let rmode_allows rmode v =
    match rmode with `Always -> true | `If_value expected -> v == expected

  let rec remove_at t k h lev (cur : 'v anode) (prev : 'v anode option) rmode :
      'v outcome =
    let pos = apos cur h lev in
    match Slots.get cur pos with
    | Null -> Done_none
    | ANode _ as child ->
        let res = remove_at t k h (lev + 4) (anode_of_node child) (Some cur) rmode in
        (* Cascade compaction up the removal path: the child may have
           contracted into [cur], leaving [cur] itself with at most one
           leaf. *)
        (match res with
        | Done_some _ -> try_compress t cur lev h prev
        | Done_none | Restart -> ());
        res
    | SNode old as leaf -> begin
        match old.txn with
        | No_txn ->
            if not (H.equal old.key k) then Done_none
            else if not (rmode_allows rmode old.value) then Done_some old.value
            else if
              announce_and_commit t.metrics cur pos leaf Removed Null
            then begin
              try_compress t cur lev h prev;
              Done_some old.value
            end
            else remove_at t k h lev cur prev rmode
        | Frozen_snode -> Restart
        | Replace repl ->
            if yp_cas_slot t.metrics yp_txn_help cur pos leaf repl then
              Metrics.incr t.metrics Metrics.Helps;
            remove_at t k h lev cur prev rmode
        | Removed ->
            if yp_cas_slot t.metrics yp_txn_help cur pos leaf Null then
              Metrics.incr t.metrics Metrics.Helps;
            remove_at t k h lev cur prev rmode
      end
    | LNode ln as old_node ->
        if ln.lhash <> h then Done_none
        else begin
          match lassoc_opt k ln.entries with
          | None -> Done_none
          | Some prev_v when not (rmode_allows rmode prev_v) -> Done_some prev_v
          | Some prev_v ->
              let entries = lremove_assoc k ln.entries in
              (* Contract on the way down: a surviving singleton becomes
                 a plain SNode and an emptied list becomes Null — an
                 LNode with fewer than 2 entries must never be
                 published ([validate] rejects it as residue). *)
              let fresh =
                match entries with
                | [] -> Null
                | [ (k1, v1) ] -> fresh_snode ln.lhash k1 v1
                | _ -> LNode { ln with entries }
              in
              if yp_cas_slot t.metrics yp_remove_lnode cur pos old_node fresh
              then begin
                (* The contraction may have left [cur] holding a single
                   leaf (or nothing): cascade compaction exactly like
                   the SNode removal path does. *)
                try_compress t cur lev h prev;
                Done_some prev_v
              end
              else remove_at t k h lev cur prev rmode
        end
    | ENode en as self ->
        Metrics.incr t.metrics Metrics.Helps;
        complete_expansion t self en;
        remove_at t k h lev cur prev rmode
    | XNode xn as self ->
        Metrics.incr t.metrics Metrics.Helps;
        complete_compression t self xn;
        remove_at t k h lev cur prev rmode
    | FVNode | FNode _ -> Restart

  (* Cache-probed fast paths for updates (paper Figure 6 applied to
     updates): walk the cache chain for a wide ANode whose relevant
     slot is not frozen and start the operation there.  Fused with the
     operation drivers so the probe allocates nothing (the previous
     shape returned [('v anode * int) option] — a tuple and an option
     per update). *)
  let rec probe_insert t k v h mode = function
    | None -> insert_at t k v h 0 t.root None mode
    | Some cl -> (
        let pos = h land (Array.length cl.c_entries - 1) in
        match cl.c_entries.(pos) with
        | ANode _ as entry -> (
            let an = anode_of_node entry in
            let cpos = (h lsr cl.c_level) land (Slots.length an - 1) in
            match Slots.get an cpos with
            | FVNode | FNode _ -> probe_insert t k v h mode cl.c_parent
            | SNode s2
              when (match s2.txn with
                   | Frozen_snode -> true
                   | No_txn | Replace _ | Removed -> false) ->
                probe_insert t k v h mode cl.c_parent
            | Null | SNode _ | ANode _ | LNode _ | ENode _ | XNode _ ->
                insert_at t k v h cl.c_level an None mode)
        | Null | FVNode | SNode _ | LNode _ | FNode _ | ENode _ | XNode _ ->
            probe_insert t k v h mode cl.c_parent)

  let rec insert_slow t k v h mode =
    match insert_at t k v h 0 t.root None mode with
    | Restart -> insert_slow t k v h mode
    | res -> res

  (* Never returns [Restart]. *)
  let update_outcome t k v mode : 'v outcome =
    let h = hash_of k in
    let first =
      match Atomic.get t.cache_head with
      | None -> insert_at t k v h 0 t.root None mode
      | Some _ as head -> probe_insert t k v h mode head
    in
    match first with Restart -> insert_slow t k v h mode | res -> res

  let update t k v mode : 'v option =
    match update_outcome t k v mode with
    | Done_none -> None
    | Done_some p -> Some p
    | Restart -> assert false

  let insert t k v = ignore (update_outcome t k v Always)
  let add t k v = update t k v Always
  let put_if_absent t k v = update t k v If_absent
  let replace t k v = update t k v If_present

  let replace_if t k ~expected v =
    match update_outcome t k v (If_value expected) with
    | Done_some p -> p == expected
    | Done_none | Restart -> false

  let rec probe_remove t k h rmode = function
    | None -> remove_at t k h 0 t.root None rmode
    | Some cl -> (
        let pos = h land (Array.length cl.c_entries - 1) in
        match cl.c_entries.(pos) with
        | ANode _ as entry -> (
            let an = anode_of_node entry in
            let cpos = (h lsr cl.c_level) land (Slots.length an - 1) in
            match Slots.get an cpos with
            | FVNode | FNode _ -> probe_remove t k h rmode cl.c_parent
            | SNode s2
              when (match s2.txn with
                   | Frozen_snode -> true
                   | No_txn | Replace _ | Removed -> false) ->
                probe_remove t k h rmode cl.c_parent
            | Null | SNode _ | ANode _ | LNode _ | ENode _ | XNode _ ->
                remove_at t k h cl.c_level an None rmode)
        | Null | FVNode | SNode _ | LNode _ | FNode _ | ENode _ | XNode _ ->
            probe_remove t k h rmode cl.c_parent)

  let rec remove_slow t k h rmode =
    match remove_at t k h 0 t.root None rmode with
    | Restart -> remove_slow t k h rmode
    | res -> res

  let remove_outcome t k rmode : 'v outcome =
    let h = hash_of k in
    let first =
      match Atomic.get t.cache_head with
      | None -> remove_at t k h 0 t.root None rmode
      | Some _ as head -> probe_remove t k h rmode head
    in
    match first with Restart -> remove_slow t k h rmode | res -> res

  let remove t k =
    match remove_outcome t k `Always with
    | Done_none -> None
    | Done_some p -> Some p
    | Restart -> assert false

  let remove_if t k ~expected =
    match remove_outcome t k (`If_value expected) with
    | Done_some p -> p == expected
    | Done_none | Restart -> false

  (* ---------------------------------------------------------------- *)
  (* Batched lookup (DESIGN.md §13): a staged lockstep traversal.       *)
  (*                                                                    *)
  (* A chunk of up to [chunk_cap] keys walks the trie one level at a    *)
  (* time, all keys together: pass A issues a prefetch hint for every   *)
  (* active key's next slot, pass B dispatches on the (by then likely   *)
  (* resident) slots.  Each key's read sequence is exactly the scalar   *)
  (* walk's, merely interleaved with other keys' reads, so every       *)
  (* per-key result is linearizable exactly as the scalar operation     *)
  (* is; there is no atomicity across the batch.                        *)
  (* ---------------------------------------------------------------- *)

  let scratch_make t =
    {
      s_h = Array.make chunk_cap 0;
      s_lev = Array.make chunk_cap 0;
      s_cur = Array.make chunk_cap t.root;
      s_act = Array.make chunk_cap 0;
      s_nact = 0;
      s_hits = 0;
    }

  (* Take/release through [Atomic.exchange]: if two sys-threads on one
     domain, or two domains on the overflow slot, race for an entry,
     the loser just allocates a fresh scratch — correctness never
     depends on the pool. *)
  let scratch_take t =
    let s = Atomic.exchange t.scratch_pool.(Domain_slot.get ()) t.scratch_dummy in
    if Array.length s.s_h = chunk_cap then s else scratch_make t

  let scratch_release t s = Atomic.set t.scratch_pool.(Domain_slot.get ()) s

  (* Out-of-line helpers for the lockstep loops (module-level so the
     loops allocate no closures). *)
  let step_descend scr p an lev =
    scr.s_cur.(p) <- an;
    scr.s_lev.(p) <- lev;
    scr.s_act.(scr.s_nact) <- p;
    scr.s_nact <- scr.s_nact + 1

  let step_hit scr (out : 'v array) base p (v : 'v) =
    out.(base + p) <- v;
    scr.s_hits <- scr.s_hits + 1

  (* Mirror of [probe_find] for chunk position [p]: instead of
     completing the walk it records the (anode, level) the lockstep
     walk starts from — or resolves the key outright from a cached
     SNode (s_lev stays -1). *)
  let rec probe_start t scr (keys : key array) base (out : 'v array) miss mcur
      p chain =
    match chain with
    | None ->
        Metrics.incr_at t.metrics mcur Metrics.Cache_misses;
        scr.s_cur.(p) <- t.root;
        scr.s_lev.(p) <- 0
    | Some cl -> (
        let h = scr.s_h.(p) in
        let pos = h land (Array.length cl.c_entries - 1) in
        match cl.c_entries.(pos) with
        | SNode sn -> (
            match sn.txn with
            | No_txn ->
                Metrics.incr_at t.metrics mcur Metrics.Cache_hits;
                if H.equal sn.key keys.(base + p) then
                  step_hit scr out base p sn.value
                else out.(base + p) <- miss
            | Frozen_snode | Replace _ | Removed ->
                probe_start t scr keys base out miss mcur p cl.c_parent)
        | ANode _ as entry -> (
            let an = anode_of_node entry in
            let cpos = (h lsr cl.c_level) land (Slots.length an - 1) in
            match Slots.get an cpos with
            | FVNode | FNode _ ->
                probe_start t scr keys base out miss mcur p cl.c_parent
            | SNode s2
              when (match s2.txn with
                   | Frozen_snode -> true
                   | No_txn | Replace _ | Removed -> false) ->
                probe_start t scr keys base out miss mcur p cl.c_parent
            | Null | SNode _ | ANode _ | LNode _ | ENode _ | XNode _ ->
                Metrics.incr_at t.metrics mcur Metrics.Cache_hits;
                scr.s_cur.(p) <- an;
                scr.s_lev.(p) <- cl.c_level)
        | Null | FVNode | LNode _ | FNode _ | ENode _ | XNode _ ->
            probe_start t scr keys base out miss mcur p cl.c_parent)

  (* One staged chunk of reads.  Per-key dispatch is [find_at]
     unrolled: same cases, same housekeeping, same metrics. *)
  let find_chunk t (keys : key array) base n ~miss (out : 'v array) scr =
    let head = Atomic.get t.cache_head in
    (* Stage 0: hashes, plus a hint for each key's cache cell — on a
       multi-megabyte cache level the entry array cell itself is the
       expected miss, so hint the cell address without reading it. *)
    (match head with
    | None ->
        for p = 0 to n - 1 do
          scr.s_h.(p) <- hash_of keys.(base + p);
          scr.s_cur.(p) <- t.root;
          scr.s_lev.(p) <- 0
        done
    | Some cl ->
        for p = 0 to n - 1 do
          let h = hash_of keys.(base + p) in
          scr.s_h.(p) <- h;
          scr.s_lev.(p) <- -1;
          Prefetch.cell cl.c_entries (h land (Array.length cl.c_entries - 1))
        done;
        let mcur = Metrics.cursor t.metrics in
        for p = 0 to n - 1 do
          probe_start t scr keys base out miss mcur p head
        done);
    scr.s_nact <- 0;
    for p = 0 to n - 1 do
      if scr.s_lev.(p) >= 0 then begin
        scr.s_act.(scr.s_nact) <- p;
        scr.s_nact <- scr.s_nact + 1
      end
    done;
    while scr.s_nact > 0 do
      let nact = scr.s_nact in
      (* Pass A: hint every active key's next slot. *)
      for j = 0 to nact - 1 do
        let p = scr.s_act.(j) in
        let cur = scr.s_cur.(p) in
        Slots.prefetch cur (apos cur scr.s_h.(p) scr.s_lev.(p))
      done;
      (* Pass B: one [find_at] level step per key; survivors compact
         into the prefix of [s_act] (writes trail reads, so in-place
         is safe). *)
      scr.s_nact <- 0;
      for j = 0 to nact - 1 do
        let p = scr.s_act.(j) in
        let cur = scr.s_cur.(p) in
        let h = scr.s_h.(p) in
        let lev = scr.s_lev.(p) in
        let k = keys.(base + p) in
        Yp.here Yp.Before yp_read_walk;
        match Slots.get cur (apos cur h lev) with
        | Null | FVNode -> out.(base + p) <- miss
        | ANode _ as child ->
            let an = anode_of_node child in
            Prefetch.read an;
            inhabit_anode t an h (lev + 4);
            step_descend scr p an (lev + 4)
        | SNode sn as leaf ->
            leaf_housekeeping t leaf h (lev + 4);
            if H.equal sn.key k then step_hit scr out base p sn.value
            else out.(base + p) <- miss
        | LNode ln as leaf ->
            leaf_housekeeping t leaf h (lev + 4);
            if ln.lhash = h then (
              match lassoc k ln.entries with
              | v -> step_hit scr out base p v
              | exception Not_found -> out.(base + p) <- miss)
            else out.(base + p) <- miss
        | ENode en ->
            Prefetch.read en.e_narrow;
            step_descend scr p en.e_narrow (lev + 4)
        | XNode xn ->
            Prefetch.read xn.x_stale;
            step_descend scr p xn.x_stale (lev + 4)
        | FNode (ANode _ as child) ->
            let an = anode_of_node child in
            Prefetch.read an;
            step_descend scr p an (lev + 4)
        | FNode (LNode ln) ->
            if ln.lhash = h then (
              match lassoc k ln.entries with
              | v -> step_hit scr out base p v
              | exception Not_found -> out.(base + p) <- miss)
            else out.(base + p) <- miss
        | FNode _ -> out.(base + p) <- miss
      done
    done

  (* Module-level recursion instead of a [ref] cursor: the chunk loop
     itself must not allocate (the 0-words/op budget of DESIGN.md §13
     covers the whole call). *)
  let rec find_chunks t keys base n ~miss out scr =
    if base < n then begin
      let cn = min chunk_cap (n - base) in
      find_chunk t keys base cn ~miss out scr;
      find_chunks t keys (base + cn) n ~miss out scr
    end

  let find_batch t keys ~miss out =
    let n = Array.length keys in
    if Array.length out < n then
      invalid_arg "find_batch: out array shorter than keys";
    let scr = scratch_take t in
    scr.s_hits <- 0;
    find_chunks t keys 0 n ~miss out scr;
    let hits = scr.s_hits in
    scratch_release t scr;
    hits

  (* ---------------------------------------------------------------- *)
  (* Aggregate queries (weakly consistent).                             *)
  (* ---------------------------------------------------------------- *)

  let fold f acc t =
    let rec go_node acc (node : 'v node) =
      match node with
      | Null | FVNode -> acc
      | SNode sn -> (
          match sn.txn with
          | Removed -> acc
          | Replace repl -> go_node acc repl
          | No_txn | Frozen_snode -> f acc sn.key sn.value)
      | LNode ln -> List.fold_left (fun acc (k, v) -> f acc k v) acc ln.entries
      | FNode inner -> go_node acc inner
      | ANode _ -> Slots.fold go_node acc (anode_of_node node)
      | ENode en -> Slots.fold go_node acc en.e_narrow
      | XNode xn -> Slots.fold go_node acc xn.x_stale
    in
    Slots.fold go_node acc t.root

  let iter f t = fold (fun () k v -> f k v) () t
  let size t = fold (fun n _ _ -> n + 1) 0 t
  let is_empty t = size t = 0
  let to_list t = fold (fun acc k v -> (k, v) :: acc) [] t

  (* Lazy, weakly consistent iteration: slots are read on demand, so an
     unconsumed suffix observes later updates. *)
  let to_seq t =
    let rec seq_node (node : 'v node) (rest : (key * 'v) Seq.t) () =
      match node with
      | Null | FVNode -> rest ()
      | SNode sn -> (
          match sn.txn with
          | Removed -> rest ()
          | Replace repl -> seq_node repl rest ()
          | No_txn | Frozen_snode -> Seq.Cons ((sn.key, sn.value), rest))
      | LNode ln -> Seq.append (List.to_seq ln.entries) rest ()
      | FNode inner -> seq_node inner rest ()
      | ANode _ -> seq_slots (anode_of_node node) 0 rest ()
      | ENode en -> seq_slots en.e_narrow 0 rest ()
      | XNode xn -> seq_slots xn.x_stale 0 rest ()
    and seq_slots (an : 'v anode) i rest () =
      if i >= Slots.length an then rest ()
      else seq_node (Slots.get an i) (seq_slots an (i + 1) rest) ()
    in
    seq_slots t.root 0 Seq.empty

  (* ---------------------------------------------------------------- *)
  (* Introspection: statistics, histograms, footprint, validation.     *)
  (* ---------------------------------------------------------------- *)

  (* Cache-trie-specific view over the metrics registry, plus the cache
     chain shape (which no generic counter can express). *)
  let cache_stats t =
    let head = Atomic.get t.cache_head in
    {
      cache_level = (match head with None -> None | Some cl -> Some cl.c_level);
      cache_chain = chain_levels head;
      expansions = Metrics.get t.metrics Metrics.Expansions;
      compressions = Metrics.get t.metrics Metrics.Compressions;
      sampling_passes = Metrics.get t.metrics Metrics.Sampling_passes;
      cache_installs = Metrics.get t.metrics Metrics.Cache_installs;
      cache_adjustments = Metrics.get t.metrics Metrics.Cache_adjustments;
    }

  let metrics t = t.metrics
  let stats t = Metrics.snapshot t.metrics
  let reset_stats t = Metrics.reset t.metrics

  (* Histogram of key depths: slot [d] counts keys whose SNode sits at
     pointer level [4d] (used by the artifact's BirthdaySimulations). *)
  let depth_histogram t =
    let hist = Array.make 10 0 in
    let bump depth count =
      let d = min depth (Array.length hist - 1) in
      hist.(d) <- hist.(d) + count
    in
    let rec go (node : 'v node) depth =
      match node with
      | Null | FVNode -> ()
      | SNode _ -> bump depth 1
      | LNode ln -> bump depth (List.length ln.entries)
      | FNode inner -> go inner depth
      | ANode _ -> Slots.iter (fun child -> go child (depth + 1)) (anode_of_node node)
      | ENode en -> go (node_of_anode en.e_narrow) depth
      | XNode xn -> go (node_of_anode xn.x_stale) depth
    in
    Slots.iter (fun child -> go child 1) t.root;
    hist

  (* Word-cost model, exact for the trie: every block counts its
     header plus its fields, so with the cache off the model moves
     word for word with [Obj.reachable_words] (keys and values are not
     counted).  An SNode is one 5-word block.  An ANode, the root
     included, is one block of 1 + width words: header and slots, with
     no constructor box.  An LNode is its box, its 3-word record
     and, per binding, a 3-word cons cell and a 3-word pair.  FNode is
     a 2-word box; a descriptor adds its record and result cell.  The
     cache adds each level's option box, record, entry array and miss
     stripe. *)
  let footprint_words t =
    let rec anode_words (an : 'v anode) =
      Slots.fold
        (fun acc child -> acc + Slots.overhead_words_per_slot + node_words child)
        (1 + Slots.length an)
        an
    and node_words (node : 'v node) =
      match node with
      | Null | FVNode -> 0
      | SNode _ -> 5
      | LNode ln -> 2 + 3 + (6 * List.length ln.entries)
      | FNode inner -> 2 + node_words inner
      | ANode _ -> anode_words (anode_of_node node)
      | ENode en -> 2 + 6 + 2 + anode_words en.e_narrow
      | XNode xn -> 2 + 6 + 2 + anode_words xn.x_stale
    in
    let cache_words =
      let rec go = function
        | None -> 0
        | Some cl ->
            2 + 5 + 1 + Array.length cl.c_entries
            + Stripe.footprint_words cl.c_misses
            + go cl.c_parent
      in
      go (Atomic.get t.cache_head)
    in
    anode_words t.root + cache_words + 8

  (* ---------------------------------------------------------------- *)
  (* Cache coherence helpers, shared by [validate] and [scrub].        *)
  (* ---------------------------------------------------------------- *)

  (* The node the root walk stands on at pointer level [target] when
     following the index bits of [pos] — i.e. what a slow-path read of
     any hash whose low [target] bits equal [pos] would reach.
     Descriptors and freeze wrappers are looked through, like the read
     path does. *)
  let node_at t pos target =
    let rec go (node : 'v node) lev =
      match node with
      | ENode en -> go (node_of_anode en.e_narrow) lev
      | XNode xn -> go (node_of_anode xn.x_stale) lev
      | FNode inner -> go inner lev
      | ANode _ when lev < target ->
          let an = anode_of_node node in
          go (Slots.get an ((pos lsr lev) land (Slots.length an - 1))) (lev + 4)
      | node -> if lev = target then Some node else None
    in
    go (node_of_anode t.root) 0

  (* A detached ANode is benign in the cache only if it is fully
     frozen: the probe fast path then rejects every slot on its own
     (FVNode/FNode/frozen-SNode all fall through to the parent level).
     Any live-looking slot in a detached node could serve stale data. *)
  let frozen_anode (an : 'v anode) =
    let ok = ref true in
    Slots.iter
      (fun child ->
        match child with
        | FVNode | FNode _ -> ()
        | SNode sn -> (
            match sn.txn with
            | Frozen_snode -> ()
            | No_txn | Replace _ | Removed -> ok := false)
        | Null | ANode _ | LNode _ | ENode _ | XNode _ -> ok := false)
      an;
    !ok

  (* Coherence of one cache entry, shared by [validate] (report) and
     [scrub] (clear).  [Ok] = still reachable at the recorded level;
     [Stale] = detached but self-invalidating (the probe rejects it);
     [Broken] = live-looking yet detached — would serve stale data. *)
  type coherence = Co_ok | Co_stale | Co_broken of string

  let entry_coherence t level pos (entry : 'v node) =
    match entry with
    | Null -> Co_ok
    | SNode sn -> (
        match node_at t pos level with
        | Some n when n == entry -> Co_ok
        | _ -> (
            match sn.txn with
            | No_txn -> Co_broken "live SNode detached from the trie"
            | Frozen_snode | Replace _ | Removed -> Co_stale))
    | ANode _ -> (
        match node_at t pos level with
        | Some n when n == entry -> Co_ok
        | _ ->
            if frozen_anode (anode_of_node entry) then Co_stale
            else Co_broken "live ANode detached from the trie")
    | LNode _ -> Co_stale (* dead weight: the probe never uses LNode entries *)
    | FVNode | FNode _ | ENode _ | XNode _ ->
        Co_broken "cache entry holds a freeze marker or descriptor"

  (* Structural invariant checker used by the property tests.  Only
     meaningful during quiescence. *)
  let validate t =
    let errors = ref [] in
    let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
    (* [prefix]/[pmask] are the hash bits determined by the path so far
       (narrow nodes determine only 2 of their 4 level bits). *)
    let check_hash what h lev prefix pmask =
      if h land pmask <> prefix then
        err "%s at level %d violates the prefix invariant (hash %#x, prefix %#x, mask %#x)"
          what lev h prefix pmask
    in
    let rec go (node : 'v node) lev prefix pmask in_narrow =
      match node with
      | Null -> ()
      | FVNode -> err "FVNode reachable at level %d during quiescence" lev
      | FNode _ -> err "FNode reachable at level %d during quiescence" lev
      | ENode _ -> err "ENode reachable at level %d during quiescence" lev
      | XNode _ -> err "XNode reachable at level %d during quiescence" lev
      | SNode sn -> begin
          if sn.hash <> hash_of sn.key then
            err "SNode hash %#x does not match key hash %#x" sn.hash (hash_of sn.key);
          check_hash "SNode" sn.hash lev prefix pmask;
          match sn.txn with
          | No_txn -> ()
          | Frozen_snode -> err "frozen SNode reachable during quiescence"
          | Replace _ -> err "SNode with pending Replace during quiescence"
          | Removed -> err "SNode with pending Removed during quiescence"
        end
      | LNode ln ->
          if in_narrow then err "LNode stored inside a narrow ANode";
          if List.length ln.entries < 2 then err "LNode with fewer than 2 entries";
          check_hash "LNode" ln.lhash lev prefix pmask;
          List.iter
            (fun (k, _) ->
              if hash_of k <> ln.lhash then err "LNode entry with mismatched hash")
            ln.entries
      | ANode _ ->
          let an = anode_of_node node in
          if in_narrow then err "ANode stored inside a narrow ANode"
          else begin
            match anode_layout_error an with
            | Some what -> err "level %d: %s" lev what
            | None ->
                let w = Slots.length an in
                for i = 0 to w - 1 do
                  go (Slots.get an i) (lev + 4)
                    (prefix lor (i lsl lev))
                    (pmask lor ((w - 1) lsl lev))
                    (w = narrow_width)
                done
          end
    in
    Option.iter (err "root: %s") (anode_layout_error t.root);
    for i = 0 to Slots.length t.root - 1 do
      go (Slots.get t.root i) 4 i (wide_width - 1) false
    done;
    (* Cache coherence: every entry still reaches the recorded level
       from the root, or is self-invalidating stale (see
       [entry_coherence]).  A live-looking detached entry would serve
       stale data forever, so it is an error even though the trie
       itself is consistent. *)
    let rec check_cache = function
      | None -> ()
      | Some cl ->
          if Array.length cl.c_entries <> 1 lsl cl.c_level then
            err "cache level %d has %d entries (expected %d)" cl.c_level
              (Array.length cl.c_entries) (1 lsl cl.c_level);
          Array.iteri
            (fun pos entry ->
              match entry_coherence t cl.c_level pos entry with
              | Co_ok | Co_stale -> ()
              | Co_broken what ->
                  err "cache level %d entry %#x: %s" cl.c_level pos what)
            cl.c_entries;
          check_cache cl.c_parent
    in
    check_cache (Atomic.get t.cache_head);
    match !errors with [] -> Ok () | es -> Error (String.concat "; " (List.rev es))

  (* ---------------------------------------------------------------- *)
  (* Scrub: active residue sweep (DESIGN.md §9).                        *)
  (* ---------------------------------------------------------------- *)

  (* Walk the whole trie and help-complete every descriptor and pending
     transaction a crashed/abandoned operation left behind, then drop
     stale cache entries.  Each repair is exactly a helping step a
     regular operation would perform on encounter, so scrubbing is safe
     under live traffic; the return value counts repairs, and a second
     scrub of a quiescent trie finds nothing left and returns 0. *)
  let scrub t =
    let repairs = ref 0 in
    (* [budget] bounds re-examination of one slot: every repair removes
       the residue it found, but concurrent writers can keep a slot
       busy forever — scrub only promises to clear pre-existing
       residue. *)
    let rec scrub_slot (an : 'v anode) i budget =
      if budget > 0 then
        match Slots.get an i with
        | Null | FVNode | FNode _ | LNode _ -> ()
        | SNode sn as old -> (
            match sn.txn with
            | No_txn | Frozen_snode -> ()
            | Replace repl ->
                if yp_cas_slot t.metrics yp_txn_help an i old repl then
                  Metrics.incr t.metrics Metrics.Helps;
                incr repairs;
                scrub_slot an i (budget - 1)
            | Removed ->
                if yp_cas_slot t.metrics yp_txn_help an i old Null then
                  Metrics.incr t.metrics Metrics.Helps;
                incr repairs;
                scrub_slot an i (budget - 1))
        | ANode _ as child -> scrub_anode (anode_of_node child)
        | ENode en as self ->
            complete_expansion t self en;
            incr repairs;
            scrub_slot an i (budget - 1)
        | XNode xn as self ->
            complete_compression t self xn;
            incr repairs;
            scrub_slot an i (budget - 1)
    and scrub_anode (an : 'v anode) =
      for i = 0 to Slots.length an - 1 do
        scrub_slot an i 8
      done
    in
    scrub_anode t.root;
    (* Cache pass: clear every entry that no longer reaches its
       recorded level — both broken ones and benign self-invalidating
       stale ones (the latter cost a probe fallback per read until
       overwritten).  Entries are plain writes, like every cache
       install. *)
    let rec scrub_cache = function
      | None -> ()
      | Some cl ->
          for pos = 0 to Array.length cl.c_entries - 1 do
            match entry_coherence t cl.c_level pos cl.c_entries.(pos) with
            | Co_ok -> ()
            | Co_stale | Co_broken _ ->
                cl.c_entries.(pos) <- Null;
                Metrics.incr t.metrics Metrics.Cache_invalidations;
                incr repairs
          done;
          scrub_cache cl.c_parent
    in
    scrub_cache (Atomic.get t.cache_head);
    Metrics.add t.metrics Metrics.Scrub_repairs !repairs;
    !repairs
end
