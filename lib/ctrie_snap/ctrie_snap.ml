(* Snapshotting Ctrie (PPoPP 2012): the baseline Ctrie extended with
   generation tokens, GCAS and an RDCSS-swapped root.

   - Every I-node carries a [gen] token (a unique [unit ref]).
   - GCAS replaces an I-node's main node only if the trie's root
     generation still equals the I-node's generation at commit time:
     the new main node is linked to the old one through its own [prev]
     field, published with CAS, and then committed (prev := No_prev)
     or rolled back (prev := Failed, main restored) depending on the
     root generation.  This makes every update invisible to
     generations it does not belong to.
   - As in Scala's [TrieMap], [prev] lives in the main node itself, at
     field 0 of every kind, and the I-node's [main] is a mutable field:
     both are CASed in place (Ct_util.Field), so a read walks one block
     per level for the I-node and one for its main node.
   - [snapshot] swaps the root I-node for a copy with a fresh
     generation using an RDCSS descriptor (double-compare on root and
     root's main, single-swap of root).  Both tries then lazily copy
     ("renew") I-nodes whose generation is stale as they descend.

   Compared to the Scala original we omit the per-CNode generation
   stamp: it accelerates renewal but is not needed for correctness,
   because a stale-generation write is always caught by the GCAS
   commit check against the current root generation. *)

module Hashing = Ct_util.Hashing
module Bits = Ct_util.Bits
module Yp = Ct_util.Yieldpoint
module Metrics = Ct_util.Metrics
module Prefetch = Ct_util.Prefetch

(* Yield points (DESIGN.md "Fault injection & robustness").  GCAS and
   RDCSS are multi-CAS protocols, so every step is a distinct site: a
   domain crashed between publish and commit leaves a descriptor that
   any later reader must complete. *)
let yp_gcas_publish = Yp.register "ctrie_snap.gcas.publish"
let yp_gcas_commit = Yp.register "ctrie_snap.gcas.commit"
let yp_gcas_abort = Yp.register "ctrie_snap.gcas.abort"
let yp_gcas_rollback = Yp.register "ctrie_snap.gcas.rollback"
let yp_rdcss_publish = Yp.register "ctrie_snap.rdcss.publish"
let yp_rdcss_commit = Yp.register "ctrie_snap.rdcss.commit"
let yp_rdcss_abort = Yp.register "ctrie_snap.rdcss.abort"

(* Read-path yield point: the deterministic scheduler must be able to
   park a reader between the writes it races, or read/write
   interleavings collapse to read-at-the-end. *)
let yp_read_walk = Yp.register_read "ctrie_snap.read.walk"

let yp_cas m site slot expected repl =
  Metrics.incr m Metrics.Cas_attempts;
  Yp.here Yp.Before site;
  let ok = Atomic.compare_and_set slot expected repl in
  if ok then Yp.here Yp.After site else Metrics.incr m Metrics.Cas_retries;
  ok

(* The same, on field [idx] of an ordinary block (an I-node's [main],
   a main node's [prev]). *)
let yp_cas_field m site blk idx expected repl =
  Metrics.incr m Metrics.Cas_attempts;
  Yp.here Yp.Before site;
  let ok = Ct_util.Field.cas blk idx expected repl in
  if ok then Yp.here Yp.After site else Metrics.incr m Metrics.Cas_retries;
  ok

let w = 5
let branching = 1 lsl w

module Make (H : Hashing.HASHABLE) = struct
  type key = H.t

  let name = "ctrie-snap"

  type gen = unit ref

  type 'v leaf = { hash : int; key : key; value : 'v }

  (* [prev] is field 0 of every main node, so one field CAS
     ([prev_field]) serves GCAS commit and abort on every kind.  [gcas]
     sets a new node's [prev] while the node is still private; a node
     published without GCAS (the empty root, [dual]'s inner levels) is
     built with [No_prev].  A committed node's [prev] stays [No_prev],
     so I-nodes of different generations may share it (snapshot and
     renewal copies do exactly that). *)
  type 'v main =
    | CNode of { mutable prev : 'v prev; bmp : int; arr : 'v branch array }
    | TNode of { mutable prev : 'v prev; leaf : 'v leaf }
    | LNode of { mutable prev : 'v prev; lhash : int; entries : (key * 'v) list }

  and 'v branch = IN of 'v inode | SN of 'v leaf

  and 'v inode = { gen : gen; mutable main : 'v main }

  and 'v prev =
    | No_prev  (** committed *)
    | Prev of 'v main  (** pending: roll back to this on failure *)
    | Failed of 'v main  (** decided: must roll back *)

  type 'v root_state = Root of 'v inode | Desc of 'v rdcss_desc

  and 'v rdcss_desc = {
    ov : 'v inode;
    exp : 'v main;
    nv : 'v inode;
    committed : bool Atomic.t;
  }

  let prev_field = 0
  let main_field = 1

  (* A plain load, like a slot read (DESIGN.md §8.1): [prev] is only
     ever changed by the SC field CAS. *)
  let[@inline] prev_of (m : 'v main) : 'v prev = Ct_util.Field.get m prev_field

  (* Staged-batch traversal state (DESIGN.md §13), pooled per domain so
     steady-state [find_batch] allocates nothing. *)
  type 'v scratch = {
    s_h : int array;
    s_lev : int array;
    s_cur : 'v inode array;
    s_main : 'v main array;  (** main node read in pass A *)
    s_act : int array;  (** active chunk positions, compacted in place *)
    mutable s_nact : int;
    mutable s_hits : int;
  }

  type 'v t = {
    root : 'v root_state Atomic.t;
    metrics : Metrics.t;
    scratch_pool : 'v scratch Atomic.t array;
    scratch_dummy : 'v scratch;
  }

  let cnode bmp arr = CNode { prev = No_prev; bmp; arr }
  let empty_main () = cnode 0 [||]
  let chunk_cap = 64

  let with_pools root metrics =
    let scratch_dummy =
      {
        s_h = [||];
        s_lev = [||];
        s_cur = [||];
        s_main = [||];
        s_act = [||];
        s_nact = 0;
        s_hits = 0;
      }
    in
    {
      root;
      metrics;
      scratch_pool =
        Array.init (Ct_util.Domain_slot.capacity + 1) (fun _ ->
            Atomic.make scratch_dummy);
      scratch_dummy;
    }

  let create () =
    with_pools
      (Atomic.make (Root { gen = ref (); main = empty_main () }))
      (Metrics.create ~family:name)

  let hash_of k = H.hash k land Hashing.mask

  (* ------------------------- GCAS and RDCSS -------------------------- *)

  (* A reader tripping over another operation's pending GCAS node or
     RDCSS descriptor completes it on its behalf — those entry points
     count as [Helps]; the owner's own commit does not. *)
  let rec gcas_read t (i : 'v inode) : 'v main =
    let m = i.main in
    match prev_of m with
    | No_prev -> m
    | Prev _ | Failed _ ->
        Metrics.incr t.metrics Metrics.Helps;
        gcas_commit t i m

  and gcas_commit t (i : 'v inode) (m : 'v main) : 'v main =
    match prev_of m with
    | No_prev -> m
    | Failed fm ->
        (* Roll the failed update back to the previous main node. *)
        if yp_cas_field t.metrics yp_gcas_rollback i main_field m fm then fm
        else gcas_commit t i i.main
    | Prev pm as p ->
        let root = rdcss_read_root t ~abort:true in
        if root.gen == i.gen then begin
          (* Still the same generation: commit. *)
          if yp_cas_field t.metrics yp_gcas_commit m prev_field p No_prev then m
          else gcas_commit t i m
        end
        else begin
          (* A snapshot intervened: mark failed and retry (rolls back). *)
          ignore (yp_cas_field t.metrics yp_gcas_abort m prev_field p (Failed pm));
          gcas_commit t i i.main
        end

  and rdcss_read_root t ~abort : 'v inode =
    match Atomic.get t.root with
    | Root r -> r
    | Desc _ ->
        Metrics.incr t.metrics Metrics.Helps;
        rdcss_complete t ~abort;
        rdcss_read_root t ~abort

  and rdcss_complete t ~abort =
    match Atomic.get t.root with
    | Root _ -> ()
    | Desc d as cur ->
        if abort then ignore (yp_cas t.metrics yp_rdcss_abort t.root cur (Root d.ov))
        else begin
          let oldmain = gcas_read t d.ov in
          if oldmain == d.exp then begin
            if yp_cas t.metrics yp_rdcss_commit t.root cur (Root d.nv) then
              Atomic.set d.committed true
          end
          else ignore (yp_cas t.metrics yp_rdcss_abort t.root cur (Root d.ov))
        end

  (* Publish the fresh main node [n] into [i] expecting [old]; true iff
     the update committed under the current generation.  [n] is private
     until the CAS, so its [prev] is set with a plain store, which the
     SC publishing CAS orders before [n] becomes reachable. *)
  let gcas t (i : 'v inode) (old : 'v main) (n : 'v main) : bool =
    (match n with
    | CNode c -> c.prev <- Prev old
    | TNode c -> c.prev <- Prev old
    | LNode c -> c.prev <- Prev old);
    if yp_cas_field t.metrics yp_gcas_publish i main_field old n then begin
      ignore (gcas_commit t i n);
      match prev_of n with No_prev -> true | Prev _ | Failed _ -> false
    end
    else false

  let rdcss_root t (ov : 'v inode) (exp : 'v main) (nv : 'v inode) : bool =
    let d = { ov; exp; nv; committed = Atomic.make false } in
    match Atomic.get t.root with
    | Root r as cur when r == ov ->
        if yp_cas t.metrics yp_rdcss_publish t.root cur (Desc d) then begin
          rdcss_complete t ~abort:false;
          Atomic.get d.committed
        end
        else false
    | Root _ -> false
    | Desc _ ->
        rdcss_complete t ~abort:false;
        false

  (* --------------------------- node helpers -------------------------- *)

  let flagpos h lev bmp =
    let idx = (h lsr lev) land (branching - 1) in
    let flag = 1 lsl idx in
    let pos = Bits.popcount (bmp land (flag - 1)) in
    (flag, pos)

  let cnode_inserted bmp arr pos flag branch =
    let n = Array.length arr in
    let narr = Array.make (n + 1) branch in
    Array.blit arr 0 narr 0 pos;
    Array.blit arr pos narr (pos + 1) (n - pos);
    cnode (bmp lor flag) narr

  let cnode_updated bmp arr pos branch =
    let narr = Array.copy arr in
    narr.(pos) <- branch;
    cnode bmp narr

  (* An emptied CNode shares the one [[||]] constant, as the empty
     root does. *)
  let cnode_removed bmp arr pos flag =
    let n = Array.length arr in
    let narr =
      if n = 1 then [||]
      else begin
        let narr = Array.make (n - 1) arr.(0) in
        Array.blit arr 0 narr 0 pos;
        Array.blit arr (pos + 1) narr pos (n - 1 - pos);
        narr
      end
    in
    cnode (bmp lxor flag) narr

  (* Copy an I-node into a new generation (lazy copy-on-write step).
     The copy shares the committed main node. *)
  let copy_inode t (i : 'v inode) (gen : gen) : 'v inode = { gen; main = gcas_read t i }

  (* Copy a CNode, regenerating its older-generation I-node children.
     Children already in [gen] are kept, not copied: a CNode copied out
     of an older generation gains [gen] children before it is renewed
     (an insert that splits an SNode adds one), and an operation may be
     updating such a child right now.  A copy would carry its main node
     from before that update, and publishing the renewed CNode would
     silently drop the update. *)
  let renewed t bmp arr (gen : gen) : 'v main =
    Metrics.incr t.metrics Metrics.Renewals;
    let narr =
      Array.map
        (function
          | IN child when child.gen != gen -> IN (copy_inode t child gen)
          | (IN _ | SN _) as b -> b)
        arr
    in
    cnode bmp narr

  let rec dual (l1 : 'v leaf) (l2 : 'v leaf) lev (gen : gen) : 'v main =
    if lev >= Hashing.hash_bits then begin
      assert (l1.hash = l2.hash);
      let entries = [ (l2.key, l2.value); (l1.key, l1.value) ] in
      LNode { prev = No_prev; lhash = l1.hash; entries }
    end
    else begin
      let i1 = (l1.hash lsr lev) land (branching - 1)
      and i2 = (l2.hash lsr lev) land (branching - 1) in
      if i1 <> i2 then begin
        let bmp = (1 lsl i1) lor (1 lsl i2) in
        let arr = if i1 < i2 then [| SN l1; SN l2 |] else [| SN l2; SN l1 |] in
        cnode bmp arr
      end
      else cnode (1 lsl i1) [| IN { gen; main = dual l1 l2 (lev + w) gen } |]
    end

  (* Compaction. *)

  let resurrect t (branch : 'v branch) : 'v branch =
    match branch with
    | IN i -> (
        match gcas_read t i with TNode { leaf; _ } -> SN leaf | CNode _ | LNode _ -> branch)
    | SN _ -> branch

  let to_contracted (main : 'v main) lev : 'v main =
    match main with
    | CNode { arr = [| SN leaf |]; _ } when lev > 0 -> TNode { prev = No_prev; leaf }
    | CNode _ | TNode _ | LNode _ -> main

  let clean t (i : 'v inode) lev =
    let m = gcas_read t i in
    match m with
    | CNode { bmp; arr; _ } ->
        let narr = Array.map (resurrect t) arr in
        if gcas t i m (to_contracted (cnode bmp narr) lev) then
          Metrics.incr t.metrics Metrics.Helps
    | TNode _ | LNode _ -> ()

  (* ------------------------------ lookup ----------------------------- *)

  type 'v outcome = Done of 'v option | Restart

  (* Association-list lookup with the structure's own key equality (the
     [List.assoc_opt] it replaces used polymorphic [=]). *)
  let rec lassoc k = function
    | [] -> raise_notrace Not_found
    | (k', v) :: rest -> if H.equal k' k then v else lassoc k rest

  let rec lassoc_opt k = function
    | [] -> None
    | (k', v) :: rest -> if H.equal k' k then Some v else lassoc_opt k rest

  let rec lremove_assoc k = function
    | [] -> []
    | ((k', _) as pair) :: rest ->
        if H.equal k' k then rest else pair :: lremove_assoc k rest

  exception Restart_find

  (* Allocation-free read (on the no-renewal path): a miss raises
     (notrace) instead of boxing an option, the bitmap position is
     computed inline instead of through [flagpos]'s tuple, and the
     parent travels as a bare inode — the root is its own parent, which
     is sound because [to_contracted] never entombs at level 0, so the
     TNode branch implies [lev > 0]. *)
  let rec ifind t (i : 'v inode) k h lev (parent : 'v inode) (startgen : gen) : 'v =
    Yp.here Yp.Before yp_read_walk;
    let m = gcas_read t i in
    match m with
    | CNode { bmp; arr; _ } -> (
        let idx = (h lsr lev) land (branching - 1) in
        let flag = 1 lsl idx in
        if bmp land flag = 0 then raise_notrace Not_found
        else
          match arr.(Bits.popcount (bmp land (flag - 1))) with
          | IN child ->
              if child.gen == startgen then ifind t child k h (lev + w) i startgen
              else if gcas t i m (renewed t bmp arr startgen) then
                ifind t i k h lev parent startgen
              else raise_notrace Restart_find
          | SN leaf ->
              if H.equal leaf.key k then leaf.value else raise_notrace Not_found)
    | TNode _ ->
        if lev > 0 then clean t parent (lev - w);
        raise_notrace Restart_find
    | LNode ln ->
        if ln.lhash = h then lassoc k ln.entries else raise_notrace Not_found

  let rec find_loop t k h =
    let r = rdcss_read_root t ~abort:false in
    match ifind t r k h 0 r r.gen with
    | v -> v
    | exception Restart_find -> find_loop t k h

  (* Compact every TNode on [k]'s path: [ifind] cleans each one it
     meets and restarts from the root, so the walk returns only once
     the path holds none.  For a cleanup whose parent frame went stale
     when a snapshot renewed the path ([clean_parent]). *)
  let clean_path t k h = match find_loop t k h with _ -> () | exception Not_found -> ()

  let find t k = find_loop t k (hash_of k)
  let lookup t k = match find t k with v -> Some v | exception Not_found -> None
  let mem t k = match find t k with _ -> true | exception Not_found -> false

  (* Compact the entombed I-node [i] into its parent [p].  Retry only
     while the root generation still matches [startgen]: once a
     snapshot commits, this GCAS can never succeed — [gcas_commit]
     fails any update whose I-node generation differs from the root's
     — so an unconditional retry livelocks (DESIGN.md §7).  The tomb is
     still reachable from the new root, which shares this path, so the
     cleanup finishes there instead: a lookup of the tomb's own key
     renews the path into the new generation and compacts every TNode
     on it ([clean_path]), and its GCASes can commit. *)
  let rec clean_parent t (p : 'v inode) (i : 'v inode) h plev (startgen : gen) =
    let m = gcas_read t p in
    match m with
    | CNode { bmp; arr; _ } -> (
        let flag, pos = flagpos h plev bmp in
        if bmp land flag <> 0 then
          match arr.(pos) with
          | IN child when child == i -> (
              match gcas_read t i with
              | TNode { leaf; _ } ->
                  if p.gen == startgen then begin
                    let ncn = cnode_updated bmp arr pos (SN leaf) in
                    if gcas t p m (to_contracted ncn plev) then
                      Metrics.incr t.metrics Metrics.Compressions
                    else if (rdcss_read_root t ~abort:false).gen == startgen then
                      clean_parent t p i h plev startgen
                    else clean_path t leaf.key leaf.hash
                  end
              | CNode _ | LNode _ -> ())
          | IN _ | SN _ -> ())
    | TNode _ | LNode _ -> ()

  (* ------------------------------ updates ---------------------------- *)

  type 'v mode = Always | If_absent | If_present | If_value of 'v

  let rec iinsert t (i : 'v inode) k v h lev (parent : 'v inode option) mode
      (startgen : gen) : 'v outcome =
    let m = gcas_read t i in
    match m with
    | CNode { bmp; arr; _ } -> (
        let flag, pos = flagpos h lev bmp in
        if bmp land flag = 0 then begin
          match mode with
          | If_present | If_value _ -> Done None
          | Always | If_absent ->
              let ncn =
                cnode_inserted bmp arr pos flag (SN { hash = h; key = k; value = v })
              in
              if gcas t i m ncn then Done None else Restart
        end
        else
          match arr.(pos) with
          | IN child ->
              if child.gen == startgen then
                iinsert t child k v h (lev + w) (Some i) mode startgen
              else if gcas t i m (renewed t bmp arr startgen) then
                iinsert t i k v h lev parent mode startgen
              else Restart
          | SN leaf ->
              if H.equal leaf.key k then begin
                match mode with
                | If_absent -> Done (Some leaf.value)
                | If_value expected when leaf.value != expected ->
                    Done (Some leaf.value)
                | Always | If_present | If_value _ ->
                    let ncn =
                      cnode_updated bmp arr pos (SN { hash = h; key = k; value = v })
                    in
                    if gcas t i m ncn then Done (Some leaf.value) else Restart
              end
              else if
                match mode with
                | If_present | If_value _ -> true
                | Always | If_absent -> false
              then Done None
              else begin
                let child =
                  IN
                    {
                      gen = startgen;
                      main = dual leaf { hash = h; key = k; value = v } (lev + w) startgen;
                    }
                in
                let ncn = cnode_updated bmp arr pos child in
                if gcas t i m ncn then Done None else Restart
              end)
    | TNode _ ->
        (match parent with Some p -> clean t p (lev - w) | None -> ());
        Restart
    | LNode ln ->
        assert (ln.lhash = h);
        let previous = lassoc_opt k ln.entries in
        let proceed =
          match (mode, previous) with
          | If_absent, Some _ -> false
          | (If_present | If_value _), None -> false
          | If_value expected, Some p -> p == expected
          | (Always | If_absent | If_present), _ -> true
        in
        if not proceed then Done previous
        else begin
          let nln =
            LNode { ln with entries = (k, v) :: lremove_assoc k ln.entries }
          in
          if gcas t i m nln then Done previous else Restart
        end

  let rec update t k v mode =
    let h = hash_of k in
    let r = rdcss_read_root t ~abort:false in
    match iinsert t r k v h 0 None mode r.gen with
    | Done prev -> prev
    | Restart -> update t k v mode

  let insert t k v = ignore (update t k v Always)
  let add t k v = update t k v Always
  let put_if_absent t k v = update t k v If_absent
  let replace t k v = update t k v If_present

  let replace_if t k ~expected v =
    match update t k v (If_value expected) with
    | Some p -> p == expected
    | None -> false

  (* ------------------------------ remove ----------------------------- *)

  let rmode_allows rmode v =
    match rmode with `Always -> true | `If_value expected -> v == expected

  let rec iremove t (i : 'v inode) k h lev (parent : 'v inode option) rmode
      (startgen : gen) : 'v outcome =
    let m = gcas_read t i in
    match m with
    | CNode { bmp; arr; _ } -> (
        let flag, pos = flagpos h lev bmp in
        if bmp land flag = 0 then Done None
        else
          let res =
            match arr.(pos) with
            | IN child -> (
                if child.gen == startgen then begin
                  match iremove t child k h (lev + w) (Some i) rmode startgen with
                  | Done (Some _) as r ->
                      (match gcas_read t child with
                      | TNode _ -> clean_parent t i child h lev startgen
                      | CNode _ | LNode _ -> ());
                      r
                  | r -> r
                end
                else if gcas t i m (renewed t bmp arr startgen) then
                  iremove t i k h lev parent rmode startgen
                else Restart)
            | SN leaf ->
                if not (H.equal leaf.key k) then Done None
                else if not (rmode_allows rmode leaf.value) then
                  Done (Some leaf.value)
                else begin
                  let ncn = cnode_removed bmp arr pos flag in
                  let nmain = to_contracted ncn lev in
                  if gcas t i m nmain then begin
                    (match nmain with
                    | TNode _ -> Metrics.incr t.metrics Metrics.Entombments
                    | CNode _ | LNode _ -> ());
                    Done (Some leaf.value)
                  end
                  else Restart
                end
          in
          res)
    | TNode _ ->
        (match parent with Some p -> clean t p (lev - w) | None -> ());
        Restart
    | LNode ln ->
        if ln.lhash <> h then Done None
        else begin
          match lassoc_opt k ln.entries with
          | None -> Done None
          | Some prev when not (rmode_allows rmode prev) -> Done (Some prev)
          | Some prev ->
              let entries = lremove_assoc k ln.entries in
              let nmain =
                match entries with
                | [ (k1, v1) ] ->
                    TNode { prev = No_prev; leaf = { hash = h; key = k1; value = v1 } }
                | _ -> LNode { ln with entries }
              in
              if gcas t i m nmain then begin
                (match nmain with
                | TNode _ -> Metrics.incr t.metrics Metrics.Entombments
                | CNode _ | LNode _ -> ());
                Done (Some prev)
              end
              else Restart
        end

  let rec remove_with t k rmode =
    let h = hash_of k in
    let r = rdcss_read_root t ~abort:false in
    match iremove t r k h 0 None rmode r.gen with
    | Done prev -> prev
    | Restart -> remove_with t k rmode

  let remove t k = remove_with t k `Always

  let remove_if t k ~expected =
    match remove_with t k (`If_value expected) with
    | Some p -> p == expected
    | None -> false

  (* ---------------------------- batched lookup ----------------------- *)

  (* Staged traversal (DESIGN.md §13).  The lockstep walk stages only
     the fast path — committed main nodes, same-generation children,
     live CNodes/LNodes — and defers anything complicated (a pending
     GCAS node, a stale-generation child needing renewal, an entombed
     branch) to the scalar [find_loop], which already carries the full
     helping machinery.  Under quiescent or read-mostly traffic every
     key stays on the staged path. *)

  let scratch_make t =
    let r = rdcss_read_root t ~abort:false in
    {
      s_h = Array.make chunk_cap 0;
      s_lev = Array.make chunk_cap 0;
      s_cur = Array.make chunk_cap r;
      s_main = Array.make chunk_cap r.main;
      s_act = Array.make chunk_cap 0;
      s_nact = 0;
      s_hits = 0;
    }

  (* Per-domain scratch pool, one entry per [Domain_slot]: [exchange]
     with the shared dummy instead of an option so take/release
     allocate nothing; a domain finding its entry taken (the shared
     overflow slot) allocates a fresh scratch. *)
  let scratch_take t =
    let slot = Ct_util.Domain_slot.get () in
    let s = Atomic.exchange t.scratch_pool.(slot) t.scratch_dummy in
    if Array.length s.s_h = chunk_cap then s else scratch_make t

  let scratch_release t s =
    Atomic.set t.scratch_pool.(Ct_util.Domain_slot.get ()) s

  let find_chunk t scr keys ~miss (out : 'v array) base n =
    let r = rdcss_read_root t ~abort:false in
    let startgen = r.gen in
    for p = 0 to n - 1 do
      scr.s_h.(p) <- hash_of (Array.unsafe_get keys (base + p));
      scr.s_lev.(p) <- 0;
      scr.s_cur.(p) <- r;
      scr.s_act.(p) <- p
    done;
    scr.s_nact <- n;
    while scr.s_nact > 0 do
      (* Pass A: pull in every active key's main node. *)
      for a = 0 to scr.s_nact - 1 do
        let p = Array.unsafe_get scr.s_act a in
        Yp.here Yp.Before yp_read_walk;
        let m = scr.s_cur.(p).main in
        scr.s_main.(p) <- m;
        Prefetch.read m
      done;
      (* Pass B: dispatch; fast-path survivors re-enqueue, everything
         else resolves here or drops to the scalar walk. *)
      let nact = scr.s_nact in
      scr.s_nact <- 0;
      for a = 0 to nact - 1 do
        let p = Array.unsafe_get scr.s_act a in
        let h = scr.s_h.(p) in
        let k = Array.unsafe_get keys (base + p) in
        let m = scr.s_main.(p) in
        let deferred =
          match prev_of m with
          | No_prev -> (
              match m with
              | CNode { bmp; arr; _ } -> (
                  let lev = scr.s_lev.(p) in
                  let idx = (h lsr lev) land (branching - 1) in
                  let flag = 1 lsl idx in
                  if bmp land flag = 0 then begin
                    Array.unsafe_set out (base + p) miss;
                    false
                  end
                  else
                    match arr.(Bits.popcount (bmp land (flag - 1))) with
                    | IN child ->
                        if child.gen == startgen then begin
                          Prefetch.read child;
                          scr.s_cur.(p) <- child;
                          scr.s_lev.(p) <- lev + w;
                          scr.s_act.(scr.s_nact) <- p;
                          scr.s_nact <- scr.s_nact + 1;
                          false
                        end
                        else true (* stale generation: renew via scalar *)
                    | SN leaf ->
                        (if H.equal leaf.key k then begin
                           Array.unsafe_set out (base + p) leaf.value;
                           scr.s_hits <- scr.s_hits + 1
                         end
                         else Array.unsafe_set out (base + p) miss);
                        false)
              | TNode _ -> true (* entombed: scalar path cleans *)
              | LNode ln ->
                  (if ln.lhash <> h then Array.unsafe_set out (base + p) miss
                   else
                     match lassoc k ln.entries with
                     | v ->
                         Array.unsafe_set out (base + p) v;
                         scr.s_hits <- scr.s_hits + 1
                     | exception Not_found ->
                         Array.unsafe_set out (base + p) miss);
                  false)
          | Prev _ | Failed _ -> true (* pending GCAS: scalar path helps *)
        in
        if deferred then
          match find_loop t k h with
          | v ->
              Array.unsafe_set out (base + p) v;
              scr.s_hits <- scr.s_hits + 1
          | exception Not_found -> Array.unsafe_set out (base + p) miss
      done
    done

  let rec find_chunks t scr keys ~miss out base total =
    if base < total then begin
      let n = min chunk_cap (total - base) in
      find_chunk t scr keys ~miss out base n;
      find_chunks t scr keys ~miss out (base + n) total
    end

  let find_batch t keys ~miss out =
    let total = Array.length keys in
    if Array.length out < total then
      invalid_arg "Ctrie_snap.find_batch: out array shorter than keys";
    let scr = scratch_take t in
    scr.s_hits <- 0;
    find_chunks t scr keys ~miss out 0 total;
    let hits = scr.s_hits in
    scratch_release t scr;
    hits

  (* ------------------------------ snapshot --------------------------- *)

  let rec snapshot t =
    let r = rdcss_read_root t ~abort:false in
    let m = gcas_read t r in
    (* Swap our root to a fresh generation; hand the old structure to
       the snapshot under another fresh generation.  Both new roots
       share the committed main node. *)
    if rdcss_root t r m { gen = ref (); main = m } then
      with_pools
        (Atomic.make (Root { gen = ref (); main = m }))
        (Metrics.create ~family:name)
    else snapshot t

  (* ------------------------- aggregate queries ----------------------- *)

  let fold f acc t =
    let rec go_main acc (main : 'v main) =
      match main with
      | CNode { arr; _ } -> Array.fold_left go_branch acc arr
      | TNode { leaf; _ } -> f acc leaf.key leaf.value
      | LNode ln -> List.fold_left (fun acc (k, v) -> f acc k v) acc ln.entries
    and go_branch acc = function
      | IN i -> go_main acc (gcas_read t i)
      | SN leaf -> f acc leaf.key leaf.value
    in
    let r = rdcss_read_root t ~abort:false in
    go_main acc (gcas_read t r)

  let fold_snapshot f acc t = fold f acc (snapshot t)
  let iter f t = fold (fun () k v -> f k v) () t
  let size t = fold (fun n _ _ -> n + 1) 0 t
  let is_empty t = size t = 0
  let to_list t = fold (fun acc k v -> (k, v) :: acc) [] t

  (* Word-cost model, exact without snapshots: every block counts its
     header plus its fields, so it moves word for word with
     [Obj.reachable_words] (keys and values are not counted).  A branch
     is its 2-word [IN]/[SN] box plus the 3-word I-node or the 4-word
     leaf.  A CNode is 4 words plus its branch array (1 + length; an
     empty CNode holds the shared [[||]], already in the empty map), a
     TNode 3 plus its leaf, an LNode 4 plus a 3-word cons cell and a
     3-word pair per binding; a pending [prev] adds its 2-word box.  A
     generation token (a 2-word [unit ref]) is shared by the I-nodes of
     its generation, so it is counted where it changes along a path.
     Reads [main] without helping: the model never writes. *)
  let footprint_words t =
    let rec inode_words (i : 'v inode) (gen : gen) =
      3 + (if i.gen == gen then 0 else 2) + main_words i.gen i.main
    and main_words gen (m : 'v main) =
      (match prev_of m with No_prev -> 0 | Prev _ | Failed _ -> 2)
      +
      match m with
      | CNode { arr; _ } ->
          Array.fold_left
            (fun acc b -> acc + 2 + branch_words gen b)
            (4 + match Array.length arr with 0 -> 0 | n -> 1 + n)
            arr
      | TNode _ -> 3 + 4
      | LNode ln -> 4 + (6 * List.length ln.entries)
    and branch_words gen = function IN i -> inode_words i gen | SN _ -> 4 in
    let r = rdcss_read_root t ~abort:false in
    2 + 2 + inode_words r (ref ())

  (* Scrub: active residue sweep (DESIGN.md §9).  Completes a pending
     RDCSS root swap, commits or rolls back every reachable pending
     GCAS node, and compacts entombed branches — the exact helping
     steps the read and update paths perform on encounter, so
     scrubbing is safe under live traffic.  Returns the number of repairs: 0 means the trie
     was already residue-free. *)
  let scrub t =
    let repairs = ref 0 in
    (match Atomic.get t.root with
    | Desc _ ->
        rdcss_complete t ~abort:false;
        incr repairs
    | Root _ -> ());
    let pass () =
      let fixed = ref 0 in
      let r = rdcss_read_root t ~abort:false in
      let startgen = r.gen in
      let rec go (i : 'v inode) lev prefix (parent : 'v inode option) =
        let m =
          let m = i.main in
          match prev_of m with
          | No_prev -> m
          | Prev _ | Failed _ ->
              (* Pending or failed update abandoned mid-GCAS: decide it. *)
              incr fixed;
              gcas_commit t i m
        in
        match m with
        | TNode _ -> (
            match parent with
            | Some p ->
                (* [prefix] replays the hash bits of the path down to [i],
                   which is all [clean_parent] reads of the hash. *)
                clean_parent t p i prefix (lev - w) startgen;
                incr fixed
            | None -> ())
        | LNode _ -> ()
        | CNode { bmp; arr; _ } ->
            let pos = ref 0 in
            for idx = 0 to branching - 1 do
              if bmp land (1 lsl idx) <> 0 then begin
                (match arr.(!pos) with
                | SN _ -> ()
                | IN child ->
                    go child (lev + w) (prefix lor (idx lsl lev)) (Some i));
                incr pos
              end
            done
      in
      go r 0 0 None;
      !fixed
    in
    (* Cleaning cascades exactly as in the plain Ctrie: contracting a
       single-leaf CNode entombs its I-node one level up behind the
       walk's back, so sweep to fixpoint (depth-bounded at
       quiescence). *)
    let max_passes = (Hashing.hash_bits / w) + 2 in
    let passes = ref 0 in
    let continue = ref true in
    while !continue && !passes < max_passes do
      incr passes;
      let n = pass () in
      repairs := !repairs + n;
      continue := n > 0
    done;
    Metrics.add t.metrics Metrics.Scrub_repairs !repairs;
    !repairs

  let metrics t = t.metrics
  let stats t = Metrics.snapshot t.metrics
  let reset_stats t = Metrics.reset t.metrics

  (* Structural invariants, checked during quiescence.  Read-only: a
     pending GCAS node or RDCSS descriptor is reported as an error, not
     helped to completion, so the chaos tests can observe the residue a
     crashed domain leaves behind and then show that any ordinary
     operation clears it. *)
  let validate t =
    let errors = ref [] in
    let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
    let check_leaf what (leaf : 'v leaf) lev prefix pmask =
      if leaf.hash <> hash_of leaf.key then
        err "%s: stored hash %#x differs from key hash %#x" what leaf.hash
          (hash_of leaf.key);
      if leaf.hash land pmask <> prefix then
        err "%s at level %d violates the prefix invariant" what lev
    in
    let rec go_inode (i : 'v inode) lev prefix pmask =
      let m = i.main in
      (match prev_of m with
      | No_prev -> ()
      | Prev _ -> err "uncommitted GCAS node at level %d during quiescence" lev
      | Failed _ -> err "failed GCAS node not rolled back at level %d" lev);
      go_main m lev prefix pmask
    and go_main (main : 'v main) lev prefix pmask =
      match main with
      | TNode _ -> err "reachable TNode at level %d during quiescence" lev
      | LNode ln ->
          if List.length ln.entries < 2 then err "LNode with fewer than 2 entries";
          List.iter
            (fun (k, _) ->
              if hash_of k <> ln.lhash then err "LNode entry hash mismatch")
            ln.entries;
          if ln.lhash land pmask <> prefix then
            err "LNode at level %d violates the prefix invariant" lev
      | CNode { bmp; arr; _ } ->
          if bmp < 0 || bmp >= 1 lsl branching then err "bitmap out of range";
          if Bits.popcount bmp <> Array.length arr then
            err "bitmap cardinality %d does not match array length %d"
              (Bits.popcount bmp) (Array.length arr);
          let pos = ref 0 in
          for idx = 0 to branching - 1 do
            if bmp land (1 lsl idx) <> 0 then begin
              let child = arr.(!pos) in
              incr pos;
              let prefix' = prefix lor (idx lsl lev) in
              let pmask' = pmask lor ((branching - 1) lsl lev) in
              match child with
              | SN leaf -> check_leaf "SNode" leaf (lev + w) prefix' pmask'
              | IN i -> go_inode i (lev + w) prefix' pmask'
            end
          done
    in
    (match Atomic.get t.root with
    | Desc _ -> err "pending RDCSS descriptor at the root during quiescence"
    | Root r -> go_inode r 0 0 0);
    match !errors with [] -> Ok () | es -> Error (String.concat "; " (List.rev es))
end
