(* Folklore open-addressing hash table (the "folklore" contender of
   Maier, Sanders & Dementiev, "Concurrent Hash Tables: Fast and
   General(?)!"): a circular linear-probing table over flat atomic
   arrays, specialized to integer keys so a slot is claimed with a
   single CAS on a machine word.

   Layout: two parallel slot arrays.  [tkeys.(i)] holds the claiming
   key ([empty_key] = unclaimed; a claim is permanent until migration).
   [cells.(i)] holds the binding state packed into one word:

     0              FREE   (claimed or unclaimed, no binding)
     1              TOMB   (binding removed; key slot stays claimed)
     vidx + 2       bound, value lives at [store.(vidx)]
     c lor frozen   migration has frozen this slot (bit 62)

   Values are arbitrary ['v], so they cannot live in the flat word
   array; they go into a chunked append-only store and the cell word
   carries the index.  Store indices are never reused, which kills ABA
   on the cell CAS: [replace_if]/[remove_if] compare the current value
   and then CAS the exact cell word they read.

   Migration (growth, tombstone cleanup, store exhaustion) is
   cooperative and help-to-completion: a writer that observes
   [tb.next] or trips over a frozen cell finishes the ENTIRE migration
   (block-claimed parallel copy + idempotent verification sweep + root
   CAS) before retrying on the new table.  This discipline is what
   keeps probes linearizable across migration — writers never operate
   on a half-frozen table, and readers may keep probing the old table
   because freezing is in-place: a frozen table is an immutable
   snapshot of the moment the last cell froze, so a read that started
   before the root swap linearizes before any post-swap write.

   Keys equal to [empty_key] (= [min_int]) cannot claim a slot, so
   that one key is carried in a dedicated side cell with the same
   packed encoding.  Key equality is integer equality — packing keys
   into slot words fixes the key type and its equality; this is why
   the structure exports an [INT_MAKER], not a [MAKER]. *)

module Hashing = Ct_util.Hashing
module Slots = Ct_util.Slots
module Yp = Ct_util.Yieldpoint
module Metrics = Ct_util.Metrics
module Prefetch = Ct_util.Prefetch

(* Yield points (DESIGN.md "Fault injection & robustness"): one site
   per distinct CAS, so the chaos layer can crash a victim between a
   key claim and its cell publication, or mid-migration between a
   freeze and its copy. *)
let yp_claim_cas = Yp.register "oa.claim.cas"
let yp_insert_cas = Yp.register "oa.insert.cas"
let yp_remove_cas = Yp.register "oa.remove.cas"
let yp_freeze_cas = Yp.register "oa.migrate.freeze"
let yp_copy_cas = Yp.register "oa.migrate.copy"
let yp_publish_cas = Yp.register "oa.migrate.publish"

(* Read-path yield point, fired once per probed slot. *)
let yp_read_probe = Yp.register_read "oa.read.probe"

let yp_cas m site slot expected repl =
  Metrics.incr m Metrics.Cas_attempts;
  Yp.here Yp.Before site;
  let ok = Atomic.compare_and_set slot expected repl in
  if ok then Yp.here Yp.After site else Metrics.incr m Metrics.Cas_retries;
  ok

let yp_cas_slot m site slots pos expected repl =
  Metrics.incr m Metrics.Cas_attempts;
  Yp.here Yp.Before site;
  let ok = Slots.cas slots pos expected repl in
  if ok then Yp.here Yp.After site else Metrics.incr m Metrics.Cas_retries;
  ok

(* Packed cell encoding. *)
let empty_key = min_int
let free_cell = 0
let tomb_cell = 1
let frozen_bit = 1 lsl 62
let live_mask = frozen_bit - 1

let initial_cap = 16
let chunk_sz = 256
let mig_block = 64
let chunk_cap = 64 (* find_batch chunk, as in the tries *)

module Make (H : Hashing.HASHABLE with type t = int) = struct
  type key = int

  let name = "oa-folklore"

  type 'v table = {
    cap : int;  (* power of two *)
    tkeys : int Slots.t;
    cells : int Slots.t;
    spine : 'v array Atomic.t array;  (* chunked append-only value store *)
    next_vidx : int Atomic.t;
    store_cap : int;
    min_key_cell : int Atomic.t;  (* binding of [empty_key] itself *)
    used : int Atomic.t;  (* claimed slots (heuristic; see below) *)
    tombs : int Atomic.t;
    live : int Atomic.t;
    next : 'v table option Atomic.t;  (* migration target *)
    mig_cursor : int Atomic.t;  (* next copy block to claim *)
  }

  type 'v t = { root : 'v table Atomic.t; metrics : Metrics.t }

  (* The [used]/[tombs]/[live] counters are bumped after the CAS that
     commits the transition, so a domain crashed between the two
     leaves them undercounting.  They only drive migration heuristics,
     which tolerate drift (sizing uses them conservatively); they are
     deliberately NOT validated against the slots. *)

  let make_table cap =
    let store_cap = cap * 4 in
    let nchunks = (store_cap + chunk_sz - 1) / chunk_sz in
    {
      cap;
      tkeys = Slots.make cap empty_key;
      cells = Slots.make cap free_cell;
      spine = Array.init nchunks (fun _ -> Atomic.make [||]);
      next_vidx = Atomic.make 0;
      store_cap;
      min_key_cell = Atomic.make free_cell;
      used = Atomic.make 0;
      tombs = Atomic.make 0;
      live = Atomic.make 0;
      next = Atomic.make None;
      mig_cursor = Atomic.make 0;
    }

  let create () =
    { root = Atomic.make (make_table initial_cap); metrics = Metrics.create ~family:name }

  let hash_of k = H.hash k land Hashing.mask

  (* --------------------------- value store --------------------------- *)

  (* Chunks are installed by the first writer that needs them (CAS
     against the shared [[||]]), and never move: a published value
     index stays valid for the table's lifetime, so readers index with
     two loads and no lock. *)
  let rec chunk_for (tb : 'v table) ci v =
    let arr = Atomic.get tb.spine.(ci) in
    if Array.length arr > 0 then arr
    else begin
      let fresh = Array.make chunk_sz v in
      if Atomic.compare_and_set tb.spine.(ci) arr fresh then fresh
      else chunk_for tb ci v
    end

  let store_get tb vidx =
    Array.unsafe_get
      (Atomic.get (Array.unsafe_get tb.spine (vidx / chunk_sz)))
      (vidx mod chunk_sz)

  (* Returns the new value's index, or -1 when the store is exhausted
     (the caller triggers a migration, which starts a fresh store).  A
     failed cell CAS abandons its index — bounded leakage that only
     hastens the next migration. *)
  let store_append tb v =
    let idx = Atomic.fetch_and_add tb.next_vidx 1 in
    if idx >= tb.store_cap then -1
    else begin
      let chunk = chunk_for tb (idx / chunk_sz) v in
      chunk.(idx mod chunk_sz) <- v;
      idx
    end

  (* ------------------------------ lookup ----------------------------- *)

  (* Wait-free, allocation-free probe.  Readers ignore [next] and the
     frozen bit (masked off): a table being migrated is frozen in
     place, never emptied, so it remains a consistent snapshot. *)
  let rec probe_find tb k i steps : 'v =
    Yp.here Yp.Before yp_read_probe;
    let ks = Slots.get tb.tkeys i in
    if ks = empty_key then raise_notrace Not_found
    else if ks = k then begin
      let c = Slots.get tb.cells i land live_mask in
      if c < 2 then raise_notrace Not_found else store_get tb (c - 2)
    end
    else if steps + 1 >= tb.cap then raise_notrace Not_found
    else probe_find tb k ((i + 1) land (tb.cap - 1)) (steps + 1)

  let table_find tb k : 'v =
    if k = empty_key then begin
      let c = Atomic.get tb.min_key_cell land live_mask in
      if c < 2 then raise_notrace Not_found else store_get tb (c - 2)
    end
    else probe_find tb k (hash_of k land (tb.cap - 1)) 0

  let find t k = table_find (Atomic.get t.root) k
  let lookup t k = match find t k with v -> Some v | exception Not_found -> None
  let mem t k = match find t k with _ -> true | exception Not_found -> false

  (* ----------------------------- migration --------------------------- *)

  (* Freeze slot [i] (idempotent: loops until the frozen bit sticks)
     and return the frozen word. *)
  let rec freeze_cell t tb i =
    let c = Slots.get tb.cells i in
    if c land frozen_bit <> 0 then c
    else if yp_cas_slot t.metrics yp_freeze_cas tb.cells i c (c lor frozen_bit)
    then c lor frozen_bit
    else freeze_cell t tb i

  (* Copy one binding into the next table.  Idempotent: the cell is
     published only FREE -> vidx, so a second helper copying the same
     slot finds it non-FREE and stops (its appended value index leaks,
     bounded by the number of racing helpers).  During a migration no
     regular writer touches [nt] — every entry point helps to
     completion first — so helpers only race each other here. *)
  let migrate_put t nt k v =
    let rec publish i =
      let c = Slots.get nt.cells i in
      if c = free_cell then begin
        let vidx = store_append nt v in
        (* The new store is sized for the whole live set (see the
           sizing bound in [install_next]); -1 is unreachable. *)
        if vidx >= 0 then
          if yp_cas_slot t.metrics yp_copy_cas nt.cells i free_cell (vidx + 2)
          then Atomic.incr nt.live
          else ()
      end
    and go i steps =
      let ks = Slots.get nt.tkeys i in
      if ks = k then publish i
      else if ks = empty_key then begin
        if yp_cas_slot t.metrics yp_claim_cas nt.tkeys i empty_key k then begin
          Atomic.incr nt.used;
          publish i
        end
        else go i steps
      end
      else if steps + 1 < nt.cap then go ((i + 1) land (nt.cap - 1)) (steps + 1)
      (* [nt] full is unreachable: sizing keeps occupancy <= 1/2. *)
    in
    go (hash_of k land (nt.cap - 1)) 0

  let copy_slot t tb nt i =
    let c = freeze_cell t tb i land live_mask in
    if c >= 2 then
      (* A binding implies the key was claimed (and published by the
         claim CAS) before the cell CAS we just froze. *)
      migrate_put t nt (Slots.get tb.tkeys i) (store_get tb (c - 2))

  let copy_min t tb nt =
    let rec freeze () =
      let c = Atomic.get tb.min_key_cell in
      if c land frozen_bit <> 0 then c
      else if yp_cas t.metrics yp_freeze_cas tb.min_key_cell c (c lor frozen_bit)
      then c lor frozen_bit
      else freeze ()
    in
    let c = freeze () land live_mask in
    if c >= 2 then begin
      let nc = Atomic.get nt.min_key_cell in
      if nc = free_cell then begin
        let vidx = store_append nt (store_get tb (c - 2)) in
        if vidx >= 0 then
          if yp_cas t.metrics yp_copy_cas nt.min_key_cell free_cell (vidx + 2)
          then Atomic.incr nt.live
      end
    end

  (* Help the migration out of [tb] to completion.  Phase 1 claims
     copy blocks through a shared cursor so helpers parallelize;
     phase 2 is a full idempotent verification sweep that re-freezes
     and re-copies every slot, covering blocks whose claimant crashed
     or stalled.  Only after the sweep — every cell provably frozen,
     every binding provably in [nt] — is the root advanced. *)
  let help_migrate t tb =
    match Atomic.get tb.next with
    | None -> ()
    | Some nt ->
        Metrics.incr t.metrics Metrics.Helps;
        let nblocks = (tb.cap + mig_block - 1) / mig_block in
        let rec claim () =
          let b = Atomic.fetch_and_add tb.mig_cursor 1 in
          if b < nblocks then begin
            let lo = b * mig_block in
            let hi = min tb.cap (lo + mig_block) in
            for i = lo to hi - 1 do
              copy_slot t tb nt i
            done;
            claim ()
          end
        in
        claim ();
        for i = 0 to tb.cap - 1 do
          copy_slot t tb nt i
        done;
        copy_min t tb nt;
        if yp_cas t.metrics yp_publish_cas t.root tb nt then
          Metrics.incr t.metrics Metrics.Expansions

  (* Install a migration target if none exists yet.  Sizing: count the
     bindings actually present, add every slot still unclaimed (an
     upper bound on inserts that can still commit into [tb] before
     their slots freeze — claims are the only way in), and double
     unless that bound fits in half the current capacity.  Either way
     the new table's occupancy stays <= 1/2, so [migrate_put] always
     finds a slot and the new table does not re-trigger immediately. *)
  let install_next tb =
    match Atomic.get tb.next with
    | Some _ -> ()
    | None ->
        let bindings = ref 0 in
        for i = 0 to tb.cap - 1 do
          if Slots.get tb.cells i land live_mask >= 2 then incr bindings
        done;
        if Atomic.get tb.min_key_cell land live_mask >= 2 then incr bindings;
        let head = !bindings + (tb.cap - Atomic.get tb.used) in
        let newcap = if head * 2 <= tb.cap then tb.cap else tb.cap * 2 in
        let nt = make_table (max initial_cap newcap) in
        ignore (Atomic.compare_and_set tb.next None (Some nt))

  let trigger_migrate t tb =
    install_next tb;
    help_migrate t tb

  (* Amortized growth triggers: ~70% claimed, or a quarter of the
     table tombstoned, or (checked at append) value store exhausted. *)
  let threshold_breached tb =
    Atomic.get tb.used * 10 >= tb.cap * 7 || Atomic.get tb.tombs * 4 >= tb.cap

  let maybe_trigger t tb = if threshold_breached tb then trigger_migrate t tb

  (* ------------------------------ updates ---------------------------- *)

  type 'v mode = Always | If_absent | If_present | If_value of 'v

  (* [UBlocked]: the slot is frozen or the store is full — help the
     migration, retry on the new table. *)
  type 'v upd = UDone of 'v option | UBlocked

  let rec cell_update t tb i v mode : 'v upd =
    let c = Slots.get tb.cells i in
    if c land frozen_bit <> 0 then UBlocked
    else if c < 2 then begin
      (* FREE or TOMB: no current binding. *)
      match mode with
      | If_present | If_value _ -> UDone None
      | Always | If_absent ->
          let vidx = store_append tb v in
          if vidx < 0 then UBlocked
          else if yp_cas_slot t.metrics yp_insert_cas tb.cells i c (vidx + 2)
          then begin
            Atomic.incr tb.live;
            if c = tomb_cell then Atomic.decr tb.tombs;
            UDone None
          end
          else cell_update t tb i v mode
    end
    else begin
      let cur = store_get tb (c - 2) in
      match mode with
      | If_absent -> UDone (Some cur)
      | If_value expected when cur != expected -> UDone (Some cur)
      | Always | If_present | If_value _ ->
          let vidx = store_append tb v in
          if vidx < 0 then UBlocked
          else if yp_cas_slot t.metrics yp_insert_cas tb.cells i c (vidx + 2)
          then UDone (Some cur)
          else cell_update t tb i v mode
    end

  let rec probe_update t tb k v mode i steps : 'v upd =
    let ks = Slots.get tb.tkeys i in
    if ks = k then cell_update t tb i v mode
    else if ks = empty_key then begin
      match mode with
      | If_present | If_value _ -> UDone None
      | Always | If_absent ->
          if yp_cas_slot t.metrics yp_claim_cas tb.tkeys i empty_key k then begin
            Atomic.incr tb.used;
            cell_update t tb i v mode
          end
          else probe_update t tb k v mode i steps (* re-examine the slot *)
    end
    else if steps + 1 >= tb.cap then UBlocked (* full: migrate *)
    else probe_update t tb k v mode ((i + 1) land (tb.cap - 1)) (steps + 1)

  let rec min_cell_update t tb v mode : 'v upd =
    let c = Atomic.get tb.min_key_cell in
    if c land frozen_bit <> 0 then UBlocked
    else if c < 2 then begin
      match mode with
      | If_present | If_value _ -> UDone None
      | Always | If_absent ->
          let vidx = store_append tb v in
          if vidx < 0 then UBlocked
          else if yp_cas t.metrics yp_insert_cas tb.min_key_cell c (vidx + 2)
          then begin
            Atomic.incr tb.live;
            UDone None
          end
          else min_cell_update t tb v mode
    end
    else begin
      let cur = store_get tb (c - 2) in
      match mode with
      | If_absent -> UDone (Some cur)
      | If_value expected when cur != expected -> UDone (Some cur)
      | Always | If_present | If_value _ ->
          let vidx = store_append tb v in
          if vidx < 0 then UBlocked
          else if yp_cas t.metrics yp_insert_cas tb.min_key_cell c (vidx + 2)
          then UDone (Some cur)
          else min_cell_update t tb v mode
    end

  let rec update t k v mode : 'v option =
    let tb = Atomic.get t.root in
    match Atomic.get tb.next with
    | Some _ ->
        (* Help-to-completion: never write into a table under
           migration. *)
        help_migrate t tb;
        update t k v mode
    | None -> (
        let r =
          if k = empty_key then min_cell_update t tb v mode
          else probe_update t tb k v mode (hash_of k land (tb.cap - 1)) 0
        in
        match r with
        | UDone prev ->
            maybe_trigger t tb;
            prev
        | UBlocked ->
            trigger_migrate t tb;
            update t k v mode)

  let insert t k v = ignore (update t k v Always)
  let add t k v = update t k v Always
  let put_if_absent t k v = update t k v If_absent
  let replace t k v = update t k v If_present

  let replace_if t k ~expected v =
    match update t k v (If_value expected) with
    | Some p -> p == expected
    | None -> false

  (* ------------------------------ remove ----------------------------- *)

  let rec cell_remove t tb i cond : 'v upd =
    let c = Slots.get tb.cells i in
    if c land frozen_bit <> 0 then UBlocked
    else if c < 2 then UDone None
    else begin
      let cur = store_get tb (c - 2) in
      if not (cond cur) then UDone (Some cur)
      else if yp_cas_slot t.metrics yp_remove_cas tb.cells i c tomb_cell then begin
        Atomic.incr tb.tombs;
        Atomic.decr tb.live;
        Metrics.incr t.metrics Metrics.Entombments;
        UDone (Some cur)
      end
      else cell_remove t tb i cond
    end

  let rec probe_remove t tb k cond i steps : 'v upd =
    let ks = Slots.get tb.tkeys i in
    if ks = k then cell_remove t tb i cond
    else if ks = empty_key then UDone None
    else if steps + 1 >= tb.cap then UDone None
    else probe_remove t tb k cond ((i + 1) land (tb.cap - 1)) (steps + 1)

  let rec min_cell_remove t tb cond : 'v upd =
    let c = Atomic.get tb.min_key_cell in
    if c land frozen_bit <> 0 then UBlocked
    else if c < 2 then UDone None
    else begin
      let cur = store_get tb (c - 2) in
      if not (cond cur) then UDone (Some cur)
      else if yp_cas t.metrics yp_remove_cas tb.min_key_cell c free_cell then begin
        Atomic.decr tb.live;
        Metrics.incr t.metrics Metrics.Entombments;
        UDone (Some cur)
      end
      else min_cell_remove t tb cond
    end

  let rec remove_with t k cond : 'v option =
    let tb = Atomic.get t.root in
    match Atomic.get tb.next with
    | Some _ ->
        help_migrate t tb;
        remove_with t k cond
    | None -> (
        let r =
          if k = empty_key then min_cell_remove t tb cond
          else probe_remove t tb k cond (hash_of k land (tb.cap - 1)) 0
        in
        match r with
        | UDone prev ->
            maybe_trigger t tb;
            prev
        | UBlocked ->
            trigger_migrate t tb;
            remove_with t k cond)

  let remove t k = remove_with t k (fun _ -> true)

  let remove_if t k ~expected =
    match remove_with t k (fun v -> v == expected) with
    | Some p -> p == expected
    | None -> false

  (* ---------------------------- batched lookup ----------------------- *)

  (* Flat arrays make staging trivial (DESIGN.md §13): the home slot's
     key and cell lines for a whole chunk are hinted before the first
     probe touches any of them, so the one cache miss per key that
     dominates an OA lookup overlaps across the chunk.  Probes past
     the home slot ride the same or the next line.  No scratch state
     is needed — chunks carry their counters through recursion, so the
     batch allocates nothing. *)

  let prefetch_homes tb keys base n =
    let mask = tb.cap - 1 in
    for p = base to base + n - 1 do
      let k = Array.unsafe_get keys p in
      if k <> empty_key then begin
        let i = hash_of k land mask in
        Slots.prefetch tb.tkeys i;
        Slots.prefetch tb.cells i
      end
    done

  let rec resolve_finds tb keys ~miss (out : 'v array) p stop hits =
    if p >= stop then hits
    else
      let k = Array.unsafe_get keys p in
      match table_find tb k with
      | v ->
          Array.unsafe_set out p v;
          resolve_finds tb keys ~miss out (p + 1) stop (hits + 1)
      | exception Not_found ->
          Array.unsafe_set out p miss;
          resolve_finds tb keys ~miss out (p + 1) stop hits

  let rec find_chunks tb keys ~miss out base total hits =
    if base >= total then hits
    else begin
      let n = min chunk_cap (total - base) in
      prefetch_homes tb keys base n;
      let hits = resolve_finds tb keys ~miss out base (base + n) hits in
      find_chunks tb keys ~miss out (base + n) total hits
    end

  let find_batch t keys ~miss out =
    let total = Array.length keys in
    if Array.length out < total then
      invalid_arg "Folklore.find_batch: out array shorter than keys";
    find_chunks (Atomic.get t.root) keys ~miss out 0 total 0

  (* ------------------------- aggregate queries ----------------------- *)

  let fold f acc0 t =
    let tb = Atomic.get t.root in
    let acc = ref acc0 in
    for i = 0 to tb.cap - 1 do
      let c = Slots.get tb.cells i land live_mask in
      if c >= 2 then acc := f !acc (Slots.get tb.tkeys i) (store_get tb (c - 2))
    done;
    let c = Atomic.get tb.min_key_cell land live_mask in
    if c >= 2 then acc := f !acc empty_key (store_get tb (c - 2));
    !acc

  let iter f t = fold (fun () k v -> f k v) () t
  let size t = fold (fun n _ _ -> n + 1) 0 t
  let is_empty t = size t = 0
  let to_list t = fold (fun acc k v -> (k, v) :: acc) [] t

  (* Structural invariants, checked during quiescence.  The drifting
     heuristic counters are deliberately not validated (see above);
     everything structural is: no frozen residue outside a migration,
     packed words well formed, value indices in range, no duplicate
     keys, and every binding reachable from its hash home (no empty
     slot on the probe path — claims are permanent, so a reachable
     binding can only become unreachable through a bug). *)
  let validate t =
    let errors = ref [] in
    let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
    let tb = Atomic.get t.root in
    (match Atomic.get tb.next with
    | Some _ -> err "migration in progress during quiescence"
    | None -> ());
    if tb.cap land (tb.cap - 1) <> 0 then err "capacity %d not a power of two" tb.cap;
    let hwm = Atomic.get tb.next_vidx in
    let seen = Hashtbl.create 16 in
    for i = 0 to tb.cap - 1 do
      let ks = Slots.get tb.tkeys i in
      let c = Slots.get tb.cells i in
      if c land frozen_bit <> 0 then
        err "frozen cell %d with no migration pending" i;
      let c = c land live_mask in
      if ks = empty_key then begin
        if c <> free_cell then err "binding or tomb in unclaimed slot %d" i
      end
      else if c >= 2 then begin
        if c - 2 >= hwm then
          err "slot %d value index %d beyond store high-water mark %d" i (c - 2) hwm;
        if Hashtbl.mem seen ks then err "key claimed twice (slot %d)" i
        else Hashtbl.add seen ks ();
        let home = hash_of ks land (tb.cap - 1) in
        let rec reach j =
          if j <> i then
            if Slots.get tb.tkeys j = empty_key then
              err "binding at slot %d unreachable from home %d" i home
            else reach ((j + 1) land (tb.cap - 1))
        in
        reach home
      end
    done;
    (let c = Atomic.get tb.min_key_cell in
     if c land frozen_bit <> 0 then err "frozen min-key cell with no migration pending";
     let c = c land live_mask in
     if c = tomb_cell then err "tombstone in the min-key cell"
     else if c >= 2 && c - 2 >= hwm then err "min-key value index beyond store high-water mark");
    match !errors with [] -> Ok () | es -> Error (String.concat "; " (List.rev es))

  (* Scrub: the only multi-step residue an abandoned operation can
     leave is an installed-but-unfinished migration (frozen cells,
     partial copy, unswapped root) — [help_migrate] is exactly the
     helping step any writer would perform, so completing it here is
     safe under live traffic.  A key claimed whose cell CAS never ran
     is not residue: it is a wasted slot with correct semantics,
     reclaimed by the next migration. *)
  let scrub t =
    let tb = Atomic.get t.root in
    match Atomic.get tb.next with
    | None -> 0
    | Some _ ->
        help_migrate t tb;
        Metrics.add t.metrics Metrics.Scrub_repairs 1;
        1

  let metrics t = t.metrics
  let stats t = Metrics.snapshot t.metrics
  let reset_stats t = Metrics.reset t.metrics

  (* Word-cost model (DESIGN.md): two flat int arrays, the chunked
     store spine with its atomic boxes and any installed chunks, six
     atomic boxes, and the table record itself. *)
  let footprint_words t =
    let tb = Atomic.get t.root in
    let arrays = 2 * (1 + ((1 + Slots.overhead_words_per_slot) * tb.cap)) in
    let spine =
      Array.fold_left
        (fun acc c ->
          acc + 2
          + (let a = Atomic.get c in
             if Array.length a = 0 then 1 else 1 + chunk_sz))
        1 tb.spine
    in
    14 + arrays + spine + (6 * 2)
end
