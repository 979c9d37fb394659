(* Split-ordered hash map: one Harris-style lock-free ordered list over
   bit-reversed hashes, plus a growable table of bucket sentinels.

   Split-order keys: regular nodes use reverse(hash) | 1 (odd), bucket
   sentinels use reverse(bucket) (even), so a bucket's sentinel sorts
   just before the regular nodes that hash into it.  Doubling the
   table splits each bucket in two without moving any list node.

   A binding's value and liveness share a single atomic [state] word
   (Live v / Dead): every logical transition of a binding is one CAS on
   it, which is what makes in-place value updates (including the
   replace_if compare-and-swap) linearizable.  A Dead node's link is
   then marked and unlinked as pure physical cleanup. *)

module Hashing = Ct_util.Hashing
module Bits = Ct_util.Bits
module Slots = Ct_util.Slots
module Yp = Ct_util.Yieldpoint
module Metrics = Ct_util.Metrics
module Prefetch = Ct_util.Prefetch

(* Yield points (DESIGN.md "Fault injection & robustness"): one site
   per distinct CAS, so the chaos layer can crash a victim between the
   logical and physical steps of an operation — a binding killed but
   not buried, a node marked but not unlinked, a sentinel spliced into
   the list but never published in the bucket table. *)
let yp_insert_splice = Yp.register "chm.insert.splice"
let yp_update_value = Yp.register "chm.update.value"
let yp_remove_kill = Yp.register "chm.remove.kill"
let yp_bury_mark = Yp.register "chm.bury.mark"
let yp_unlink = Yp.register "chm.unlink"
let yp_bucket_splice = Yp.register "chm.bucket.splice"
let yp_bucket_publish = Yp.register "chm.bucket.publish"
let yp_grow = Yp.register "chm.grow"

(* Read-path yield point, fired once per node the wait-free lookup
   traverses, so the deterministic scheduler (lib/mc) can park a read
   mid-list between a writer's kill and bury steps. *)
let yp_read_walk = Yp.register_read "chm.read.walk"

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

let initial_buckets = 16
let max_buckets = 1 lsl 22

(* Average bindings per bucket before doubling; JDK 8's CHM keeps bins
   near 0.75 entries, so growth triggers at 1. *)
let load_factor = 1

module Make (H : Hashing.HASHABLE) = struct
  type key = H.t

  let name = "chm"

  type 'v node = {
    sokey : int;  (* split-order key: reversed hash, odd for regular nodes *)
    kind : 'v kind;
    next : 'v link Atomic.t;
  }

  and 'v kind =
    | Sentinel  (* bucket dummy *)
    | Binding of { hash : int; key : key; state : 'v state Atomic.t }

  and 'v state = Live of 'v | Dead

  and 'v link = { succ : 'v node option; marked : bool }

  (* Staged-batch traversal state (DESIGN.md §13), pooled per domain so
     steady-state [find_batch] allocates nothing.  [s_node] holds the
     [succ] options already boxed inside link records, so storing them
     costs no allocation. *)
  type 'v scratch = {
    s_h : int array;
    s_so : int array;  (** split-order key *)
    s_node : 'v node option array;
    s_act : int array;
    mutable s_nact : int;
    mutable s_hits : int;
  }

  type 'v t = {
    table : 'v node option Slots.t Atomic.t;
    count : int Atomic.t;
    list_head : 'v node;  (* sentinel of bucket 0 *)
    metrics : Metrics.t;
    scratch_pool : 'v scratch Atomic.t array;
    scratch_dummy : 'v scratch;
  }

  let regular_sokey h = (Bits.reverse_bits32 h lsl 1) lor 1
  let sentinel_sokey b = Bits.reverse_bits32 b lsl 1
  let chunk_cap = 64

  let create () =
    let head =
      {
        sokey = sentinel_sokey 0;
        kind = Sentinel;
        next = Atomic.make { succ = None; marked = false };
      }
    in
    let table = Slots.make initial_buckets None in
    Slots.set table 0 (Some head);
    let scratch_dummy =
      { s_h = [||]; s_so = [||]; s_node = [||]; s_act = [||]; s_nact = 0; s_hits = 0 }
    in
    {
      table = Atomic.make table;
      count = Atomic.make 0;
      list_head = head;
      metrics = Metrics.create ~family:name;
      scratch_pool =
        Array.init (Ct_util.Domain_slot.capacity + 1) (fun _ ->
            Atomic.make scratch_dummy);
      scratch_dummy;
    }

  let hash_of k = H.hash k land Hashing.mask

  (* ----------------------- the underlying list ---------------------- *)

  (* Mark a dead node's link so traversals unlink it. *)
  let rec bury m (node : 'v node) =
    let link = Atomic.get node.next in
    if not link.marked then
      if
        not
          (yp_cas m yp_bury_mark node.next link { succ = link.succ; marked = true })
      then bury m node

  (* Position in the list after [start] for ([sokey], [key]):
     [pred, curr] with [pred.sokey <= sokey <= curr.sokey]; when the
     exact binding exists, [curr] is it.  Physically unlinks marked
     nodes on the way (Harris). *)
  let rec list_find m (start : 'v node) sokey key : 'v node * 'v node option =
    let rec advance (pred : 'v node) (plink : 'v link) =
      match plink.succ with
      | None -> (pred, None)
      | Some curr ->
          let clink = Atomic.get curr.next in
          if clink.marked then begin
            (* Unlink the dead node.  The stored replacement link must
               be the exact record we keep using (CAS compares
               identities).  Unlinking someone else's marked node is a
               helping step. *)
            let repl = { succ = clink.succ; marked = false } in
            if yp_cas m yp_unlink pred.next plink repl then begin
              Metrics.incr m Metrics.Helps;
              advance pred repl
            end
            else list_find m start sokey key
          end
          else if curr.sokey < sokey then advance curr clink
          else if curr.sokey > sokey then (pred, Some curr)
          else begin
            (* Equal split-order key: scan the equal-key run for the
               matching binding. *)
            match curr.kind with
            | Binding b when H.equal b.key key -> (pred, Some curr)
            | Binding _ | Sentinel -> advance curr clink
          end
    in
    advance start (Atomic.get start.next)

  (* --------------------------- bucket table ------------------------- *)

  let parent_bucket b =
    (* Clear the most significant set bit. *)
    if b = 0 then 0 else b lxor (1 lsl (31 - Bits.count_leading_zeros32 b))

  let rec get_bucket t (table : 'v node option Slots.t) b : 'v node =
    match Slots.get table b with
    | Some sentinel -> sentinel
    | None ->
        (* Initialize recursively from the parent bucket. *)
        let parent = get_bucket t table (parent_bucket b) in
        let sokey = sentinel_sokey b in
        let rec install () =
          (* A sentinel has no key; find the splice point by sokey
             alone. *)
          let rec splice_point (pred : 'v node) =
            let plink = Atomic.get pred.next in
            match plink.succ with
            | Some curr when curr.sokey < sokey ->
                let clink = Atomic.get curr.next in
                if clink.marked then begin
                  let repl = { succ = clink.succ; marked = false } in
                  if yp_cas t.metrics yp_unlink pred.next plink repl then
                    splice_point pred
                  else splice_point parent
                end
                else splice_point curr
            | Some curr when curr.sokey = sokey && curr.kind = Sentinel ->
                `Exists curr
            | _ -> `Splice (pred, plink)
          in
          match splice_point parent with
          | `Exists sentinel -> sentinel
          | `Splice (pred, plink) ->
              if plink.marked then install ()
              else begin
                let sentinel = { sokey; kind = Sentinel; next = Atomic.make plink } in
                if
                  yp_cas t.metrics yp_bucket_splice pred.next plink
                    { succ = Some sentinel; marked = false }
                then sentinel
                else install ()
              end
        in
        let sentinel = install () in
        ignore (yp_cas_slot t.metrics yp_bucket_publish table b None (Some sentinel));
        (* Another thread may have installed a different-but-equivalent
           sentinel pointer first; always use the published one. *)
        (match Slots.get table b with Some s -> s | None -> sentinel)

  let bucket_for t h =
    let table = Atomic.get t.table in
    let b = h land (Slots.length table - 1) in
    get_bucket t table b

  let bucket_count t = Slots.length (Atomic.get t.table)

  (* Double the bucket table when the load factor is exceeded.  The
     new array reuses initialized buckets; lazy initialization fills
     the rest. *)
  let maybe_grow t =
    let table = Atomic.get t.table in
    let buckets = Slots.length table in
    if buckets < max_buckets && Atomic.get t.count > buckets * load_factor then begin
      let bigger = Slots.make (buckets * 2) None in
      for b = 0 to buckets - 1 do
        Slots.set bigger b (Slots.get table b)
      done;
      if yp_cas t.metrics yp_grow t.table table bigger then
        Metrics.incr t.metrics Metrics.Expansions
    end

  (* ------------------------------ lookup ---------------------------- *)

  (* Wait-free read: traverse skipping marked nodes without helping.
     Top-level recursion (the old local [go] closure allocated per
     lookup) raising (notrace) on a miss, so a read allocates nothing
     once the bucket sentinel exists. *)
  let rec find_in_list (node : 'v node option) sokey k : 'v =
    Yp.here Yp.Before yp_read_walk;
    match node with
    | None -> raise_notrace Not_found
    | Some n ->
        if n.sokey < sokey then find_in_list (Atomic.get n.next).succ sokey k
        else if n.sokey > sokey then raise_notrace Not_found
        else begin
          match n.kind with
          | Binding b when H.equal b.key k -> (
              match Atomic.get b.state with
              | Live v -> v
              | Dead -> raise_notrace Not_found)
          | Binding _ | Sentinel -> find_in_list (Atomic.get n.next).succ sokey k
        end

  let find t k =
    let h = hash_of k in
    let start = bucket_for t h in
    find_in_list (Atomic.get start.next).succ (regular_sokey h) k

  let lookup t k = match find t k with v -> Some v | exception Not_found -> None
  let mem t k = match find t k with _ -> true | exception Not_found -> false

  (* ------------------------------ updates --------------------------- *)

  type 'v mode = Always | If_absent | If_present | If_value of 'v

  let rec update t k v mode : 'v option =
    let h = hash_of k in
    let sokey = regular_sokey h in
    let start = bucket_for t h in
    let pred, curr = list_find t.metrics start sokey k in
    match curr with
    | Some n when n.sokey = sokey -> (
        match n.kind with
        | Binding b -> (
            match Atomic.get b.state with
            | Dead ->
                (* Logically removed but not yet unlinked: help, retry. *)
                Metrics.incr t.metrics Metrics.Helps;
                bury t.metrics n;
                ignore (list_find t.metrics start sokey k);
                update t k v mode
            | Live existing as live -> (
                match mode with
                | If_absent -> Some existing
                | If_value expected when existing != expected -> Some existing
                | Always | If_present | If_value _ ->
                    if yp_cas t.metrics yp_update_value b.state live (Live v)
                    then Some existing
                    else update t k v mode))
        | Sentinel -> assert false)
    | _ ->
        if (match mode with If_present | If_value _ -> true | Always | If_absent -> false)
        then None
        else begin
          let node =
            {
              sokey;
              kind = Binding { hash = h; key = k; state = Atomic.make (Live v) };
              next = Atomic.make { succ = curr; marked = false };
            }
          in
          let plink = Atomic.get pred.next in
          let same_succ =
            match (plink.succ, curr) with
            | None, None -> true
            | Some a, Some b -> a == b
            | None, Some _ | Some _, None -> false
          in
          if plink.marked || not same_succ then update t k v mode
          else if
            yp_cas t.metrics yp_insert_splice pred.next plink
              { succ = Some node; marked = false }
          then begin
            Atomic.incr t.count;
            maybe_grow t;
            None
          end
          else update t k v mode
        end

  let insert t k v = ignore (update t k v Always)
  let add t k v = update t k v Always
  let put_if_absent t k v = update t k v If_absent
  let replace t k v = update t k v If_present

  let replace_if t k ~expected v =
    match update t k v (If_value expected) with
    | Some p -> p == expected
    | None -> false

  let rec remove_with t k cond : 'v option =
    let h = hash_of k in
    let sokey = regular_sokey h in
    let start = bucket_for t h in
    let _, curr = list_find t.metrics start sokey k in
    match curr with
    | Some n when n.sokey = sokey -> (
        match n.kind with
        | Binding b -> (
            match Atomic.get b.state with
            | Dead ->
                Metrics.incr t.metrics Metrics.Helps;
                bury t.metrics n;
                ignore (list_find t.metrics start sokey k);
                None
            | Live v as live ->
                if not (cond v) then Some v
                else if yp_cas t.metrics yp_remove_kill b.state live Dead
                then begin
                  (* Removal linearized; clean up physically. *)
                  Atomic.decr t.count;
                  bury t.metrics n;
                  ignore (list_find t.metrics start sokey k);
                  Some v
                end
                else remove_with t k cond)
        | Sentinel -> assert false)
    | _ -> None

  let remove t k = remove_with t k (fun _ -> true)

  let remove_if t k ~expected =
    match remove_with t k (fun v -> v == expected) with
    | Some p -> p == expected
    | None -> false

  (* ---------------------------- batched lookup ---------------------- *)

  (* Staged traversal (DESIGN.md §13).  Stage 0 hints every key's
     bucket slot before any sentinel is touched, then the chunk walks
     the ordered list in lockstep — one hop per key per round, the
     successor prefetched one round before it is dispatched on — so up
     to [chunk_cap] independent pointer chases overlap.  The read walk
     mirrors [find_in_list]: wait-free, skips marked nodes without
     helping, treats a Dead binding as a miss. *)

  let scratch_make () =
    {
      s_h = Array.make chunk_cap 0;
      s_so = Array.make chunk_cap 0;
      s_node = Array.make chunk_cap None;
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
    if Array.length s.s_h = chunk_cap then s else scratch_make ()

  let scratch_release t s =
    Atomic.set t.scratch_pool.(Ct_util.Domain_slot.get ()) s

  let find_chunk t scr keys ~miss (out : 'v array) base n =
    (* Stage 0: hash every key and hint its bucket slot. *)
    let table = Atomic.get t.table in
    let nb = Slots.length table in
    for p = 0 to n - 1 do
      let h = hash_of (Array.unsafe_get keys (base + p)) in
      scr.s_h.(p) <- h;
      scr.s_so.(p) <- regular_sokey h;
      Slots.prefetch table (h land (nb - 1));
      scr.s_act.(p) <- p
    done;
    (* Stage 1: resolve sentinels (lazily installing missing ones) and
       line up each key at its bucket's first regular position. *)
    for p = 0 to n - 1 do
      let start = bucket_for t scr.s_h.(p) in
      let succ = (Atomic.get start.next).succ in
      (match succ with Some nn -> Prefetch.read nn | None -> ());
      scr.s_node.(p) <- succ
    done;
    scr.s_nact <- n;
    (* Lockstep walk: one hop per active key per round. *)
    while scr.s_nact > 0 do
      let nact = scr.s_nact in
      scr.s_nact <- 0;
      for a = 0 to nact - 1 do
        let p = Array.unsafe_get scr.s_act a in
        let sokey = scr.s_so.(p) in
        Yp.here Yp.Before yp_read_walk;
        match scr.s_node.(p) with
        | None -> Array.unsafe_set out (base + p) miss
        | Some nd ->
            if nd.sokey > sokey then Array.unsafe_set out (base + p) miss
            else begin
              let advance =
                if nd.sokey < sokey then true
                else
                  match nd.kind with
                  | Binding b when H.equal b.key (Array.unsafe_get keys (base + p))
                    ->
                      (match Atomic.get b.state with
                      | Live v ->
                          Array.unsafe_set out (base + p) v;
                          scr.s_hits <- scr.s_hits + 1
                      | Dead -> Array.unsafe_set out (base + p) miss);
                      false
                  | Binding _ | Sentinel -> true
              in
              if advance then begin
                let succ = (Atomic.get nd.next).succ in
                (match succ with Some nn -> Prefetch.read nn | None -> ());
                scr.s_node.(p) <- succ;
                scr.s_act.(scr.s_nact) <- p;
                scr.s_nact <- scr.s_nact + 1
              end
            end
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
      invalid_arg "Split_ordered.find_batch: out array shorter than keys";
    let scr = scratch_take t in
    scr.s_hits <- 0;
    find_chunks t scr keys ~miss out 0 total;
    let hits = scr.s_hits in
    scratch_release t scr;
    hits

  (* ------------------------- aggregate queries ---------------------- *)

  let fold f acc t =
    let rec go acc (node : 'v node option) =
      match node with
      | None -> acc
      | Some n ->
          let acc =
            match n.kind with
            | Binding b -> (
                match Atomic.get b.state with
                | Live v -> f acc b.key v
                | Dead -> acc)
            | Sentinel -> acc
          in
          go acc (Atomic.get n.next).succ
    in
    go acc (Atomic.get t.list_head.next).succ

  let iter f t = fold (fun () k v -> f k v) () t
  let size t = fold (fun n _ _ -> n + 1) 0 t
  let is_empty t = size t = 0
  let to_list t = fold (fun acc k v -> (k, v) :: acc) [] t

  (* Structural invariants, checked during quiescence. *)
  let validate t =
    let errors = ref [] in
    let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
    let rec walk (node : 'v node option) last =
      match node with
      | None -> ()
      | Some n ->
          let link = Atomic.get n.next in
          if link.marked then err "marked node reachable during quiescence";
          if n.sokey < last then err "split-order keys not sorted"
          else if n.sokey = last && n.sokey land 1 = 0 then
            err "duplicate sentinel sokey %#x" n.sokey;
          (match n.kind with
          | Sentinel ->
              if n.sokey land 1 <> 0 then err "sentinel with odd sokey"
          | Binding b -> (
              if n.sokey land 1 <> 1 then err "binding with even sokey";
              if regular_sokey b.hash <> n.sokey then err "binding sokey mismatch";
              if hash_of b.key <> b.hash then err "binding hash mismatch";
              match Atomic.get b.state with
              | Dead -> err "dead binding reachable during quiescence"
              | Live _ -> ()));
          walk link.succ n.sokey
    in
    walk (Some t.list_head) min_int;
    let table = Atomic.get t.table in
    for b = 0 to Slots.length table - 1 do
      match Slots.get table b with
      | None -> ()
      | Some sentinel ->
          if sentinel.kind <> Sentinel then err "bucket %d points at a binding" b;
          if sentinel.sokey <> sentinel_sokey b then
            err "bucket %d sentinel has wrong sokey" b
    done;
    match !errors with [] -> Ok () | es -> Error (String.concat "; " (List.rev es))

  (* Scrub: active residue sweep (DESIGN.md §9).  One pred-based pass
     over the whole list finishes every abandoned removal (Dead
     bindings get their link marked, marked nodes get unlinked) and
     every abandoned bucket initialisation (a sentinel spliced into the
     list whose table slot is still empty gets published).  Each step
     is the same helping/cleanup a regular operation performs, so
     scrubbing is safe under live traffic.  Lazily uninitialized
     buckets whose sentinel was never created are NOT residue — they
     are the normal resting state — so a quiescent clean map yields
     0 repairs. *)
  let scrub t =
    let repairs = ref 0 in
    let publish_orphan (sentinel : 'v node) =
      let table = Atomic.get t.table in
      (* sokey = reverse_bits32 b lsl 1, and reversal is an involution. *)
      let b = Bits.reverse_bits32 (sentinel.sokey lsr 1) in
      if b >= 0 && b < Slots.length table then
        match Slots.get table b with
        | None ->
            if yp_cas_slot t.metrics yp_bucket_publish table b None (Some sentinel)
            then incr repairs
        | Some _ -> ()
    in
    let rec sweep (pred : 'v node) budget =
      if budget > 0 then
        let plink = Atomic.get pred.next in
        match plink.succ with
        | None -> ()
        | Some curr ->
            let clink = Atomic.get curr.next in
            if clink.marked then begin
              let repl = { succ = clink.succ; marked = false } in
              if yp_cas t.metrics yp_unlink pred.next plink repl then incr repairs;
              (* Either way re-examine [pred]: the link changed. *)
              sweep pred (budget - 1)
            end
            else begin
              (match curr.kind with
              | Binding b -> (
                  match Atomic.get b.state with
                  | Dead ->
                      (* Killed but never buried: finish the removal. *)
                      bury t.metrics curr;
                      incr repairs
                  | Live _ -> ())
              | Sentinel -> publish_orphan curr);
              if (Atomic.get curr.next).marked then
                (* Just buried (or marked concurrently): unlink it
                   before moving on. *)
                sweep pred (budget - 1)
              else sweep curr budget
            end
    in
    (* The budget bounds re-examination under concurrent writers; a
       quiescent list needs exactly one pass. *)
    sweep t.list_head (1 lsl 22);
    Metrics.add t.metrics Metrics.Scrub_repairs !repairs;
    !repairs

  let metrics t = t.metrics
  let stats t = Metrics.snapshot t.metrics
  let reset_stats t = Metrics.reset t.metrics

  (* Word-cost model (DESIGN.md): node = 4 + link box 2 + link record 3;
     binding payload = 4 + state box 2 + Live box 2; table = array +
     per-slot overhead + Some boxes for initialized buckets. *)
  let footprint_words t =
    let rec go acc (node : 'v node option) =
      match node with
      | None -> acc
      | Some n ->
          let words = match n.kind with Sentinel -> 9 | Binding _ -> 9 + 8 in
          go (acc + words) (Atomic.get n.next).succ
    in
    let table = Atomic.get t.table in
    let table_words =
      Slots.fold
        (fun acc slot -> acc + (match slot with None -> 0 | Some _ -> 2))
        (1 + ((1 + Slots.overhead_words_per_slot) * Slots.length table))
        table
    in
    go table_words (Some t.list_head)
end
