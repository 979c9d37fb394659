(* Bounded cache tier over any CONCURRENT_MAP (DESIGN.md §15).

   The source paper's cache layer accelerates lookups but never bounds
   memory; this tier is the production complement — the "millions of
   users in bounded RAM" scenario.  Design, outside-in:

   - admission: [put] always admits.  A read-through load ([get_or_load]
     returning [Some v]) is admitted only on the key's second miss
     within a window: a doorkeeper bitset (TinyLFU's) remembers the
     window's first misses, and the first miss of a key returns its
     value without touching the map, the slots or [used].  So a key
     read once, which would be evicted before it came back, costs no
     admission, no eviction and no map write.  The window is the
     budget's maximum resident count, W = budget / entry overhead,
     and the bitset holds at least 8 W bits; both follow from the
     budget, nothing is configured.
   - budget: every resident entry carries a word cost (metadata
     overhead + a caller-supplied key/value cost, by default the
     Footprint reachable-words model).  Admission CAS-reserves cost
     against [used] BEFORE the entry becomes resident and evicts until
     the reservation fits, so [used <= budget] holds at every instant
     of every interleaving — the QCheck churn property samples it
     concurrently — and resident cost never exceeds [used] (cost is
     released only after the entry is out of the map).
   - replacement: CLOCK over one array of W entry slots.  Each entry
     records its key and its slot.  A new entry claims a vacant slot
     after its reservation; whoever unbinds an entry from the map
     vacates its slot before releasing its cost, so occupied slots
     never exceed [used / entry_overhead_words] <= W and a claim
     always finds a vacant slot.  An overwrite hands the old entry's
     slot to the new one, so it keeps its position.  Each domain slot
     has a persistent hand that starts in the domain's region of the
     array and sweeps all of it: an entry read since the hand last
     passed gets its access bit cleared, an untouched one is evicted,
     and the admission that needed the room takes the slot it just
     vacated.  Otherwise a new entry takes the first vacant slot from
     the domain's fill cursor, which also starts in its region.  So a
     domain evicts its own admissions first, and a lone domain evicts
     in one CLOCK order over the whole array.  A read stores the bit
     only when it is clear, so a hit on a hot entry is a pure read and
     writes no line that another domain reads.  Entries without a TTL
     never read the clock.  CLOCK is the only policy: on the served
     cache-zipf traffic (2 domains, 1 put in 16 overwriting a live
     key) it beat FIFO and segmented LRU on hit rate and CPU per op
     (DESIGN.md §15).
   - TTL: an entry's expiry stamp (monotonic clock, injectable for
     tests) is checked only where the tier already touches the entry:
     on read and when a CLOCK hand passes it.  Both reclaim a dead
     entry on sight, so an expired entry is never served; one that
     nobody reads waits for a hand, a space delay within the budget.
   - negative caching: [get_or_load] caches a backing-store miss as a
     [None] payload under its own (short) TTL on its first miss, so a
     miss storm on one absent key costs one backing-store load, not a
     stampede.  A read-through admission, [Some] or [None], only fills
     an absent key, so a [put] that lands while the load runs keeps
     its newer value.  [get]
     and [get_or_load] return the stored option itself, so a hit
     allocates only what the map's lookup does. *)

module Metrics = Ct_util.Metrics
module Clock = Ct_util.Clock
module Slots = Ct_util.Slots
module Stripe = Ct_util.Stripe
module Yp = Ct_util.Yieldpoint

type config = {
  budget_words : int;  (* resident-cost ceiling, machine words *)
  max_entry_frac : float;  (* admission: reject entries above this share *)
}

let default_config ~budget_words = { budget_words; max_entry_frac = 0.25 }

(* Fixed per-entry metadata charge, in words: the entry record, its
   value's option box, the map's leaf + amortized interior share, and the
   entry's slot.  Deliberately a round, conservative
   constant — the budget is a cost model, not an allocator. *)
let entry_overhead_words = 24

let word_cost v = Obj.reachable_words (Obj.repr v)

(* The slot CASes, for the chaos layer and the schedule explorer. *)
let claim_site = Yp.register "cache.slot.claim"
let vacate_site = Yp.register "cache.slot.vacate"
let inherit_site = Yp.register "cache.slot.inherit"

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

module Make (M : Ct_util.Map_intf.CONCURRENT_MAP) = struct
  type key = M.key

  type 'v entry = {
    key : key;
    payload : 'v option;  (* None = the backing store has no such key *)
    cost : int;  (* words reserved against the budget *)
    expires_at : int;  (* cache-clock ns; max_int = never *)
    slot : int;  (* the index this entry occupies in [slots] *)
    mutable touched : bool;  (* access bit (CLOCK second chance) *)
  }

  type 'v t = {
    cfg : config;
    map : 'v entry M.t;
    used : int Atomic.t;
    slots : 'v entry Slots.t;  (* W slots, each [vacant] or one entry *)
    vacant : 'v entry;  (* the empty-slot sentinel, never bound *)
    hands : Stripe.t;  (* per domain: col 0 CLOCK hand, col 1 fill cursor *)
    door : int array;  (* doorkeeper: first-miss count + bitset, see below *)
    door_mask : int;  (* bitset size - 1 *)
    window : int;  (* W: slot count, and first misses per doorkeeper window *)
    now : unit -> int;
    cost_fn : key -> 'v -> int;
    max_entry_words : int;
    metrics : Metrics.t;
  }

  (* The doorkeeper is one int array that only misses touch: word
     [door_pad] counts the window's first misses, the bitset follows
     it at 32 bits a word, and [door_pad] words at either end keep the
     heap blocks next to it, which hits may read, off its lines. *)
  let door_pad = 16

  let create ?config ?now ?cost () =
    let cfg =
      match config with Some c -> c | None -> default_config ~budget_words:(1 lsl 20)
    in
    if cfg.budget_words < entry_overhead_words then
      invalid_arg "Cache.create: budget below one entry's overhead";
    if cfg.max_entry_frac <= 0.0 || cfg.max_entry_frac > 1.0 then
      invalid_arg "Cache.create: max_entry_frac outside (0, 1]";
    let now = match now with Some f -> f | None -> Clock.monotonic_ns in
    let cost_fn =
      match cost with
      | Some f -> f
      | None -> fun k v -> word_cost k + word_cost v
    in
    let window = cfg.budget_words / entry_overhead_words in
    let door_bits = Ct_util.Bits.next_power_of_two (8 * window) in
    (* The sentinel's key is never read: no hand, claim or check looks
       past [== vacant]. *)
    let vacant =
      { key = Obj.magic 0; payload = None; cost = 0; expires_at = max_int; slot = -1;
        touched = false }
    in
    (* Row [r] of the hands (domain slot [r]; the last is the overflow
       row) starts its hand and its fill cursor at region [r] of the
       array. *)
    let hands = Stripe.create ~width:2 () in
    let rows = Stripe.stripes hands + 1 in
    for r = 0 to rows - 1 do
      let h = Stripe.row hands r and start = r * window / rows in
      Stripe.add_at hands h 0 start;
      Stripe.add_at hands h 1 start
    done;
    {
      cfg;
      map = M.create ();
      used = Atomic.make 0;
      slots = Slots.make window vacant;
      vacant;
      hands;
      door = Array.make ((2 * door_pad) + 1 + ((door_bits + 31) / 32)) 0;
      door_mask = door_bits - 1;
      window;
      now;
      cost_fn;
      max_entry_words =
        max entry_overhead_words
          (int_of_float (cfg.max_entry_frac *. float_of_int cfg.budget_words));
      metrics = Metrics.create ~family:"cache-tier";
    }

  let config t = t.cfg
  let metrics t = t.metrics
  let budget_words t = t.cfg.budget_words
  let used_words t = Atomic.get t.used
  let resident t = M.size t.map

  (* ---------------------------- accounting --------------------------- *)

  let[@inline] release t words = ignore (Atomic.fetch_and_add t.used (-words))

  (* A no-TTL entry never reads the clock. *)
  let[@inline] expired t e = e.expires_at <> max_int && e.expires_at <= t.now ()

  let[@inline] vacate t e =
    Yp.here Yp.Before vacate_site;
    Slots.cas t.slots e.slot e t.vacant && (Yp.here Yp.After vacate_site; true)

  (* Called by whoever unbound [e] from the map: vacate its slot, then
     release its cost.  The vacate fails only when an overwrite of [e]
     took the slot first; that overwrite's [replace_if] then fails too,
     and it releases [e]'s cost once it has vacated its own entry. *)
  let vacate_release t e = if vacate t e then release t e.cost

  (* Unbind [e] if it is still bound.  True iff this call unbound it. *)
  let drop t e = M.remove_if t.map e.key ~expected:e && (vacate_release t e; true)

  (* ---------------------------- replacement -------------------------- *)

  (* Occupied slots a scan examines per eviction; the last of them is
     evicted even if touched, so a put into an all-hot cache does O(1)
     work. *)
  let scan_bound = 12

  (* CLOCK: advance the caller's hand until it evicts an entry, and
     return that entry's slot; -1 when two laps unbound nothing.  A
     touched entry gets its bit cleared (its second chance) and is
     evicted when a hand next finds it untouched.  An entry past its
     TTL is reclaimed as an expiration, not an eviction: with no reads,
     this is where it goes.  An entry this scan fails to unbind (a
     racing overwrite or remove got it first) keeps its slot. *)
  let evict_one t =
    let h = Stripe.cursor t.hands in
    let rec go steps seen =
      if steps >= 2 * t.window then -1
      else
        let i = Stripe.fetch_add_at t.hands h 0 1 mod t.window in
        let e = Slots.get t.slots i in
        if e == t.vacant then go (steps + 1) seen
        else if expired t e then
          if drop t e then begin
            Metrics.incr t.metrics Metrics.Tier_expirations;
            i
          end
          else go (steps + 1) (seen + 1)
        else if e.touched && seen < scan_bound - 1 then begin
          e.touched <- false;
          go (steps + 1) (seen + 1)
        end
        else if drop t e then begin
          Metrics.incr t.metrics Metrics.Tier_evictions;
          i
        end
        else go (steps + 1) (seen + 1)
    in
    go 0 0

  let refused = -2

  (* CAS-reserve [cost] words, evicting while it does not fit.  The
     reservation is what makes the budget a hard invariant: [used]
     grows only through a compare-and-set that proved the new total
     fits, and entries join the map only after their reservation.
     Returns the slot the last eviction vacated (-1 if none), or
     [refused]. *)
  let reserve t cost =
    let rec go attempts hint =
      let u = Atomic.get t.used in
      if u + cost <= t.cfg.budget_words then
        if Atomic.compare_and_set t.used u (u + cost) then hint else go attempts hint
      else if attempts <= 0 then refused
      else
        let i = evict_one t in
        if i < 0 then refused else go (attempts - 1) i
    in
    go (t.window + 16) (-1)

  (* First vacant slot from the caller's fill cursor on, which then
     moves past it.  A vacant slot exists whenever the caller holds a
     reservation; a lap can still miss it while other domains claim and
     vacate, so the search goes round until it finds one. *)
  let find_vacant t =
    let h = Stripe.cursor t.hands in
    let c = Stripe.get_at t.hands h 1 in
    let rec go j =
      let i = (c + j) mod t.window in
      if Slots.get t.slots i == t.vacant then begin
        Stripe.add_at t.hands h 1 (j + 1);
        i
      end
      else begin
        if (j + 1) mod t.window = 0 then begin
          Domain.cpu_relax ();
          Yp.here Yp.Before claim_site
        end;
        go (j + 1)
      end
    in
    go 0

  (* Put a new entry into a vacant slot: [hint], the slot the caller's
     own eviction just vacated, if it is still vacant, else
     [find_vacant]'s. *)
  let rec claim t hint k payload cost expires_at =
    let i = if hint >= 0 && Slots.get t.slots hint == t.vacant then hint else find_vacant t in
    let e = { key = k; payload; cost; expires_at; slot = i; touched = false } in
    Yp.here Yp.Before claim_site;
    if Slots.cas t.slots i t.vacant e then begin
      Yp.here Yp.After claim_site;
      e
    end
    else claim t (-1) k payload cost expires_at

  (* ----------------------------- operations -------------------------- *)

  (* The one read path.  A live entry comes back as the very option
     [M.lookup] returned, so callers can hand out its stored payload
     without allocating; an expired one is dropped on sight and reads
     as a miss. *)
  let read_untraced t k =
    match M.lookup t.map k with
    | Some e as live when not (expired t e) ->
        if not e.touched then e.touched <- true;
        Metrics.incr t.metrics
          (match e.payload with
          | Some _ -> Metrics.Tier_hits
          | None -> Metrics.Tier_negative_hits);
        live
    | dead ->
        (match dead with
        | Some e -> if drop t e then Metrics.incr t.metrics Metrics.Tier_expirations
        | None -> ());
        Metrics.incr t.metrics Metrics.Tier_misses;
        None

  (* A request the server sampled for tracing (its context is ambient
     on this domain) gets its tier lookup recorded as a span; for
     everyone else the check is a domain-local read and a branch —
     written out rather than via [timed_ambient] so the common path
     does not build a closure. *)
  let read t k =
    let ctx = Obs.Trace.current () in
    if Obs.Trace.sampled ctx then begin
      let t0 = Clock.monotonic_ns () in
      let r = read_untraced t k in
      Obs.Trace.record_sink ctx Obs.Trace.Cache_lookup ~start_ns:t0
        ~dur_ns:(Clock.monotonic_ns () - t0)
        ~a:(match r with Some { payload = Some _; _ } -> 1 | Some _ -> 2 | None -> 0)
        ~b:0;
      r
    end
    else read_untraced t k

  let get t k = match read t k with Some e -> e.payload | None -> None

  let reject t =
    Metrics.incr t.metrics Metrics.Tier_rejections;
    false

  let expiry t ttl_ns =
    if ttl_ns <= 0 then max_int
    else
      let e = t.now () + ttl_ns in
      if e < 0 then max_int else e

  (* Reserve, claim a slot, then bind.  A [put] overwrites ([M.add])
     and unbinds what it displaced; a read-through load only fills an
     absent key ([M.put_if_absent]): a [put] that landed while the load
     ran is newer, so the load gives its slot and reservation back and
     returns [false]. *)
  let admit t k payload ~ttl_ns ~value_cost ~overwrite =
    let cost = entry_overhead_words + max 0 value_cost in
    let hint = if cost > t.max_entry_words then refused else reserve t cost in
    if hint = refused then reject t
    else
      let e = claim t hint k payload cost (expiry t ttl_ns) in
      if overwrite then begin
        (match M.add t.map k e with Some prev -> vacate_release t prev | None -> ());
        true
      end
      else
        match M.put_if_absent t.map k e with
        | None -> true
        | Some _ ->
            vacate_release t e;
            false

  (* A put of a resident key reserves only the growth of its cost and
     hands the old entry's slot to the new one before swapping the
     binding, so an overwrite at a full budget evicts nothing and keeps
     its position.  If the scan or a remove unbinds the old entry first
     (its slot CAS or [replace_if] fails), the put is a fresh
     admission. *)
  let put ?(ttl_ns = 0) t k v =
    let value_cost = t.cost_fn k v in
    match M.find t.map k with
    | exception Not_found -> admit t k (Some v) ~ttl_ns ~value_cost ~overwrite:true
    | prev ->
        let cost = entry_overhead_words + max 0 value_cost in
        let extra = max 0 (cost - prev.cost) in
        if cost > t.max_entry_words || reserve t extra = refused then reject t
        else
          let payload = Some v and expires_at = expiry t ttl_ns in
          let e = { key = k; payload; cost; expires_at; slot = prev.slot; touched = false } in
          Yp.here Yp.Before inherit_site;
          if Slots.cas t.slots prev.slot prev e then begin
            Yp.here Yp.After inherit_site;
            if M.replace_if t.map k ~expected:prev e then begin
              release t (max 0 (prev.cost - cost));
              true
            end
            else begin
              (* [prev] was unbound after [e] took its slot, so its
                 unbinder's vacate failed and left [prev]'s cost to
                 us: give back both reservations. *)
              ignore (vacate t e);
              release t (prev.cost + extra);
              admit t k payload ~ttl_ns ~value_cost ~overwrite:true
            end
          end
          else begin
            release t extra;
            admit t k payload ~ttl_ns ~value_cost ~overwrite:true
          end

  (* Doorkeeper: true iff [k]'s bit is set, i.e. [k] missed before in
     this window.  Otherwise this is [k]'s first miss: set its bit and
     count it, clearing the bitset first once the window has seen
     [window] first misses.  Plain racy reads and writes, on misses
     only: a lost bit or count costs one extra miss or a longer
     window, never a wrong answer. *)
  let missed_before t k =
    let d = t.door in
    let i = Ct_util.Hashing.mix (Hashtbl.hash k) land t.door_mask in
    let w = door_pad + 1 + (i lsr 5) and bit = 1 lsl (i land 31) in
    if Array.unsafe_get d w land bit <> 0 then true
    else begin
      let n = Array.unsafe_get d door_pad in
      if n >= t.window then begin
        Array.fill d (door_pad + 1) (Array.length d - (2 * door_pad) - 1) 0;
        Array.unsafe_set d door_pad 1
      end
      else Array.unsafe_set d door_pad (n + 1);
      Array.unsafe_set d w (Array.unsafe_get d w lor bit);
      false
    end

  let remove t k =
    match M.remove t.map k with
    | Some e ->
        vacate_release t e;
        true
    | None -> false

  let get_or_load ?(ttl_ns = 0) ?(negative_ttl_ns = 1_000_000_000) t k ~load =
    match read t k with
    | Some e -> e.payload
    | None -> (
        (* The backing-store load is the expensive leg of a tier miss;
           a sampled request gets it as its own span so a tail request
           shows load time separately from lookup time. *)
        let loaded =
          let ctx = Obs.Trace.current () in
          if Obs.Trace.sampled ctx then begin
            let t0 = Clock.monotonic_ns () in
            let r = load k in
            Obs.Trace.record_sink ctx Obs.Trace.Cache_load ~start_ns:t0
              ~dur_ns:(Clock.monotonic_ns () - t0)
              ~a:(match r with Some _ -> 1 | None -> 0)
              ~b:0;
            r
          end
          else load k
        in
        (match loaded with
        | Some v ->
            if missed_before t k then
              ignore
                (admit t k loaded ~ttl_ns ~value_cost:(t.cost_fn k v) ~overwrite:false)
        | None ->
            ignore
              (admit t k None ~ttl_ns:negative_ttl_ns ~value_cost:0 ~overwrite:false));
        loaded)

  (* ------------------------------ reports ----------------------------- *)

  let stats t =
    let g c = Metrics.get t.metrics c in
    {
      hits = g Metrics.Tier_hits;
      misses = g Metrics.Tier_misses;
      negative_hits = g Metrics.Tier_negative_hits;
      evictions = g Metrics.Tier_evictions;
      expirations = g Metrics.Tier_expirations;
      rejections = g Metrics.Tier_rejections;
      used_words = Atomic.get t.used;
      budget_words_ = t.cfg.budget_words;
      resident = M.size t.map;
    }

  exception Invalid of string

  (* Quiescent cross-check: exact accounting, the budget bound, and the
     slot invariant — every resident entry sits in the slot it records,
     and every occupied slot holds a resident entry (so occupied slots
     equal [resident], and are at most W). *)
  let validate t =
    let fail fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt in
    try
      let used = Atomic.get t.used in
      if used > t.cfg.budget_words then
        fail "used %d words exceeds budget %d" used t.cfg.budget_words;
      if used < 0 then fail "used %d is negative" used;
      let sum, resident =
        M.fold
          (fun (sum, n) _ e ->
            if Slots.get t.slots e.slot != e then
              fail "a resident entry is not in its slot %d" e.slot;
            (sum + e.cost, n + 1))
          (0, 0) t.map
      in
      if sum <> used then fail "resident cost %d words != reserved %d" sum used;
      let occupied = ref 0 in
      for i = 0 to t.window - 1 do
        let e = Slots.get t.slots i in
        if e != t.vacant then begin
          incr occupied;
          match M.find t.map e.key with
          | bound when bound == e -> ()
          | _ | (exception Not_found) -> fail "slot %d holds an unbound entry" i
        end
      done;
      if !occupied <> resident then
        fail "%d occupied slots != %d resident entries" !occupied resident;
      Ok ()
    with Invalid m -> Error m
end
