(* Bounded cache tier over any CONCURRENT_MAP (DESIGN.md §15).

   The source paper's cache layer accelerates lookups but never bounds
   memory; this tier is the production complement — the "millions of
   users in bounded RAM" scenario.  Design, outside-in:

   - budget: every resident entry carries a word cost (metadata
     overhead + a caller-supplied key/value cost, by default the
     Footprint reachable-words model).  Admission CAS-reserves cost
     against [used] BEFORE the entry becomes resident and evicts until
     the reservation fits, so [used <= budget] holds at every instant
     of every interleaving — the QCheck churn property samples it
     concurrently — and resident cost never exceeds [used] (cost is
     released only after the entry is out of the map).
   - replacement: CLOCK over striped lock-free rings of keys in
     admission order (Ring), one ring per domain slot.  Eviction pops
     the oldest key, starting at the caller's own ring and then
     walking the others round-robin (there is no shared hand); an
     entry whose access bit was set by a read since its last pass
     gets the bit cleared and one re-push (its second chance)
     instead.  A read stores the bit only when it is clear, so a hit
     on a hot entry is a pure read and writes no line that another
     domain reads.  An overwrite keeps the key's ring position.
     Entries without a TTL never read the clock.  CLOCK is the only
     policy: on the served cache-zipf traffic (2 domains, 1 put in 16
     overwriting a live key) it beat FIFO and segmented LRU on hit
     rate and CPU per op (DESIGN.md §15).
   - TTL: an entry's expiry stamp (monotonic clock, injectable for
     tests) is checked only where the tier already touches the entry:
     on read and when the CLOCK scan pops it.  Both reclaim a dead
     entry on sight, so an expired entry is never served; one that
     nobody reads waits for the scan, a space delay within the budget.
   - negative caching: [get_or_load] caches a backing-store miss as a
     [None] payload under its own (short) TTL, so a miss storm on one
     absent key costs one backing-store load, not a stampede.  [get]
     and [get_or_load] return the stored option itself, so a hit
     allocates only what the map's lookup does.

   Rings are advisory (see ring.ml): residency truth lives in the map,
   budget truth in [used].  When every ring runs dry while over
   budget — possible only after ring races orphaned entries — a fold
   fallback picks victims straight from the map, so the budget
   invariant survives ring imperfection. *)

module Metrics = Ct_util.Metrics
module Clock = Ct_util.Clock

type config = {
  budget_words : int;  (* resident-cost ceiling, machine words *)
  stripes : int;  (* ring stripes; <= 0 = one per domain slot *)
  max_entry_frac : float;  (* admission: reject entries above this share *)
}

let default_config ~budget_words =
  { budget_words; stripes = 0; max_entry_frac = 0.25 }

(* Fixed per-entry metadata charge, in words: the entry record, its
   value's option box, the map's leaf + amortized interior share, and the
   entry's ring slot.  Deliberately a round, conservative
   constant — the budget is a cost model, not an allocator. *)
let entry_overhead_words = 24

let word_cost v = Obj.reachable_words (Obj.repr v)

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
    payload : 'v option;  (* None = the backing store has no such key *)
    cost : int;  (* words reserved against the budget *)
    expires_at : int;  (* cache-clock ns; max_int = never *)
    mutable touched : bool;  (* access bit (CLOCK second chance) *)
  }

  type 'v t = {
    cfg : config;
    map : 'v entry M.t;
    used : int Atomic.t;
    rings : key Ring.t array;  (* admission order *)
    smask : int;
    now : unit -> int;
    cost_fn : key -> 'v -> int;
    max_entry_words : int;
    metrics : Metrics.t;
  }

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
    let stripes =
      if cfg.stripes > 0 then Ct_util.Bits.next_power_of_two cfg.stripes
      else Ct_util.Domain_slot.capacity
    in
    (* Ring capacity: ~2x the largest possible resident population
       (budget / minimum entry cost), split across stripes, so CLOCK
       re-pushes rarely displace.  Rings are structure overhead, not
       charged against the budget. *)
    let per_stripe =
      max 64 (2 * cfg.budget_words / entry_overhead_words / stripes)
    in
    {
      cfg;
      map = M.create ();
      used = Atomic.make 0;
      rings = Array.init stripes (fun _ -> Ring.create ~capacity:per_stripe);
      smask = stripes - 1;
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

  let[@inline] stripe_of_domain t = Ct_util.Domain_slot.get () land t.smask

  (* ---------------------------- accounting --------------------------- *)

  let[@inline] release t e = ignore (Atomic.fetch_and_add t.used (-e.cost))

  (* A no-TTL entry never reads the clock. *)
  let[@inline] expired t e = e.expires_at <> max_int && e.expires_at <= t.now ()

  (* Remove [k] for budget pressure.  True iff this call unbound it. *)
  let evict_key t k =
    match M.remove t.map k with
    | Some e ->
        release t e;
        Metrics.incr t.metrics Metrics.Tier_evictions;
        true
    | None -> false

  (* Remove [k] only if it still holds the expired [e]; a racing put
     that refreshed the key must keep its new entry (and its cost). *)
  let drop_expired t k e =
    if M.remove_if t.map k ~expected:e then begin
      release t e;
      Metrics.incr t.metrics Metrics.Tier_expirations;
      true
    end
    else false

  (* ---------------------------- replacement -------------------------- *)

  (* CLOCK: pop-scan the caller's own ring first, then the others
     round-robin, so a domain evicts its own oldest admissions before it
     touches another domain's ring.  A touched entry gets its bit
     cleared and one re-push instead of eviction — except inside the
     last stripe-round of the scan bound, where eviction is forced so
     the scan terminates even if every resident entry is hot.  A popped
     entry past its TTL is reclaimed as an expiration, not an eviction:
     with no reads, this is where it goes. *)
  let evict_one t =
    let n = t.smask + 1 in
    let bound = (4 * n) + 8 in
    let start = stripe_of_domain t in
    let rec go i dry =
      if dry >= n || i >= bound then false
      else
        let r = t.rings.((start + i) land t.smask) in
        match Ring.pop r with
        | None -> go (i + 1) (dry + 1)
        | Some k -> (
            match M.lookup t.map k with
            | None -> go (i + 1) 0  (* stale: key already gone *)
            | Some e ->
                if expired t e then
                  if drop_expired t k e then true else go (i + 1) 0
                else if e.touched && i < bound - n then begin
                  e.touched <- false;
                  Ring.push r k ~on_displace:(fun v -> ignore (evict_key t v));
                  go (i + 1) 0
                end
                else if evict_key t k then true
                else go (i + 1) 0)
    in
    go 0 0

  exception Found_victim

  (* Rings dry but still over budget: ring races orphaned some
     entries.  Pick a victim straight from the map — O(resident), but
     only reachable after a lost race, so amortized noise. *)
  let fallback_evict t =
    let victim = ref None in
    (try
       M.iter
         (fun k _ ->
           victim := Some k;
           raise_notrace Found_victim)
         t.map
     with Found_victim -> ());
    match !victim with Some k -> evict_key t k | None -> false

  (* CAS-reserve [cost] words, evicting while it does not fit.  The
     reservation is what makes the budget a hard invariant: [used]
     grows only through a compare-and-set that proved the new total
     fits, and entries join the map only after their reservation. *)
  let reserve t cost =
    let max_attempts = (t.cfg.budget_words / entry_overhead_words) + 16 in
    let rec go attempts =
      let u = Atomic.get t.used in
      if u + cost <= t.cfg.budget_words then
        Atomic.compare_and_set t.used u (u + cost) || go attempts
      else if attempts <= 0 then false
      else if evict_one t || fallback_evict t then go (attempts - 1)
      else false
    in
    go max_attempts

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
        (match dead with Some e -> ignore (drop_expired t k e) | None -> ());
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

  let put_payload t k payload ~ttl_ns ~value_cost =
    let cost = entry_overhead_words + max 0 value_cost in
    if cost > t.max_entry_words || not (reserve t cost) then begin
      Metrics.incr t.metrics Metrics.Tier_rejections;
      false
    end
    else begin
      let expires_at =
        if ttl_ns <= 0 then max_int
        else
          let e = t.now () + ttl_ns in
          if e < 0 then max_int else e
      in
      let e = { payload; cost; expires_at; touched = false } in
      (match M.add t.map k e with
      | Some prev ->
          (* Overwrite: the old reservation is released and the ring
             position inherited — admission order does not refresh on
             update, matching the Nichecache exemplar. *)
          release t prev
      | None ->
          Ring.push t.rings.(stripe_of_domain t) k
            ~on_displace:(fun v -> ignore (evict_key t v)));
      true
    end

  let put ?(ttl_ns = 0) t k v =
    put_payload t k (Some v) ~ttl_ns ~value_cost:(t.cost_fn k v)

  (* Cache "the backing store has no [k]". *)
  let put_absent t k ~ttl_ns = put_payload t k None ~ttl_ns ~value_cost:0

  let remove t k =
    match M.remove t.map k with
    | Some e ->
        release t e;
        true
    | None -> false

  let get_or_load ?ttl_ns ?(negative_ttl_ns = 1_000_000_000) t k ~load =
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
        match loaded with
        | Some v ->
            ignore (put ?ttl_ns t k v);
            Some v
        | None ->
            ignore (put_absent t k ~ttl_ns:negative_ttl_ns);
            None)

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

  (* Quiescent cross-check: exact accounting and the budget bound. *)
  let validate t =
    let used = Atomic.get t.used in
    if used > t.cfg.budget_words then
      Error
        (Printf.sprintf "used %d words exceeds budget %d" used
           t.cfg.budget_words)
    else if used < 0 then Error (Printf.sprintf "used %d is negative" used)
    else
      let sum = M.fold (fun acc _ e -> acc + e.cost) 0 t.map in
      if sum <> used then
        Error
          (Printf.sprintf "resident cost %d words != reserved %d" sum used)
      else Ok ()
end
