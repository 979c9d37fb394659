(* Bounded cache tier (DESIGN.md §15): budget-never-exceeded under
   sequential and concurrent churn, deterministic TTL expiry via an
   injected clock (reclaimed by the read path and by the eviction scan,
   with a refresh that races either one keeping its new entry and its
   slot), CLOCK eviction order (second chance, overwrite keeping its
   slot, the forced-eviction bound when all are hot, each domain
   evicting its own admissions first, a lone domain evicting in one
   CLOCK order over the whole array and filling the budget), an
   overwrite at a full budget evicting nothing, hits that allocate no
   more than a bare map lookup, read-through admission on a key's
   second miss (scan resistance, the doorkeeper window, a racing put
   winning), negative caching as stampede protection, and admission
   rejection of oversized entries.  [check_ok] runs [validate], which
   checks the slot invariant as well as the accounting. *)

module M = Cachetrie.Make (Ct_util.Hashing.Int_key)
module C = Cache.Make (M)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ov = Cache.entry_overhead_words

(* Deterministic caches: zero-cost values (every entry costs exactly
   [ov], so the [entries] slots fill the budget), and an injected
   counter clock.  Driven from one domain, whose hand and fill cursor
   start at the same slot, admission order is slot order. *)
let make ?(entries = 3) ?clk () =
  let cfg =
    { (Cache.default_config ~budget_words:(entries * ov)) with Cache.max_entry_frac = 1.0 }
  in
  let now =
    match clk with Some c -> fun () -> Atomic.get c | None -> fun () -> 0
  in
  C.create ~config:cfg ~now ~cost:(fun _ _ -> 0) ()

let check_ok what t =
  match C.validate t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: validate: %s" what e

(* ----------------------------- admission --------------------------- *)

let test_budget_and_accounting () =
  let t = make ~entries:4 () in
  check_int "empty uses nothing" 0 (C.used_words t);
  for k = 1 to 3 do
    check_bool "admitted" true (C.put t k (k * 10))
  done;
  check_int "three resident reservations" (3 * ov) (C.used_words t);
  check_int "resident" 3 (C.resident t);
  check_ok "loaded cache" t;
  check_bool "overwrite admitted" true (C.put t 2 222);
  check_int "overwrite releases the old reservation" (3 * ov) (C.used_words t);
  check_bool "overwritten value visible" true (C.get t 2 = Some 222);
  check_bool "remove" true (C.remove t 2);
  check_int "remove releases" (2 * ov) (C.used_words t);
  check_bool "remove missing" false (C.remove t 2);
  check_ok "after churn" t

let test_oversized_rejected () =
  let cfg = { (Cache.default_config ~budget_words:(100 * ov)) with Cache.max_entry_frac = 0.1 } in
  let t = C.create ~config:cfg ~cost:(fun _ v -> v) () in
  check_bool "whale refused" false (C.put t 1 10_000);
  check_bool "nothing resident" true (C.resident t = 0 && C.used_words t = 0);
  check_bool "modest entry still admitted" true (C.put t 2 10);
  check_int "one rejection counted" 1 (C.stats t).Cache.rejections;
  check_ok "after rejection" t

let test_eviction_clock_second_chance () =
  let t = make ~entries:3 () in
  List.iter (fun k -> ignore (C.put t k k)) [ 1; 2; 3 ];
  check_bool "touch 1" true (C.get t 1 = Some 1);
  check_bool "admit 4" true (C.put t 4 4);
  (* CLOCK: 1 was touched, so it gets a second chance; untouched 2 is
     the victim. *)
  check_bool "touched 1 survives" true (C.get t 1 = Some 1);
  check_bool "untouched 2 evicted" true (C.get t 2 = None);
  check_bool "3 survives" true (C.get t 3 = Some 3);
  check_ok "clock" t;
  (* An overwrite keeps the key's slot and takes no second one.  Below
     capacity, so the overwrite's reservation evicts nothing; no
     reads, so no access bit is set. *)
  let t = make ~entries:3 () in
  List.iter (fun k -> ignore (C.put t k k)) [ 1; 2 ];
  check_bool "overwrite admitted" true (C.put t 1 11);
  check_bool "admit 3" true (C.put t 3 3);
  check_bool "admit 4 evicts" true (C.put t 4 4);
  check_int "exactly one eviction" 1 (C.stats t).Cache.evictions;
  check_int "still within budget" (3 * ov) (C.used_words t);
  check_bool "overwritten 1 kept the oldest slot" true (C.get t 1 = None);
  (* CLOCK order now 2, 3, 4 — with a second slot for 1 it would be
     2, 1, 3, 4, and after re-admitting 1 the next put would evict 1
     through that stale slot instead of 3. *)
  check_bool "re-admit 1" true (C.put t 1 1);
  check_bool "admit 5" true (C.put t 5 5);
  check_bool "2 then 3 evicted" true (C.get t 2 = None && C.get t 3 = None);
  check_bool "no second ring slot for 1" true (C.get t 1 = Some 1);
  check_bool "4 and 5 resident" true
    (C.get t 4 = Some 4 && C.get t 5 = Some 5);
  check_ok "clock overwrite" t

(* Every resident entry hot: the scan clears access bits until the
   last of its bound (12 occupied slots per eviction), then evicts the
   entry it holds — so a put still evicts exactly one entry and keeps
   the budget. *)
let test_eviction_clock_all_touched () =
  let n = 16 in
  let t = make ~entries:n () in
  for k = 1 to n do
    ignore (C.put t k k)
  done;
  for k = 1 to n do
    check_bool "touch" true (C.get t k = Some k)
  done;
  check_bool "admit into an all-hot cache" true (C.put t 0 0);
  check_int "exactly one eviction" 1 (C.stats t).Cache.evictions;
  check_int "resident unchanged" n (C.resident t);
  check_int "budget kept" (n * ov) (C.used_words t);
  check_ok "all touched" t;
  check_bool "forced victim is the 12th in ring order" true (C.get t 12 = None);
  check_bool "the rest survive" true
    (List.for_all
       (fun k -> k = 12 || C.get t k = Some k)
       (List.init (n + 1) Fun.id))

(* Each domain's hand and fill cursor start in its own region of the
   slot array; with W = 4 (domain slots + 1) every region is distinct.
   The main domain admits key 0, then a spawned domain fills the rest
   of the array and admits one key more: its hand starts at its own
   first admission, key 1, so that is the victim and key 0 stays (a
   single hand starting at slot 0 would evict key 0).  The main
   domain's next admission evicts its own key 0. *)
let test_eviction_own_region_first () =
  let w = 4 * (Ct_util.Domain_slot.capacity + 1) in
  let t = make ~entries:w () in
  check_bool "admit main's key" true (C.put t 0 0);
  Domain.join
    (Domain.spawn (fun () ->
         for k = 1 to w do
           ignore (C.put t k k)
         done));
  check_int "the spawned domain's last put evicted one key" 1 (C.stats t).Cache.evictions;
  check_bool "the spawned domain's own first key was the victim" true (C.get t 1 = None);
  check_bool "admit from the main domain" true (C.put t (w + 1) 0);
  check_int "one more eviction" 2 (C.stats t).Cache.evictions;
  check_bool "main's own key was its victim" true (C.get t 0 = None);
  check_bool "the spawned domain's other keys stay" true
    (List.for_all (fun k -> C.get t k = Some k) (List.init (w - 1) (fun i -> i + 2)));
  check_ok "own region first" t

(* One domain fills the budget to within one entry and holds as many
   entries as W allows, whichever domain slot (and so region) it
   holds. *)
let test_one_domain_fills_budget () =
  let budget = 1 lsl 14 in
  let fill () =
    let cfg = { (Cache.default_config ~budget_words:budget) with Cache.max_entry_frac = 1.0 } in
    let t = C.create ~config:cfg ~cost:(fun _ _ -> 0) () in
    for k = 1 to 2 * budget / ov do
      ignore (C.put t k k)
    done;
    check_bool "budget filled to within one entry" true (C.used_words t > budget - ov);
    check_int "W resident" (budget / ov) (C.resident t);
    check_ok "filled" t
  in
  fill ();
  Domain.join (Domain.spawn fill)

(* A lone domain admits past its own region into every slot, then keeps
   admitting: each put evicts exactly the oldest untouched key, across
   the whole array.  A get of an absent key sets no access bit, so
   checking the victims does not reorder them. *)
let test_lone_domain_evicts_in_clock_order () =
  let w = 256 in
  let t = make ~entries:w () in
  for k = 1 to w do
    ignore (C.put t k k)
  done;
  for j = 1 to w do
    check_bool "admit" true (C.put t (w + j) 0);
    if (C.stats t).Cache.evictions <> j || C.get t j <> None then
      Alcotest.failf "put %d: %d evictions, key %d %s" (w + j) (C.stats t).Cache.evictions j
        (if C.get t j = None then "evicted" else "still resident")
  done;
  check_int "the younger keys all resident" w (C.resident t);
  check_ok "clock order" t

(* An overwrite of a resident key reserves only the growth of its cost:
   at a full budget, equal-cost overwrites of every key evict nothing.
   Entries cost 2 [ov] here, so half the slots stay vacant and an
   overwrite that leaked its old slot would show in [validate]. *)
let test_overwrite_at_full_budget_evicts_nothing () =
  let n = 16 in
  let cfg = { (Cache.default_config ~budget_words:(2 * n * ov)) with Cache.max_entry_frac = 1.0 } in
  let t = C.create ~config:cfg ~now:(fun () -> 0) ~cost:(fun _ _ -> ov) () in
  for k = 1 to n do
    ignore (C.put t k k)
  done;
  check_int "budget full" (2 * n * ov) (C.used_words t);
  for k = 1 to n do
    check_bool "overwrite admitted" true (C.put t k (k * 10))
  done;
  check_int "no eviction" 0 (C.stats t).Cache.evictions;
  check_int "resident unchanged" n (C.resident t);
  check_bool "every overwrite visible" true
    (List.for_all (fun k -> C.get t k = Some (k * 10)) (List.init n (fun i -> i + 1)));
  check_ok "after overwrites" t

(* A hit hands out the option the tier stored: [get] and [get_or_load]
   allocate no more per hit than a bare map [lookup] does. *)
let test_hit_allocates_nothing () =
  let words f =
    let w0 = Gc.minor_words () in
    for _ = 1 to 10_000 do
      f ()
    done;
    Gc.minor_words () -. w0
  in
  let bare = M.create () in
  M.insert bare 5 10;
  let t = make () in
  ignore (C.put t 5 10);
  let load _ = Some 0 in
  let lookups = words (fun () -> ignore (M.lookup bare 5)) in
  let gets = words (fun () -> ignore (C.get t 5)) in
  let loads = words (fun () -> ignore (C.get_or_load t 5 ~load)) in
  if gets > lookups then
    Alcotest.failf "get: %.0f words over 10k hits > %.0f for bare lookups" gets lookups;
  if loads > lookups then
    Alcotest.failf "get_or_load: %.0f words over 10k hits > %.0f for bare lookups"
      loads lookups;
  check_int "every call hit" 20_000 (C.stats t).Cache.hits

(* -------------------------------- TTL ------------------------------ *)

let test_ttl_deterministic () =
  let clk = Atomic.make 0 in
  let t = make ~entries:8 ~clk () in
  check_bool "put with ttl" true (C.put ~ttl_ns:100 t 1 1);
  check_bool "put forever" true (C.put t 2 2);
  check_bool "live before deadline" true (C.get t 1 = Some 1);
  Atomic.set clk 100;
  (* expires_at = 100 <= now: dead exactly at the deadline, and the
     read path both misses and reclaims. *)
  check_bool "dead at deadline" true (C.get t 1 = None);
  check_int "read path reclaimed it" 1 (C.resident t);
  check_int "reservation released" ov (C.used_words t);
  check_bool "no-ttl entry unaffected" true (C.get t 2 = Some 2);
  check_int "one expiration counted" 1 (C.stats t).Cache.expirations;
  check_ok "after expiry" t

(* Nobody reads the expired entries: admissions that need room pop
   them in the CLOCK scan, which reclaims them as expirations. *)
let test_ttl_reclaimed_by_eviction_scan () =
  let clk = Atomic.make 0 in
  let t = make ~entries:4 ~clk () in
  for k = 1 to 4 do
    ignore (C.put ~ttl_ns:50 t k k)
  done;
  Atomic.set clk 200;
  for k = 5 to 8 do
    check_bool "admitted over expired entries" true (C.put t k k)
  done;
  let s = C.stats t in
  check_int "no read touched the cache" 0 (s.Cache.hits + s.Cache.misses);
  check_int "four expirations" 4 s.Cache.expirations;
  check_int "no evictions" 0 s.Cache.evictions;
  check_int "budget full, not over" (4 * ov) (C.used_words t);
  check_ok "after scan" t;
  check_bool "expired keys gone" true
    (List.for_all (fun k -> C.get t k = None) [ 1; 2; 3; 4 ]);
  check_bool "new keys resident" true
    (List.for_all (fun k -> C.get t k = Some k) [ 5; 6; 7; 8 ])

(* A refresh that lands after a reclaimer found the old entry dead, but
   before its [remove_if], keeps its new entry.  The injected clock is
   the hook: the reclaimer reads it between finding the entry and the
   remove, and the first clock read after [refresh_race] returns runs
   the refresh there.  A budget of three entries: key 1 (TTL 50) and
   key 2 are resident, the clock reads 60, and key 3 costs one entry
   more, so admitting it needs the scan while leaving room for key 1's
   refresh. *)
let refresh_race () =
  let clk = Atomic.make 0 in
  let hook = ref ignore in
  let now () =
    let f = !hook in
    hook := ignore;
    f ();
    Atomic.get clk
  in
  let cfg = { (Cache.default_config ~budget_words:(3 * ov)) with Cache.max_entry_frac = 1.0 } in
  let t = C.create ~config:cfg ~now ~cost:(fun k _ -> if k = 3 then ov else 0) () in
  ignore (C.put ~ttl_ns:50 t 1 1);
  ignore (C.put t 2 2);
  Atomic.set clk 60;
  hook := (fun () -> ignore (C.put ~ttl_ns:1_000 t 1 11));
  t

let test_ttl_refresh_wins_race () =
  (* Read path: the read misses (it ran before the refresh), and the
     refreshed entry stays. *)
  let t = refresh_race () in
  check_bool "racing read misses" true (C.get t 1 = None);
  check_bool "refreshed entry survives the read" true (C.get t 1 = Some 11);
  check_int "no expiration" 0 (C.stats t).Cache.expirations;
  check_ok "after racing read" t;
  (* Eviction scan: it reaches key 1, the refresh lands, and the scan
     moves on to evict key 2 instead. *)
  let t = refresh_race () in
  check_bool "admit 3" true (C.put t 3 3);
  check_bool "refreshed entry survives the scan" true (C.get t 1 = Some 11);
  check_bool "2 evicted instead" true (C.get t 2 = None);
  let s = C.stats t in
  check_bool "one eviction, no expiration" true
    (s.Cache.evictions = 1 && s.Cache.expirations = 0);
  check_ok "after racing scan" t

(* The refresh that beat the scan was an overwrite, which took key 1's
   slot, so key 1 is evicted in its turn and outlives no younger key. *)
let test_ttl_refreshed_key_stays_evictable () =
  let t = refresh_race () in
  check_bool "admit 3 past the racing refresh" true (C.put t 3 3);
  for k = 4 to 9 do
    check_bool "admit" true (C.put t k k)
  done;
  check_bool "refreshed 1 evicted in its turn" true (C.get t 1 = None);
  check_bool "youngest keys resident" true (C.get t 8 = Some 8 && C.get t 9 = Some 9);
  check_ok "after admissions" t

(* -------------------------- negative caching ----------------------- *)

let test_negative_caching () =
  let clk = Atomic.make 0 in
  let t = make ~entries:8 ~clk () in
  let loads = ref 0 in
  let load _ =
    incr loads;
    None
  in
  check_bool "first lookup loads and misses" true
    (C.get_or_load t 404 ~load = None);
  check_int "one load" 1 !loads;
  for _ = 1 to 50 do
    check_bool "served from the Absent entry" true
      (C.get_or_load t 404 ~load = None)
  done;
  check_int "negative entry absorbed the storm" 1 !loads;
  check_int "negative hits counted" 50 (C.stats t).Cache.negative_hits;
  (* After the negative TTL the backing store is consulted again. *)
  Atomic.set clk 2_000_000_000;
  check_bool "still none" true (C.get_or_load t 404 ~load = None);
  check_int "reloaded after negative ttl" 2 !loads;
  check_ok "negative" t

let test_negative_stampede_concurrent () =
  let t = make ~entries:8 () in
  let loads = Atomic.make 0 in
  let load _ =
    Atomic.incr loads;
    None
  in
  (* Warm the Absent entry, then storm it from several domains: the
     cached negative answers everyone without touching the backer. *)
  ignore (C.get_or_load t 7 ~load);
  let doms =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 5_000 do
              assert (C.get_or_load t 7 ~load = None)
            done))
  in
  Array.iter Domain.join doms;
  check_int "storm cost one load total" 1 (Atomic.get loads)

(* A loaded value is admitted on its key's second miss: the first miss
   only records the key in the doorkeeper. *)
let test_get_or_load_positive () =
  let t = make ~entries:8 () in
  let loads = ref 0 in
  let load k =
    incr loads;
    Some (k * 2)
  in
  check_bool "first miss loads" true (C.get_or_load t 5 ~load = Some 10);
  check_int "first miss admits nothing" 0 (C.resident t);
  check_int "first miss reserves nothing" 0 (C.used_words t);
  check_bool "second miss loads" true (C.get_or_load t 5 ~load = Some 10);
  check_int "second miss admits" 1 (C.resident t);
  check_bool "third call hits" true (C.get_or_load t 5 ~load = Some 10);
  check_int "loaded on misses 1 and 2" 2 !loads;
  let s = C.stats t in
  check_bool "two misses, one hit" true (s.Cache.misses = 2 && s.Cache.hits = 1);
  check_ok "read-through" t

(* Hot keys are admitted, then a one-pass scan of 10 W distinct keys (W
   = the budget's resident count) runs through [get_or_load].  Each
   scan key misses once, so the doorkeeper keeps it out: no eviction,
   and every hot key stays.  A bitset false positive admits a scan key
   on its first miss; with at least 8 W bits that is under 1 in 8. *)
let test_scan_resistance () =
  let w = 1024 and hot = 128 in
  let t = make ~entries:w () in
  let load k = Some k in
  for _ = 1 to 2 do
    for k = 0 to hot - 1 do
      ignore (C.get_or_load t k ~load)
    done
  done;
  check_int "hot keys admitted" hot (C.resident t);
  let scan = 10 * w in
  for k = 1_000_000 to 1_000_000 + scan - 1 do
    ignore (C.get_or_load t k ~load)
  done;
  check_int "the scan evicted nothing" 0 (C.stats t).Cache.evictions;
  check_bool "every hot key resident" true
    (List.for_all (fun k -> C.get t k = Some k) (List.init hot Fun.id));
  let admitted = C.resident t - hot in
  if admitted > scan / 8 then
    Alcotest.failf "scan admitted %d of %d keys on their first miss" admitted scan;
  check_ok "after the scan" t

(* The doorkeeper forgets after W first misses (W = the budget's
   resident count).  A key whose first miss is followed by W - 1 other
   first misses is admitted on its second miss; after W of them the
   bitset has been cleared, and it needs two misses again.  A key
   counts as a first miss iff [get_or_load] did not admit it: a bitset
   false positive admits a fresh key and does not count. *)
let test_doorkeeper_window_reset () =
  let w = 64 in
  let load k = Some k in
  let admits t k =
    let before = C.resident t in
    ignore (C.get_or_load t k ~load);
    C.resident t > before
  in
  let with_first_misses others =
    let t = make ~entries:w () in
    check_bool "first miss of key 0" false (admits t 0);
    let next = ref 1 and counted = ref 0 in
    while !counted < others do
      if not (admits t !next) then incr counted;
      incr next
    done;
    t
  in
  let t = with_first_misses (w - 1) in
  check_bool "W - 1 first misses later: second miss admits" true (admits t 0);
  let t = with_first_misses w in
  check_bool "W first misses later: second miss is a first miss again" false
    (admits t 0);
  check_bool "then the next miss admits" true (admits t 0);
  check_int "nothing evicted" 0 (C.stats t).Cache.evictions

(* A [put] that lands while a read-through load runs is newer than the
   loaded value: the admission must not overwrite it, for a loaded
   [Some] or a cached [None] alike.  The load itself calls [put]. *)
let test_read_through_yields_to_put () =
  let t = make ~entries:8 () in
  check_bool "first miss" true (C.get_or_load t 1 ~load:(fun _ -> Some 10) = Some 10);
  let load k =
    ignore (C.put t k 11);
    Some 10
  in
  check_bool "second miss returns its load" true (C.get_or_load t 1 ~load = Some 10);
  check_bool "the racing put's value stays" true (C.get t 1 = Some 11);
  let load k =
    ignore (C.put t k 21);
    None
  in
  check_bool "absent load returns None" true (C.get_or_load t 2 ~load = None);
  check_bool "the racing put's value stays over a cached absence" true
    (C.get t 2 = Some 21);
  check_int "losing admissions released their reservations" (2 * ov) (C.used_words t);
  check_ok "after racing puts" t

(* ----------------------- budget under churn ------------------------ *)

(* Sequential QCheck property: an arbitrary op sequence (sized puts,
   gets, removes, TTL puts, clock steps) never takes [used] above the
   budget, and accounting reconciles exactly afterwards. *)
let prop_budget_sequential =
  let open QCheck in
  let ops = list_of_size Gen.(return 400) (triple (int_bound 5) (int_bound 63) (int_bound 200)) in
  Test.make ~count:20 ~name:"cache_budget_sequential" ops (fun ops ->
      let clk = Atomic.make 0 in
      let budget = 16 * ov in
      let cfg = { (Cache.default_config ~budget_words:budget) with Cache.max_entry_frac = 1.0 } in
      let t =
        C.create ~config:cfg
          ~now:(fun () -> Atomic.get clk)
          ~cost:(fun _ v -> String.length v / 8)
          ()
      in
      List.iter
        (fun (op, k, sz) ->
          (match op with
          | 0 | 1 -> ignore (C.put t k (String.make sz 'x'))
          | 2 -> ignore (C.put ~ttl_ns:(sz + 1) t k (String.make sz 'x'))
          | 3 -> ignore (C.get t k)
          | 4 -> ignore (C.remove t k)
          | _ ->
              ignore (Atomic.fetch_and_add clk (sz + 1));
              ignore (C.get t k));
          if C.used_words t > budget then
            QCheck.Test.fail_reportf "used %d > budget %d" (C.used_words t)
              budget)
        ops;
      match C.validate t with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_reportf "validate: %s" e)

(* Concurrent churn: worker domains hammer put/get/remove and
   read-through [get_or_load] (a sized value, or an absence for one key
   in eight) while a sampler reads [used_words] continuously — the
   budget bound must hold at every sampled instant, not just at rest. *)
let test_budget_concurrent_churn () =
  let budget = 64 * ov in
  let cfg =
    {
      (Cache.default_config ~budget_words:budget) with
      Cache.max_entry_frac = 1.0;
    }
  in
  let t = C.create ~config:cfg ~cost:(fun _ v -> String.length v / 8) () in
  let stop = Atomic.make false in
  let violations = Atomic.make 0 in
  let sampler =
    Domain.spawn (fun () ->
        let samples = ref 0 in
        while not (Atomic.get stop) do
          if C.used_words t > budget then Atomic.incr violations;
          incr samples;
          if !samples land 63 = 0 then Domain.cpu_relax ()
        done;
        !samples)
  in
  let workers =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            let rng = Random.State.make [| 0xC0FFEE; d |] in
            for _ = 1 to 20_000 do
              let k = Random.State.int rng 256 in
              match Random.State.int rng 5 with
              | 0 | 1 ->
                  ignore (C.put t k (String.make (Random.State.int rng 128) 'v'))
              | 2 -> ignore (C.get t k)
              | 3 ->
                  ignore
                    (C.get_or_load t k ~load:(fun k ->
                         if k land 7 = 0 then None
                         else Some (String.make (Random.State.int rng 128) 'l')))
              | _ -> ignore (C.remove t k)
            done))
  in
  Array.iter Domain.join workers;
  Atomic.set stop true;
  let samples = Domain.join sampler in
  check_bool "sampler actually sampled" true (samples > 1_000);
  check_int "budget held at every sampled instant" 0 (Atomic.get violations);
  check_ok "quiescent accounting reconciles" t;
  let s = C.stats t in
  check_bool "churn evicted something" true (s.Cache.evictions > 0)

let suite =
  [
    ("budget_and_accounting", `Quick, test_budget_and_accounting);
    ("oversized_rejected", `Quick, test_oversized_rejected);
    ("eviction_clock_second_chance", `Quick, test_eviction_clock_second_chance);
    ("eviction_clock_all_touched", `Quick, test_eviction_clock_all_touched);
    ("eviction_own_region_first", `Quick, test_eviction_own_region_first);
    ("one_domain_fills_budget", `Quick, test_one_domain_fills_budget);
    ("lone_domain_evicts_in_clock_order", `Quick, test_lone_domain_evicts_in_clock_order);
    ("overwrite_at_full_budget_evicts_nothing", `Quick,
     test_overwrite_at_full_budget_evicts_nothing);
    ("hit_allocates_nothing", `Quick, test_hit_allocates_nothing);
    ("ttl_deterministic", `Quick, test_ttl_deterministic);
    ("ttl_reclaimed_by_eviction_scan", `Quick, test_ttl_reclaimed_by_eviction_scan);
    ("ttl_refresh_wins_race", `Quick, test_ttl_refresh_wins_race);
    ("ttl_refreshed_key_stays_evictable", `Quick, test_ttl_refreshed_key_stays_evictable);
    ("negative_caching", `Quick, test_negative_caching);
    ("negative_stampede_concurrent", `Slow, test_negative_stampede_concurrent);
    ("get_or_load_positive", `Quick, test_get_or_load_positive);
    ("scan_resistance", `Quick, test_scan_resistance);
    ("doorkeeper_window_reset", `Quick, test_doorkeeper_window_reset);
    ("read_through_yields_to_put", `Quick, test_read_through_yields_to_put);
    QCheck_alcotest.to_alcotest prop_budget_sequential;
    ("budget_concurrent_churn", `Slow, test_budget_concurrent_churn);
  ]
