(* Bounded cache tier (DESIGN.md §15): budget-never-exceeded under
   sequential and concurrent churn, deterministic TTL expiry via an
   injected clock (reclaimed by the read path and by the eviction scan,
   with a refresh that races either one keeping its new entry), CLOCK
   eviction order (second chance, overwrite keeping its ring slot, the
   forced-eviction bound when all are hot, each domain evicting from
   its own ring first), hits that allocate no more than a bare map
   lookup, negative caching as stampede protection, admission rejection
   of oversized entries, and the ring substrate in isolation. *)

module M = Cachetrie.Make (Ct_util.Hashing.Int_key)
module C = Cache.Make (M)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ov = Cache.entry_overhead_words

(* Deterministic caches: one stripe (so replacement order is a single
   ring), zero-cost values (every entry costs exactly [ov]), and an
   injected counter clock. *)
let make ?(entries = 3) ?clk () =
  let cfg =
    {
      (Cache.default_config ~budget_words:(entries * ov)) with
      Cache.stripes = 1;
      max_entry_frac = 1.0;
    }
  in
  let now =
    match clk with Some c -> fun () -> Atomic.get c | None -> fun () -> 0
  in
  C.create ~config:cfg ~now ~cost:(fun _ _ -> 0) ()

let check_ok what t =
  match C.validate t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: validate: %s" what e

(* ------------------------------- ring ------------------------------ *)

let test_ring_fifo () =
  let r = Ring.create ~capacity:4 in
  check_int "rounded capacity" 4 (Ring.capacity r);
  let displaced = ref [] in
  let keep k = displaced := k :: !displaced in
  List.iter (fun k -> Ring.push r k ~on_displace:keep) [ 1; 2; 3; 4 ];
  check_int "nothing displaced while roomy" 0 (List.length !displaced);
  Ring.push r 5 ~on_displace:keep;
  check_bool "full push displaces the oldest" true (!displaced = [ 1 ]);
  let drained = List.filter_map (fun _ -> Ring.pop r) [ (); (); (); () ] in
  check_bool "FIFO drain order" true (drained = [ 2; 3; 4; 5 ]);
  check_bool "then empty" true (Ring.pop r = None);
  check_int "length empty" 0 (Ring.length r)

let test_ring_concurrent () =
  let r = Ring.create ~capacity:1024 in
  let per = 2_000 and dom = 4 in
  let popped = Array.init dom (fun _ -> Atomic.make 0) in
  let displaced = Atomic.make 0 in
  let workers =
    Array.init dom (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              Ring.push r
                ((d * per) + i)
                ~on_displace:(fun _ -> Atomic.incr displaced);
              if i land 1 = 0 then
                match Ring.pop r with
                | Some _ -> Atomic.incr popped.(d)
                | None -> ()
            done))
  in
  Array.iter Domain.join workers;
  let rec drain n = match Ring.pop r with Some _ -> drain (n + 1) | None -> n in
  let final = drain 0 in
  let pops = Array.fold_left (fun a c -> a + Atomic.get c) 0 popped in
  (* Every push landed; accounts may only diverge by abandoned slots,
     which are lost, never duplicated. *)
  check_bool "no element duplicated" true
    (pops + Atomic.get displaced + final <= dom * per)

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
  (* Overwrite below full occupancy (at capacity the conservative
     pre-[add] reservation of prev + new would evict first). *)
  check_bool "overwrite admitted" true (C.put t 2 222);
  check_int "overwrite releases the old reservation" (3 * ov) (C.used_words t);
  check_bool "overwritten value visible" true (C.get t 2 = Some 222);
  check_bool "remove" true (C.remove t 2);
  check_int "remove releases" (2 * ov) (C.used_words t);
  check_bool "remove missing" false (C.remove t 2);
  check_ok "after churn" t

let test_oversized_rejected () =
  let cfg =
    {
      (Cache.default_config ~budget_words:(100 * ov)) with
      Cache.stripes = 1;
      max_entry_frac = 0.1;
    }
  in
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
  (* An overwrite keeps the key's ring position and takes no second
     ring slot.  Below capacity, so the overwrite's reservation
     evicts nothing; no reads, so no access bit is set. *)
  let t = make ~entries:3 () in
  List.iter (fun k -> ignore (C.put t k k)) [ 1; 2 ];
  check_bool "overwrite admitted" true (C.put t 1 11);
  check_bool "admit 3" true (C.put t 3 3);
  check_bool "admit 4 evicts" true (C.put t 4 4);
  check_int "exactly one eviction" 1 (C.stats t).Cache.evictions;
  check_int "still within budget" (3 * ov) (C.used_words t);
  check_bool "overwritten 1 kept the oldest slot" true (C.get t 1 = None);
  (* Ring now 2, 3, 4 — with a second slot for 1 it would be
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
   last stripe-round of its bound (one stripe: bound 12, forced from
   pop 12 on), then evicts the entry it holds — so a put still evicts
   exactly one entry and keeps the budget. *)
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

(* Run [f] on a spawned domain whose slot parity is not [p].  A
   candidate that lands on parity [p] parks holding its slot, so the
   next candidate leases another one. *)
let on_other_parity p f =
  let release = Atomic.make false in
  let rec go spawned tries =
    let state = Atomic.make 0 in  (* 1 = ran [f], 2 = parked *)
    let d =
      Domain.spawn (fun () ->
          if Ct_util.Domain_slot.get () land 1 <> p then
            Fun.protect ~finally:(fun () -> Atomic.set state 1) f
          else begin
            Atomic.set state 2;
            while not (Atomic.get release) do Domain.cpu_relax () done
          end)
    in
    while Atomic.get state = 0 do Domain.cpu_relax () done;
    if Atomic.get state = 1 || tries <= 1 then (Atomic.get state = 1, d :: spawned)
    else go (d :: spawned) (tries - 1)
  in
  let ran, spawned = go [] 4 in
  Atomic.set release true;
  List.iter Domain.join spawned;
  if not ran then Alcotest.fail "no free domain slot of the other parity"

(* Eviction starts at the evicting domain's own ring.  Two stripes and
   a budget of two entries: the main domain and a spawned domain each
   admit one key, then the domain on stripe 1 admits a third.  Its own
   key is the victim and the other domain's key stays; a shared hand
   starting at stripe 0 would evict the stripe-0 key instead. *)
let test_eviction_own_ring_first () =
  let cfg =
    {
      (Cache.default_config ~budget_words:(2 * ov)) with
      Cache.stripes = 2;
      max_entry_frac = 1.0;
    }
  in
  let t = C.create ~config:cfg ~now:(fun () -> 0) ~cost:(fun _ _ -> 0) () in
  let main_stripe = Ct_util.Domain_slot.get () land 1 in
  check_bool "admit main's key" true (C.put t 1 1);
  on_other_parity main_stripe (fun () ->
      check_bool "admit the spawned domain's key" true (C.put t 2 2);
      if main_stripe = 0 then check_bool "admit 3 on stripe 1" true (C.put t 3 3));
  if main_stripe = 1 then check_bool "admit 3 on stripe 1" true (C.put t 3 3);
  let own, other = if main_stripe = 1 then (1, 2) else (2, 1) in
  check_int "exactly one eviction" 1 (C.stats t).Cache.evictions;
  check_bool "stripe 1's own key evicted" true (C.get t own = None);
  check_bool "stripe 0's key stays" true (C.get t other = Some other);
  check_bool "3 resident" true (C.get t 3 = Some 3);
  check_ok "own ring first" t

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
   the hook: the reclaimer reads it between the lookup and the remove,
   and the first read after [arm] runs the refresh there. *)
let test_ttl_refresh_wins_race () =
  let clk = Atomic.make 0 in
  let hook = ref ignore in
  let now () =
    let f = !hook in
    hook := ignore;
    f ();
    Atomic.get clk
  in
  (* Key 3 costs one entry more, so admitting it needs the scan while
     leaving room for key 1's refresh. *)
  let cfg =
    {
      (Cache.default_config ~budget_words:(3 * ov)) with
      Cache.stripes = 1;
      max_entry_frac = 1.0;
    }
  in
  let fresh () =
    let t =
      C.create ~config:cfg ~now ~cost:(fun k _ -> if k = 3 then ov else 0) ()
    in
    Atomic.set clk 0;
    ignore (C.put ~ttl_ns:50 t 1 1);
    ignore (C.put t 2 2);
    Atomic.set clk 60;
    hook := (fun () -> ignore (C.put ~ttl_ns:1_000 t 1 11));
    t
  in
  (* Read path: the read misses (it ran before the refresh), and the
     refreshed entry stays. *)
  let t = fresh () in
  check_bool "racing read misses" true (C.get t 1 = None);
  check_bool "refreshed entry survives the read" true (C.get t 1 = Some 11);
  check_int "no expiration" 0 (C.stats t).Cache.expirations;
  check_ok "after racing read" t;
  (* Eviction scan: it pops key 1, the refresh lands, and the scan
     moves on to evict key 2 instead. *)
  let t = fresh () in
  check_bool "admit 3" true (C.put t 3 3);
  check_bool "refreshed entry survives the scan" true (C.get t 1 = Some 11);
  check_bool "2 evicted instead" true (C.get t 2 = None);
  let s = C.stats t in
  check_bool "one eviction, no expiration" true
    (s.Cache.evictions = 1 && s.Cache.expirations = 0);
  check_ok "after racing scan" t

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

let test_get_or_load_positive () =
  let t = make ~entries:8 () in
  let loads = ref 0 in
  let load k =
    incr loads;
    Some (k * 2)
  in
  check_bool "loads on miss" true (C.get_or_load t 5 ~load = Some 10);
  check_bool "then hits" true (C.get_or_load t 5 ~load = Some 10);
  check_int "loaded once" 1 !loads;
  check_int "hit counted" 1 (C.stats t).Cache.hits

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
      let cfg =
        {
          (Cache.default_config ~budget_words:budget) with
          Cache.stripes = 1;
          max_entry_frac = 1.0;
        }
      in
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

(* Concurrent churn: worker domains hammer put/get/remove with sized
   values while a sampler reads [used_words] continuously — the budget
   bound must hold at every sampled instant, not just at rest. *)
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
              match Random.State.int rng 4 with
              | 0 | 1 ->
                  ignore (C.put t k (String.make (Random.State.int rng 128) 'v'))
              | 2 -> ignore (C.get t k)
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
    ("ring_fifo", `Quick, test_ring_fifo);
    ("ring_concurrent", `Quick, test_ring_concurrent);
    ("budget_and_accounting", `Quick, test_budget_and_accounting);
    ("oversized_rejected", `Quick, test_oversized_rejected);
    ("eviction_clock_second_chance", `Quick, test_eviction_clock_second_chance);
    ("eviction_clock_all_touched", `Quick, test_eviction_clock_all_touched);
    ("eviction_own_ring_first", `Quick, test_eviction_own_ring_first);
    ("hit_allocates_nothing", `Quick, test_hit_allocates_nothing);
    ("ttl_deterministic", `Quick, test_ttl_deterministic);
    ("ttl_reclaimed_by_eviction_scan", `Quick, test_ttl_reclaimed_by_eviction_scan);
    ("ttl_refresh_wins_race", `Quick, test_ttl_refresh_wins_race);
    ("negative_caching", `Quick, test_negative_caching);
    ("negative_stampede_concurrent", `Slow, test_negative_stampede_concurrent);
    ("get_or_load_positive", `Quick, test_get_or_load_positive);
    QCheck_alcotest.to_alcotest prop_budget_sequential;
    ("budget_concurrent_churn", `Slow, test_budget_concurrent_churn);
  ]
