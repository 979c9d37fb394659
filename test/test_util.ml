(* Unit tests for the Ct_util substrate. *)

open Ct_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------ Bits ------------------------------ *)

let test_ctz () =
  check_int "ctz 1" 0 (Bits.count_trailing_zeros 1);
  check_int "ctz 2" 1 (Bits.count_trailing_zeros 2);
  check_int "ctz 96" 5 (Bits.count_trailing_zeros 96);
  check_int "ctz 0" 63 (Bits.count_trailing_zeros 0);
  check_int "ctz 2^40" 40 (Bits.count_trailing_zeros (1 lsl 40))

let test_clz32 () =
  check_int "clz 0" 32 (Bits.count_leading_zeros32 0);
  check_int "clz 1" 31 (Bits.count_leading_zeros32 1);
  check_int "clz max" 0 (Bits.count_leading_zeros32 0xFFFFFFFF);
  check_int "clz 0x8000" 16 (Bits.count_leading_zeros32 0x8000)

let test_popcount () =
  check_int "pop 0" 0 (Bits.popcount 0);
  check_int "pop 0xFF" 8 (Bits.popcount 0xFF);
  check_int "pop 0b1010101" 4 (Bits.popcount 0b1010101)

let test_powers_of_two () =
  check_bool "1 is pow2" true (Bits.is_power_of_two 1);
  check_bool "16 is pow2" true (Bits.is_power_of_two 16);
  check_bool "0 not pow2" false (Bits.is_power_of_two 0);
  check_bool "12 not pow2" false (Bits.is_power_of_two 12);
  check_int "next_pow2 1" 1 (Bits.next_power_of_two 1);
  check_int "next_pow2 17" 32 (Bits.next_power_of_two 17);
  check_int "log2 16" 4 (Bits.log2_exact 16);
  Alcotest.check_raises "log2 12 raises" (Invalid_argument "Bits.log2_exact")
    (fun () -> ignore (Bits.log2_exact 12))

let test_reverse_bits () =
  check_int "rev 0" 0 (Bits.reverse_bits32 0);
  check_int "rev 1" 0x80000000 (Bits.reverse_bits32 1);
  check_int "rev 0x80000000" 1 (Bits.reverse_bits32 0x80000000);
  (* Involution on a spread of values. *)
  let rng = Rng.create 7 in
  for _ = 1 to 100 do
    let x = Rng.next_int32 rng in
    check_int "rev involutive" x (Bits.reverse_bits32 (Bits.reverse_bits32 x))
  done

let test_extract () =
  check_int "extract lo" 0x5 (Bits.extract ~hash:0x12345 ~level:0 ~width:16);
  check_int "extract mid" 0x4 (Bits.extract ~hash:0x12345 ~level:4 ~width:16);
  check_int "extract narrow" 0x1 (Bits.extract ~hash:0x12345 ~level:0 ~width:4)

(* ------------------------------ Rng ------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 50 do
    check_int "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 20 do
    if Rng.next a = Rng.next b then incr same
  done;
  check_bool "streams differ" true (!same < 3)

let test_rng_bounds () =
  let r = Rng.create 9 in
  for _ = 1 to 1000 do
    let x = Rng.next_int r 7 in
    check_bool "in [0,7)" true (x >= 0 && x < 7)
  done;
  for _ = 1 to 1000 do
    let x = Rng.next_int32 r in
    check_bool "32-bit" true (x >= 0 && x <= 0xFFFFFFFF)
  done;
  for _ = 1 to 1000 do
    let f = Rng.next_float r in
    check_bool "unit float" true (f >= 0.0 && f < 1.0)
  done

let test_rng_uniformity () =
  (* Chi-square-ish sanity: 16 buckets over 32k draws. *)
  let r = Rng.create 123 in
  let buckets = Array.make 16 0 in
  let n = 32768 in
  for _ = 1 to n do
    let b = Rng.next_int32 r land 15 in
    buckets.(b) <- buckets.(b) + 1
  done;
  let expected = n / 16 in
  Array.iteri
    (fun i c ->
      check_bool (Printf.sprintf "bucket %d balanced (%d)" i c) true
        (abs (c - expected) < expected / 4))
    buckets

let test_rng_split () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  let overlaps = ref 0 in
  for _ = 1 to 20 do
    if Rng.next a = Rng.next b then incr overlaps
  done;
  check_bool "split independent" true (!overlaps < 3)

let test_shuffle () =
  let r = Rng.create 77 in
  let a = Array.init 100 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 Fun.id) sorted;
  check_bool "actually moved" true (a <> Array.init 100 Fun.id)

(* ----------------------------- Hashing ---------------------------- *)

let test_mix_masks () =
  for i = 0 to 1000 do
    let h = Hashing.mix i in
    check_bool "32-bit" true (h >= 0 && h <= Hashing.mask)
  done

let test_mix_avalanche () =
  (* Nearby inputs land in different low nibbles most of the time. *)
  let same_nibble = ref 0 in
  for i = 0 to 999 do
    if Hashing.mix i land 15 = Hashing.mix (i + 1) land 15 then incr same_nibble
  done;
  check_bool "low nibble spread" true (!same_nibble < 200)

let test_fnv1a () =
  check_bool "distinct strings" true (Hashing.fnv1a "hello" <> Hashing.fnv1a "world");
  check_int "stable" (Hashing.fnv1a "abc") (Hashing.fnv1a "abc");
  check_bool "32-bit" true (Hashing.fnv1a "xyz" <= 0xFFFFFFFF)

let test_key_modules () =
  check_bool "int keys equal" true (Hashing.Int_key.equal 3 3);
  check_bool "string hash differs" true
    (Hashing.String_key.hash "a" <> Hashing.String_key.hash "b");
  check_int "constant hash" (Hashing.Constant_hash_int.hash 1)
    (Hashing.Constant_hash_int.hash 999);
  check_int "bad hash is identity" 12345 (Hashing.Bad_hash_int.hash 12345)

let test_deep_hash () =
  let module D = Hashing.Deep (Hashing.Int_key) in
  check_bool "equality is H's" true (D.equal 7 7 && not (D.equal 7 8));
  check_int "hash shifted by 20" (Hashing.Int_key.hash 99 lsl 20) (D.hash 99);
  check_int "low 20 bits clear" 0 (D.hash 12345 land ((1 lsl 20) - 1));
  (* Not truncated: a raw hash with its top bit set stays negative. *)
  let module N = Hashing.Deep (struct
    type t = int

    let equal = Int.equal
    let hash _ = -1
  end) in
  check_bool "sign kept for the map to mask" true (N.hash 0 < 0)

(* ------------------------------ Stats ----------------------------- *)

let feq msg a b = Alcotest.(check (float 1e-9)) msg a b

let test_mean_stddev () =
  feq "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  feq "stddev" 1.0 (Stats.stddev [| 1.0; 2.0; 3.0 |]);
  feq "stddev singleton" 0.0 (Stats.stddev [| 5.0 |])

let test_summary () =
  let s = Stats.summarize [| 4.0; 1.0; 3.0; 2.0 |] in
  check_int "n" 4 s.Stats.n;
  feq "mean" 2.5 s.Stats.mean;
  feq "min" 1.0 s.Stats.min;
  feq "max" 4.0 s.Stats.max;
  feq "median" 2.5 s.Stats.median

let test_percentile () =
  let xs = [| 10.0; 20.0; 30.0; 40.0 |] in
  feq "p0" 10.0 (Stats.percentile xs 0.0);
  feq "p100" 40.0 (Stats.percentile xs 100.0);
  feq "p50" 25.0 (Stats.percentile xs 50.0)

let test_warmup () =
  check_bool "stable tail" true
    (Stats.warmed_up [| 9.0; 5.0; 1.0; 1.0; 1.0; 1.0; 1.0 |]);
  check_bool "noisy tail" false
    (Stats.warmed_up [| 1.0; 9.0; 1.0; 9.0; 1.0; 9.0; 1.0 |]);
  check_bool "too short" false (Stats.warmed_up [| 1.0; 1.0 |])

let test_confidence_interval () =
  let lo, hi = Stats.confidence_interval95 [| 10.0; 10.0; 10.0; 10.0 |] in
  feq "degenerate lo" 10.0 lo;
  feq "degenerate hi" 10.0 hi;
  let lo, hi = Stats.confidence_interval95 [| 8.0; 12.0; 9.0; 11.0; 10.0 |] in
  check_bool "mean inside" true (lo < 10.0 && 10.0 < hi);
  check_bool "interval ordered" true (lo < hi);
  let lo1, hi1 = Stats.confidence_interval95 [| 5.0 |] in
  feq "singleton" 5.0 lo1;
  feq "singleton hi" 5.0 hi1;
  (* More samples shrink the interval. *)
  let wide = Stats.confidence_interval95 [| 8.0; 12.0 |] in
  let narrow =
    Stats.confidence_interval95 (Array.concat (List.init 10 (fun _ -> [| 8.0; 12.0 |])))
  in
  check_bool "narrower with more samples" true
    (snd narrow -. fst narrow < snd wide -. fst wide)

let test_speedup () =
  feq "2x" 2.0 (Stats.speedup ~baseline:10.0 5.0);
  feq "slowdown" 0.5 (Stats.speedup ~baseline:5.0 10.0);
  Alcotest.check_raises "zero raises" (Invalid_argument "Stats.speedup") (fun () ->
      ignore (Stats.speedup ~baseline:1.0 0.0))

(* ----------------------------- Backoff ---------------------------- *)

let test_backoff () =
  let b = Backoff.create ~min_wait:2 ~max_wait:8 () in
  (* Just exercise growth and reset paths; behaviour is timing-only. *)
  Backoff.once b;
  Backoff.once b;
  Backoff.once b;
  Backoff.reset b;
  Backoff.once b;
  check_bool "alive" true true;
  Alcotest.check_raises "bad args" (Invalid_argument "Backoff.create") (fun () ->
      ignore (Backoff.create ~min_wait:0 ~max_wait:1 ()))

let test_backoff_seeding () =
  let draws b = List.init 16 (fun _ -> Backoff.next_wait b) in
  (* Same explicit seed -> identical wait sequences (reproducibility). *)
  let b1 = Backoff.create ~min_wait:2 ~max_wait:64 ~seed:42 () in
  let b2 = Backoff.create ~min_wait:2 ~max_wait:64 ~seed:42 () in
  check_bool "same seed, same waits" true (draws b1 = draws b2);
  (* Default-seeded instances get distinct streams, so contending
     domains do not back off in lock-step. *)
  let d1 = Backoff.create ~min_wait:2 ~max_wait:64 () in
  let d2 = Backoff.create ~min_wait:2 ~max_wait:64 () in
  check_bool "default seeds diverge" true (draws d1 <> draws d2);
  (* next_wait stays within the current doubling window. *)
  let b = Backoff.create ~min_wait:4 ~max_wait:8 ~seed:7 () in
  check_bool "waits bounded" true
    (List.for_all (fun n -> n >= 0 && n < 8) (draws b))

let test_backoff_budget () =
  (* Unbudgeted: never over budget no matter how many retries. *)
  let b = Backoff.create ~min_wait:2 ~max_wait:8 () in
  for _ = 1 to 100 do
    ignore (Backoff.next_wait b)
  done;
  check_bool "unlimited never over" false (Backoff.over_budget b);
  check_int "retries counted" 100 (Backoff.retries b);
  (* Budgeted: over after budget+1 draws, reset clears the episode but
     not the lifetime total. *)
  let b = Backoff.create ~min_wait:2 ~max_wait:8 ~budget:3 () in
  for _ = 1 to 3 do
    ignore (Backoff.next_wait b)
  done;
  check_bool "at budget, not over" false (Backoff.over_budget b);
  ignore (Backoff.next_wait b);
  check_bool "over budget" true (Backoff.over_budget b);
  Backoff.reset b;
  check_bool "reset re-arms" false (Backoff.over_budget b);
  check_int "episode cleared" 0 (Backoff.retries b);
  check_int "lifetime total survives reset" 4 (Backoff.total_retries b);
  Alcotest.check_raises "negative budget" (Invalid_argument "Backoff.create")
    (fun () -> ignore (Backoff.create ~budget:(-1) ()))

(* ----------------------------- Progress ---------------------------- *)

let test_progress () =
  let p = Progress.create ~slots:4 () in
  check_int "slots" 4 (Progress.slots p);
  check_bool "not attached" true (Progress.attached p = None);
  Progress.beat p;
  check_int "beat without slot ignored" 0 (Progress.beats p 0);
  Progress.attach p 2;
  check_bool "attached" true (Progress.attached p = Some 2);
  Progress.beat p;
  Progress.beat p;
  check_int "manual beats" 2 (Progress.beats p 2);
  (* Observed yield points: every phase updates [last], only [After]
     beats — a spinning retry loop must read as stalled. *)
  let s = Yieldpoint.register "test.progress.site" in
  Progress.observe p Yieldpoint.Before s;
  check_int "Before does not beat" 2 (Progress.beats p 2);
  check_bool "Before recorded" true
    (Progress.last p 2 = Some (s, Yieldpoint.Before));
  Progress.observe p Yieldpoint.After s;
  check_int "After beats" 3 (Progress.beats p 2);
  check_bool "snapshot" true (Progress.snapshot p = [| 0; 0; 3; 0 |]);
  Progress.detach p;
  check_bool "detach vacates" true
    (Progress.attached p = None && Progress.last p 2 = None);
  Alcotest.check_raises "attach out of range"
    (Invalid_argument "Progress.attach") (fun () -> Progress.attach p 4)

let test_progress_observer_install () =
  let p = Progress.create ~slots:4 () in
  let s = Yieldpoint.register "test.progress.hooked" in
  Progress.attach p 0;
  Progress.install p;
  Fun.protect ~finally:(fun () ->
      Progress.uninstall ();
      Progress.detach p)
  @@ fun () ->
  check_bool "observer active" true (Yieldpoint.observer_active ());
  Yieldpoint.here Yieldpoint.After s;
  check_int "here feeds the heartbeat" 1 (Progress.beats p 0);
  (* The observer coexists with a main hook and runs first. *)
  let hook_saw = ref false in
  Yieldpoint.install (fun _ _ -> hook_saw := true);
  Fun.protect ~finally:Yieldpoint.clear @@ fun () ->
  Yieldpoint.here Yieldpoint.After s;
  check_bool "main hook still runs" true !hook_saw;
  check_int "observer ran too" 2 (Progress.beats p 0)

(* ------------------------------ Slots ------------------------------ *)

let slots_label name = "slots[flat]." ^ name

let test_slots_basic () =
  let a = Slots.make 8 0 in
  check_int "length" 8 (Slots.length a);
  for i = 0 to 7 do
    check_int "init" 0 (Slots.get a i)
  done;
  Slots.set a 3 42;
  check_int "set/get" 42 (Slots.get a 3);
  check_int "neighbours untouched" 0 (Slots.get a 2);
  check_int "fold" 42 (Slots.fold ( + ) 0 a);
  let seen = ref 0 in
  Slots.iter (fun v -> seen := !seen + v) a;
  check_int "iter" 42 !seen

let test_slots_cas () =
  let a = Slots.make 4 "init" in
  check_bool "cas hits on phys-eq" true (Slots.cas a 1 "init" "next");
  check_bool "cas updated" true (Slots.get a 1 == "next");
  check_bool "cas misses on stale" false (Slots.cas a 1 "init" "other");
  check_bool "still next" true (Slots.get a 1 == "next");
  (* Physical, not structural, comparison: a fresh equal string is
     a different block and must not match. *)
  let twin = String.init 4 (String.get "next") in
  check_bool "cas is physical" false (Slots.cas a 1 twin "other")

let test_slots_boxed_values () =
  (* Pointers (variant blocks) survive a set/cas round-trip — the
     GC write barrier path. *)
  let a = Slots.make 4 None in
  Slots.set a 0 (Some 7);
  check_bool "boxed set" true (Slots.get a 0 = Some 7);
  let cur = Slots.get a 0 in
  check_bool "boxed cas" true (Slots.cas a 0 cur (Some 8));
  check_bool "boxed cas value" true (Slots.get a 0 = Some 8)

let test_slots_float_guard () =
  Alcotest.check_raises "flat rejects float slots"
    (Invalid_argument "Slots.make: float slots are unsupported")
    (fun () -> ignore (Slots.make 4 1.0))

let test_slots_concurrent_cas () =
  (* [domains] workers CAS-push onto every slot of a shared array;
     every push must land exactly once. *)
  let slots = 8 and domains = 4 and per = 500 in
  let a = Slots.make slots ([] : int list) in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              let idx = i land (slots - 1) in
              let rec push () =
                let cur = Slots.get a idx in
                if not (Slots.cas a idx cur ((d * per) + i :: cur)) then push ()
              in
              push ()
            done))
  in
  List.iter Domain.join workers;
  let total = Slots.fold (fun acc l -> acc + List.length l) 0 a in
  check_int "no lost pushes" (domains * per) total;
  let all = Slots.fold (fun acc l -> List.rev_append l acc) [] a in
  check_int "all values distinct" (domains * per)
    (List.length (List.sort_uniq compare all))

(* Prefetching is semantically a no-op: it must neither fault nor
   disturb slot contents, on every index. *)
let test_slots_prefetch_noop () =
  let a = Slots.make 8 0 in
  Slots.set a 5 55;
  for i = 0 to 7 do
    Slots.prefetch a i
  done;
  check_int "contents survive prefetch" 55 (Slots.get a 5);
  check_int "fold after prefetch" 55 (Slots.fold ( + ) 0 a)

let test_slots_metadata () =
  check_int "no per-slot overhead" 0 Slots.overhead_words_per_slot

(* Slots holding boxed values across collections.  The array is
   promoted to the major heap first, so every young value a [set] or
   [cas] stores creates an old-to-young pointer: unless the store goes
   through the runtime's write barrier, the next minor collection
   frees or moves the value under the slot. *)

let boxed_label name = "slots[boxed]." ^ name

let old_slots n v =
  let a = Slots.make n v in
  Gc.full_major ();
  a

let fresh i = String.make 4 (Char.chr (Char.code 'a' + (i mod 26)))

let test_boxed_basic () =
  let a = old_slots 8 (fresh 0) in
  for i = 0 to 7 do
    Slots.set a i (fresh i)
  done;
  Gc.minor ();
  for i = 0 to 7 do
    Alcotest.(check string) "survives minor GC" (fresh i) (Slots.get a i)
  done;
  Gc.compact ();
  check_int "fold after compaction" 32 (Slots.fold (fun n s -> n + String.length s) 0 a);
  let seen = ref 0 in
  Slots.iter (fun s -> if s = fresh !seen then incr seen) a;
  check_int "iter after compaction" 8 !seen

let test_boxed_cas () =
  let a = old_slots 4 (fresh 0) in
  let cur = Slots.get a 1 in
  let next = fresh 1 in
  check_bool "cas a young value in" true (Slots.cas a 1 cur next);
  Gc.minor ();
  check_bool "cas hits the moved value" true (Slots.cas a 1 (Slots.get a 1) (fresh 2));
  check_bool "cas misses an equal twin" false (Slots.cas a 1 (fresh 2) (fresh 3));
  Gc.full_major ();
  Alcotest.(check string) "value after collections" (fresh 2) (Slots.get a 1)

let test_boxed_values_churn () =
  let n = 64 in
  let a = old_slots n None in
  for round = 1 to 50 do
    for i = 0 to n - 1 do
      let cur = Slots.get a i in
      if not (Slots.cas a i cur (Some (ref ((round * n) + i)))) then
        Alcotest.failf "uncontended cas failed at round %d slot %d" round i
    done;
    if round mod 10 = 0 then Gc.compact () else Gc.minor ()
  done;
  for i = 0 to n - 1 do
    match Slots.get a i with
    | Some r -> check_int "last round's value" ((50 * n) + i) !r
    | None -> Alcotest.failf "slot %d lost its value" i
  done

(* Floats are rejected only when bare: a boxed float is an ordinary
   pointer. *)
let test_boxed_float_guard () =
  let a = old_slots 4 (ref 0.5) in
  Slots.set a 2 (ref 2.5);
  Gc.minor ();
  Alcotest.(check (float 0.)) "boxed float" 2.5 !(Slots.get a 2);
  Alcotest.check_raises "bare floats still rejected"
    (Invalid_argument "Slots.make: float slots are unsupported")
    (fun () -> ignore (Slots.make 4 0.5))

let test_boxed_prefetch_noop () =
  let a = old_slots 8 [] in
  for i = 0 to 7 do
    Slots.set a i [ i; i ]
  done;
  for i = 0 to 7 do
    Slots.prefetch a i
  done;
  Gc.minor ();
  check_int "contents survive prefetch" 56 (Slots.fold (fun n l -> n + List.fold_left ( + ) 0 l) 0 a)

(* Four domains CAS young values into the old array while their own
   allocation keeps triggering minor collections, which in OCaml 5
   stop and scan every domain. *)
let test_boxed_concurrent_cas () =
  let slots = 8 and domains = 4 and per = 2_000 in
  let a = old_slots slots ([] : string list) in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              let idx = i land (slots - 1) in
              let v = string_of_int ((d * per) + i) in
              let rec push () =
                let cur = Slots.get a idx in
                if not (Slots.cas a idx cur (v :: cur)) then push ()
              in
              push ();
              if i mod 256 = 0 then Gc.minor ()
            done))
  in
  List.iter Domain.join workers;
  Gc.full_major ();
  let all = Slots.fold (fun acc l -> List.rev_append l acc) [] a in
  check_int "no lost pushes" (domains * per) (List.length all);
  check_int "every value intact" (domains * per)
    (List.length (List.sort_uniq compare (List.map int_of_string all)))

let slots_tests =
  [
    (slots_label "basic", `Quick, test_slots_basic);
    (slots_label "cas", `Quick, test_slots_cas);
    (slots_label "boxed_values", `Quick, test_slots_boxed_values);
    (slots_label "float_guard", `Quick, test_slots_float_guard);
    (slots_label "prefetch_noop", `Quick, test_slots_prefetch_noop);
    (slots_label "concurrent_cas", `Slow, test_slots_concurrent_cas);
    (boxed_label "basic", `Quick, test_boxed_basic);
    (boxed_label "cas", `Quick, test_boxed_cas);
    (boxed_label "boxed_values", `Quick, test_boxed_values_churn);
    (boxed_label "float_guard", `Quick, test_boxed_float_guard);
    (boxed_label "prefetch_noop", `Quick, test_boxed_prefetch_noop);
    (boxed_label "concurrent_cas", `Slow, test_boxed_concurrent_cas);
  ]

(* ----------------------------- Stripe ------------------------------ *)

let test_stripe_shape () =
  let s = Stripe.create ~stripes:4 () in
  check_int "stripes" 4 (Stripe.stripes s);
  check_int "mask" 3 (Stripe.mask s);
  (* Stripe counts round up to a power of two. *)
  check_int "rounded up" 8 (Stripe.stripes (Stripe.create ~stripes:5 ()));
  let d = Stripe.create () in
  check_bool "default is a power of two" true
    (Bits.is_power_of_two (Stripe.stripes d));
  Alcotest.check_raises "stripes < 1 rejected"
    (Invalid_argument "Stripe.create") (fun () ->
      ignore (Stripe.create ~stripes:0 ()))

let test_stripe_ops () =
  let s = Stripe.create ~stripes:4 () in
  Stripe.set s 0 5;
  Stripe.add s 1 7;
  Stripe.add s 1 1;
  check_int "get 0" 5 (Stripe.get s 0);
  check_int "get 1" 8 (Stripe.get s 1);
  (* Indexes are masked, so any int is a valid stripe id. *)
  check_int "masked index" 5 (Stripe.get s 4);
  Stripe.add s (-4) 2;
  check_int "negative index masked" 7 (Stripe.get s 0);
  check_int "sum" 15 (Stripe.sum s);
  Stripe.fill s 0;
  check_int "fill" 0 (Stripe.sum s)

let test_stripe_padding () =
  (* Each counter must sit on its own cache line: the backing array
     spans at least [stripes * 16] words plus the leading pad. *)
  let s = Stripe.create ~stripes:8 () in
  check_bool "padded footprint" true (Stripe.footprint_words s >= 8 * 16)

let test_stripe_rows () =
  let s = Stripe.create ~stripes:2 ~width:3 () in
  let h0 = Stripe.row s 0 and ovf = Stripe.row s 2 in
  check_bool "leased rows have plain handles" true (h0 >= 0);
  check_bool "overflow handle is below -1" true (ovf < -1);
  Stripe.add_at s h0 2 5;
  check_int "fetch_add_at returns the previous value" 5
    (Stripe.fetch_add_at s h0 2 1);
  Stripe.add_at s ovf 2 10;
  Stripe.add_at s (-1) 2 100;
  check_int "null handle reads 0" 0 (Stripe.get_at s (-1) 2);
  check_int "column sum covers the overflow row" 16 (Stripe.sum_col s 2);
  check_int "other columns untouched" 0 (Stripe.sum_col s 0);
  check_bool "rows are padded apart" true
    (Stripe.footprint_words s >= 3 * 16);
  Stripe.fill s 0;
  check_int "fill clears the overflow row" 0 (Stripe.sum_col s 2);
  Alcotest.check_raises "row beyond the overflow row"
    (Invalid_argument "Stripe.row") (fun () -> ignore (Stripe.row s 3))

(* ---------------------------- Domain_slot --------------------------- *)

(* No domain exits before every one has read its slot, so all of them
   hold their leases at once. *)
let live_slots n =
  let leased = Atomic.make 0 in
  List.init n (fun _ ->
      Domain.spawn (fun () ->
          let s = Domain_slot.get () in
          Atomic.incr leased;
          while Atomic.get leased < n do
            Domain.cpu_relax ()
          done;
          (s, s = Domain_slot.get ())))
  |> List.map Domain.join

let test_domain_slot_distinct () =
  let cap = Domain_slot.capacity in
  check_bool "capacity is a power of two" true (Bits.is_power_of_two cap);
  let mine = Domain_slot.get () in
  let got = live_slots (3 * cap) in
  check_bool "a domain keeps its slot" true (List.for_all snd got);
  let slots = List.map fst got in
  check_bool "slots within [0, capacity]" true
    (List.for_all (fun s -> s >= 0 && s <= cap) slots);
  let leased = List.filter (fun s -> s < cap) (mine :: slots) in
  check_int "live domains hold distinct slots"
    (List.length leased)
    (List.length (List.sort_uniq compare leased));
  check_bool "the surplus shares the overflow slot" true (List.mem cap slots)

let test_domain_slot_reuse () =
  let lease () = Domain.join (Domain.spawn Domain_slot.get) in
  let first = lease () in
  check_int "slot leased again after its domain is joined" first (lease ())

(* --------------------------- Yieldpoint ---------------------------- *)

let test_yieldpoint_registry () =
  let s1 = Yieldpoint.register "test_util.yp.alpha" in
  let s2 = Yieldpoint.register "test_util.yp.alpha" in
  check_bool "interned by name" true (s1 == s2);
  check_bool "name round-trips" true (Yieldpoint.name s1 = "test_util.yp.alpha");
  check_bool "id round-trips" true (Yieldpoint.of_id (Yieldpoint.id s1) == s1);
  let _ = Yieldpoint.register "test_util.yp.beta" in
  let mine = Yieldpoint.with_prefix "test_util.yp." in
  check_bool "with_prefix finds both" true (List.length mine = 2);
  (* The instrumented structures register their sites at start-up. *)
  check_bool "cachetrie sites present" true
    (Yieldpoint.with_prefix "cachetrie." <> []);
  check_bool "ctrie_snap sites present" true
    (Yieldpoint.with_prefix "ctrie_snap." <> [])

let test_yieldpoint_hook () =
  Fun.protect ~finally:Yieldpoint.clear @@ fun () ->
  let s = Yieldpoint.register "test_util.yp.hook" in
  let fired = ref [] in
  check_bool "inactive by default" false (Yieldpoint.active ());
  (* Disabled hook: here is a no-op. *)
  Yieldpoint.here Yieldpoint.Before s;
  check_bool "no-op when disabled" true (!fired = []);
  Yieldpoint.install (fun ph site -> fired := (ph, Yieldpoint.name site) :: !fired);
  check_bool "active after install" true (Yieldpoint.active ());
  Yieldpoint.here Yieldpoint.Before s;
  Yieldpoint.here Yieldpoint.After s;
  check_bool "hook saw both phases" true
    (List.rev !fired
    = [ (Yieldpoint.Before, "test_util.yp.hook"); (Yieldpoint.After, "test_util.yp.hook") ]);
  Yieldpoint.clear ();
  check_bool "inactive after clear" false (Yieldpoint.active ());
  Yieldpoint.here Yieldpoint.Before s;
  check_bool "no-op after clear" true (List.length !fired = 2)

let suite =
  [
    ("bits.ctz", `Quick, test_ctz);
    ("bits.clz32", `Quick, test_clz32);
    ("bits.popcount", `Quick, test_popcount);
    ("bits.powers_of_two", `Quick, test_powers_of_two);
    ("bits.reverse_bits32", `Quick, test_reverse_bits);
    ("bits.extract", `Quick, test_extract);
    ("rng.deterministic", `Quick, test_rng_deterministic);
    ("rng.seeds_differ", `Quick, test_rng_seeds_differ);
    ("rng.bounds", `Quick, test_rng_bounds);
    ("rng.uniformity", `Quick, test_rng_uniformity);
    ("rng.split", `Quick, test_rng_split);
    ("rng.shuffle", `Quick, test_shuffle);
    ("hashing.mix_masks", `Quick, test_mix_masks);
    ("hashing.mix_avalanche", `Quick, test_mix_avalanche);
    ("hashing.fnv1a", `Quick, test_fnv1a);
    ("hashing.key_modules", `Quick, test_key_modules);
    ("hashing.deep", `Quick, test_deep_hash);
    ("stats.mean_stddev", `Quick, test_mean_stddev);
    ("stats.summary", `Quick, test_summary);
    ("stats.percentile", `Quick, test_percentile);
    ("stats.warmup", `Quick, test_warmup);
    ("stats.confidence_interval", `Quick, test_confidence_interval);
    ("stats.speedup", `Quick, test_speedup);
    ("backoff.basic", `Quick, test_backoff);
    ("backoff.seeding", `Quick, test_backoff_seeding);
    ("backoff.budget", `Quick, test_backoff_budget);
    ("progress.heartbeats", `Quick, test_progress);
    ("progress.observer", `Quick, test_progress_observer_install);
    ("yieldpoint.registry", `Quick, test_yieldpoint_registry);
    ("yieldpoint.hook", `Quick, test_yieldpoint_hook);
    ("slots.metadata", `Quick, test_slots_metadata);
    ("stripe.shape", `Quick, test_stripe_shape);
    ("stripe.ops", `Quick, test_stripe_ops);
    ("stripe.padding", `Quick, test_stripe_padding);
    ("stripe.rows", `Quick, test_stripe_rows);
    ("domain_slot.distinct", `Quick, test_domain_slot_distinct);
    ("domain_slot.reuse", `Quick, test_domain_slot_reuse);
  ]
  @ slots_tests
