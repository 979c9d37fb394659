(* Sequential unit tests for the cache-trie. *)

open Ct_util

module CT = Cachetrie.Make (Hashing.Int_key)
module CT_str = Cachetrie.Make (Hashing.String_key)
module CT_collide = Cachetrie.Make (Hashing.Constant_hash_int)
module CT_bad = Cachetrie.Make (Hashing.Bad_hash_int)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_opt = Alcotest.(check (option int))

let assert_valid name t =
  match CT.validate t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: invariant violation: %s" name e

(* ------------------------- basic operations ----------------------- *)

let test_empty () =
  let t = CT.create () in
  check_opt "lookup empty" None (CT.lookup t 1);
  check_bool "mem empty" false (CT.mem t 1);
  check_int "size empty" 0 (CT.size t);
  check_bool "is_empty" true (CT.is_empty t);
  check_opt "remove empty" None (CT.remove t 1);
  assert_valid "empty" t

let test_insert_lookup () =
  let t = CT.create () in
  CT.insert t 1 100;
  CT.insert t 2 200;
  check_opt "k1" (Some 100) (CT.lookup t 1);
  check_opt "k2" (Some 200) (CT.lookup t 2);
  check_opt "absent" None (CT.lookup t 3);
  check_int "size" 2 (CT.size t);
  check_bool "not empty" false (CT.is_empty t);
  assert_valid "insert_lookup" t

let test_insert_overwrite () =
  let t = CT.create () in
  CT.insert t 7 1;
  CT.insert t 7 2;
  CT.insert t 7 3;
  check_opt "latest wins" (Some 3) (CT.lookup t 7);
  check_int "size 1" 1 (CT.size t);
  assert_valid "overwrite" t

let test_add_returns_previous () =
  let t = CT.create () in
  check_opt "first add" None (CT.add t 5 50);
  check_opt "second add" (Some 50) (CT.add t 5 51);
  check_opt "third add" (Some 51) (CT.add t 5 52);
  check_opt "now" (Some 52) (CT.lookup t 5)

let test_put_if_absent () =
  let t = CT.create () in
  check_opt "installs" None (CT.put_if_absent t 9 90);
  check_opt "declines" (Some 90) (CT.put_if_absent t 9 91);
  check_opt "kept original" (Some 90) (CT.lookup t 9);
  assert_valid "put_if_absent" t

let test_replace () =
  let t = CT.create () in
  check_opt "absent: no-op" None (CT.replace t 4 40);
  check_opt "still absent" None (CT.lookup t 4);
  CT.insert t 4 40;
  check_opt "present: replaces" (Some 40) (CT.replace t 4 41);
  check_opt "new value" (Some 41) (CT.lookup t 4);
  assert_valid "replace" t

let test_remove () =
  let t = CT.create () in
  CT.insert t 1 10;
  CT.insert t 2 20;
  check_opt "removes" (Some 10) (CT.remove t 1);
  check_opt "gone" None (CT.lookup t 1);
  check_opt "other alive" (Some 20) (CT.lookup t 2);
  check_opt "re-remove" None (CT.remove t 1);
  check_int "size" 1 (CT.size t);
  assert_valid "remove" t

let test_remove_reinsert () =
  let t = CT.create () in
  for round = 1 to 5 do
    for i = 0 to 99 do
      CT.insert t i (i * round)
    done;
    for i = 0 to 99 do
      check_opt "present" (Some (i * round)) (CT.lookup t i)
    done;
    for i = 0 to 99 do
      check_opt "removed" (Some (i * round)) (CT.remove t i)
    done;
    check_int "emptied" 0 (CT.size t)
  done;
  assert_valid "remove_reinsert" t

let test_many_keys () =
  let n = 20_000 in
  let t = CT.create () in
  for i = 0 to n - 1 do
    CT.insert t i i
  done;
  check_int "size" n (CT.size t);
  for i = 0 to n - 1 do
    if CT.lookup t i <> Some i then Alcotest.failf "lost key %d" i
  done;
  for i = n to n + 100 do
    check_opt "absent" None (CT.lookup t i)
  done;
  assert_valid "many_keys" t

let test_negative_and_extreme_keys () =
  let t = CT.create () in
  let keys = [ min_int; -1; 0; 1; max_int; 0xFFFFFFFF; 1 lsl 61 ] in
  List.iteri (fun i k -> CT.insert t k i) keys;
  List.iteri (fun i k -> check_opt "extreme" (Some i) (CT.lookup t k)) keys;
  check_int "all distinct" (List.length keys) (CT.size t);
  assert_valid "extreme" t

let test_string_keys () =
  let t = CT_str.create () in
  CT_str.insert t "alpha" 1;
  CT_str.insert t "beta" 2;
  CT_str.insert t "" 3;
  Alcotest.(check (option int)) "alpha" (Some 1) (CT_str.lookup t "alpha");
  Alcotest.(check (option int)) "empty string key" (Some 3) (CT_str.lookup t "");
  Alcotest.(check (option int)) "absent" None (CT_str.lookup t "gamma");
  Alcotest.(check int) "size" 3 (CT_str.size t)

(* ----------------------- aggregate queries ------------------------ *)

let test_fold_iter_to_list () =
  let t = CT.create () in
  for i = 1 to 100 do
    CT.insert t i (2 * i)
  done;
  let sum = CT.fold (fun acc _ v -> acc + v) 0 t in
  check_int "fold sum" (2 * 5050) sum;
  let count = ref 0 in
  CT.iter (fun k v -> if v = 2 * k then incr count) t;
  check_int "iter consistent" 100 !count;
  let l = CT.to_list t in
  check_int "to_list length" 100 (List.length l);
  let sorted = List.sort compare (List.map fst l) in
  Alcotest.(check (list int)) "keys" (List.init 100 (fun i -> i + 1)) sorted

let test_to_seq () =
  let t = CT.create () in
  for i = 1 to 500 do
    CT.insert t i (3 * i)
  done;
  let l = List.of_seq (CT.to_seq t) in
  check_int "seq yields all" 500 (List.length l);
  Alcotest.(check (list int))
    "same keys as to_list"
    (List.sort compare (List.map fst (CT.to_list t)))
    (List.sort compare (List.map fst l));
  List.iter (fun (k, v) -> if v <> 3 * k then Alcotest.failf "seq pair %d" k) l;
  (* Laziness: taking a prefix does not force the whole trie. *)
  let first_three = List.of_seq (Seq.take 3 (CT.to_seq t)) in
  check_int "prefix" 3 (List.length first_three);
  check_int "empty seq" 0 (List.length (List.of_seq (CT.to_seq (CT.create ()))))

(* ----------------------- hash collisions -------------------------- *)

let test_full_collisions_lnode () =
  (* Every key hashes to 42: all land in one LNode. *)
  let t = CT_collide.create () in
  for i = 0 to 19 do
    CT_collide.insert t i (100 + i)
  done;
  check_int "size" 20 (CT_collide.size t);
  for i = 0 to 19 do
    Alcotest.(check (option int)) "colliding key" (Some (100 + i)) (CT_collide.lookup t i)
  done;
  Alcotest.(check (option int)) "absent collider" None (CT_collide.lookup t 99)

let test_collision_update_and_remove () =
  let t = CT_collide.create () in
  for i = 0 to 9 do
    CT_collide.insert t i i
  done;
  (* Update within the list. *)
  CT_collide.insert t 5 505;
  Alcotest.(check (option int)) "updated in lnode" (Some 505) (CT_collide.lookup t 5);
  Alcotest.(check (option int)) "pia declines" (Some 505) (CT_collide.put_if_absent t 5 9);
  Alcotest.(check (option int)) "replace works" (Some 505) (CT_collide.replace t 5 506);
  (* Remove down to one element: LNode contracts back to an SNode. *)
  for i = 0 to 8 do
    Alcotest.(check bool) "removed" true (CT_collide.remove t i <> None)
  done;
  Alcotest.(check int) "one left" 1 (CT_collide.size t);
  Alcotest.(check (option int)) "survivor" (Some 9) (CT_collide.lookup t 9);
  (* And the survivor is still updatable. *)
  CT_collide.insert t 9 99;
  Alcotest.(check (option int)) "survivor updated" (Some 99) (CT_collide.lookup t 9)

let test_bad_hash_deep_trie () =
  (* Identity hashes: keys 0..n-1 share long low-bit prefixes, forcing
     deep paths and repeated narrow-node expansion. *)
  let t = CT_bad.create () in
  let n = 4096 in
  for i = 0 to n - 1 do
    CT_bad.insert t (i * 16) i (* same low nibble, differs at level 4+ *)
  done;
  Alcotest.(check int) "size" n (CT_bad.size t);
  for i = 0 to n - 1 do
    if CT_bad.lookup t (i * 16) <> Some i then Alcotest.failf "bad-hash lost %d" i
  done;
  match CT_bad.validate t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "bad-hash invariant: %s" e

(* --------------------- expansion & compression -------------------- *)

let test_expansions_happen () =
  let t = CT.create () in
  for i = 0 to 9_999 do
    CT.insert t i i
  done;
  let s = CT.cache_stats t in
  check_bool "narrow nodes expanded" true (s.Cachetrie.expansions > 0);
  assert_valid "expansions" t

let test_compression_reclaims () =
  let t = CT_bad.create () in
  (* Two keys colliding through several levels build a deep chain; after
     removing both, compression should fire at least once. *)
  for i = 0 to 999 do
    CT_bad.insert t (i * 1024) i
  done;
  for i = 0 to 999 do
    ignore (CT_bad.remove t (i * 1024))
  done;
  Alcotest.(check int) "empty" 0 (CT_bad.size t);
  let s = CT_bad.cache_stats t in
  Alcotest.(check bool) "compressions happened" true (s.Cachetrie.compressions > 0);
  (match CT_bad.validate t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "compression invariant: %s" e);
  (* Structure stays usable after compression. *)
  CT_bad.insert t 2048 7;
  Alcotest.(check (option int)) "reusable" (Some 7) (CT_bad.lookup t 2048)

(* --------------------------- the cache ---------------------------- *)

let test_cache_gets_installed () =
  let t = CT.create () in
  let n = 200_000 in
  for i = 0 to n - 1 do
    CT.insert t i i
  done;
  (* Drive lookups so misses accumulate and sampling fires. *)
  for round = 1 to 3 do
    ignore round;
    for i = 0 to n - 1 do
      if CT.lookup t i <> Some i then Alcotest.failf "lookup lost %d" i
    done
  done;
  let s = CT.cache_stats t in
  check_bool "cache installed" true (s.Cachetrie.cache_level <> None);
  check_bool "sampling ran" true (s.Cachetrie.sampling_passes > 0);
  assert_valid "cache_installed" t

let test_cache_correct_after_removals () =
  let t = CT.create () in
  let n = 100_000 in
  for i = 0 to n - 1 do
    CT.insert t i i
  done;
  for i = 0 to n - 1 do
    ignore (CT.lookup t i)
  done;
  (* Remove half the keys; cached pointers to them must be rejected. *)
  for i = 0 to (n / 2) - 1 do
    ignore (CT.remove t i)
  done;
  for i = 0 to (n / 2) - 1 do
    if CT.lookup t i <> None then Alcotest.failf "stale cached key %d" i
  done;
  for i = n / 2 to n - 1 do
    if CT.lookup t i <> Some i then Alcotest.failf "lost surviving key %d" i
  done;
  check_int "half size" (n / 2) (CT.size t)

let test_cache_correct_after_updates () =
  let t = CT.create () in
  let n = 100_000 in
  for i = 0 to n - 1 do
    CT.insert t i i
  done;
  for i = 0 to n - 1 do
    ignore (CT.lookup t i)
  done;
  for i = 0 to n - 1 do
    CT.insert t i (i + 1)
  done;
  for i = 0 to n - 1 do
    if CT.lookup t i <> Some (i + 1) then Alcotest.failf "stale cached value %d" i
  done

let test_no_cache_variant () =
  let config = { Cachetrie.default_config with enable_cache = false } in
  let t = CT.create_with ~config () in
  let n = 150_000 in
  for i = 0 to n - 1 do
    CT.insert t i i
  done;
  for i = 0 to n - 1 do
    if CT.lookup t i <> Some i then Alcotest.failf "no-cache lost %d" i
  done;
  let s = CT.cache_stats t in
  check_bool "no cache ever" true (s.Cachetrie.cache_level = None);
  check_int "no installs" 0 (s.Cachetrie.cache_installs)

let test_no_narrow_variant () =
  let config = { Cachetrie.default_config with narrow_nodes = false } in
  let t = CT.create_with ~config () in
  for i = 0 to 9_999 do
    CT.insert t i i
  done;
  for i = 0 to 9_999 do
    if CT.lookup t i <> Some i then Alcotest.failf "wide-only lost %d" i
  done;
  let s = CT.cache_stats t in
  check_int "no expansions without narrow nodes" 0 s.Cachetrie.expansions;
  assert_valid "wide-only" t

let test_low_trigger_cache () =
  (* A low trigger level makes even small tries install a cache, which
     exercises the fast paths deterministically. *)
  let config =
    {
      Cachetrie.default_config with
      cache_trigger_level = 4;
      min_cache_level = 4;
      max_misses = 16;
      sample_paths = 8;
    }
  in
  let t = CT.create_with ~config () in
  for i = 0 to 4_999 do
    CT.insert t i i
  done;
  for _round = 1 to 4 do
    for i = 0 to 4_999 do
      if CT.lookup t i <> Some i then Alcotest.failf "low-trigger lost %d" i
    done
  done;
  let s = CT.cache_stats t in
  check_bool "cache on" true (s.Cachetrie.cache_level <> None);
  (* Mutations through the fast path stay correct. *)
  for i = 0 to 4_999 do
    CT.insert t i (i * 3)
  done;
  for i = 0 to 4_999 do
    if CT.lookup t i <> Some (i * 3) then Alcotest.failf "fast update lost %d" i
  done;
  for i = 0 to 4_999 do
    ignore (CT.remove t i)
  done;
  check_int "fast removes emptied" 0 (CT.size t)

let drive_lookups t n rounds =
  for _ = 1 to rounds do
    for i = 0 to n - 1 do
      ignore (CT.lookup t i)
    done
  done

let test_cache_level_tracks_theory () =
  (* Theorem 4.4: the cache settles a constant distance from the
     expected key depth.  After sampling stabilizes, the cache level
     must equal 4 * (best adjacent pair) from Theorem 4.2 (paper depth
     d corresponds to trie level 4 * (d + 1)). *)
  let n = 200_000 in
  let t = CT.create () in
  for i = 0 to n - 1 do
    CT.insert t i i
  done;
  drive_lookups t n 4;
  let s = CT.cache_stats t in
  (match s.Cachetrie.cache_level with
  | None -> Alcotest.fail "no cache installed"
  | Some lv ->
      let expected = 4 * (Analysis.Depth_theory.best_pair n + 1) in
      check_bool
        (Printf.sprintf "cache level %d within one level of theory %d" lv expected)
        true
        (abs (lv - expected) <= 4));
  check_bool "sampling ran" true (s.Cachetrie.sampling_passes > 0)

let test_cache_adjusts_up_on_growth () =
  let config = { Cachetrie.default_config with max_misses = 128 } in
  let t = CT.create_with ~config () in
  for i = 0 to 29_999 do
    CT.insert t i i
  done;
  drive_lookups t 30_000 3;
  let lv_small =
    match (CT.cache_stats t).Cachetrie.cache_level with
    | Some lv -> lv
    | None -> Alcotest.fail "no cache after small phase"
  in
  (* Grow by an order of magnitude; the keys sink a level deeper. *)
  for i = 30_000 to 499_999 do
    CT.insert t i i
  done;
  drive_lookups t 500_000 3;
  let lv_big =
    match (CT.cache_stats t).Cachetrie.cache_level with
    | Some lv -> lv
    | None -> Alcotest.fail "no cache after growth"
  in
  check_bool
    (Printf.sprintf "cache deepened (%d -> %d)" lv_small lv_big)
    true (lv_big > lv_small);
  (* Correctness through the adjusted cache. *)
  for i = 0 to 499_999 do
    if CT.lookup t i <> Some i then Alcotest.failf "lost %d after adjustment" i
  done

let test_cache_aligned_after_shrink () =
  (* After mass removal the trie compacts along removal paths, but
     fast-path removes enter at the cache level, so nodes above it may
     keep single-child chains.  The operational guarantee (Theorem 4.4)
     is alignment: the cache level must cover the most populated
     adjacent depth pair of the *actual* post-shrink distribution, so
     lookups stay O(1). *)
  let config = { Cachetrie.default_config with max_misses = 128 } in
  let t = CT.create_with ~config () in
  let n = 300_000 in
  for i = 0 to n - 1 do
    CT.insert t i i
  done;
  drive_lookups t n 3;
  (* Remove 99% of the keys, then keep looking up the survivors. *)
  for i = 1_000 to n - 1 do
    ignore (CT.remove t i)
  done;
  drive_lookups t 1_000 400;
  let lv =
    match (CT.cache_stats t).Cachetrie.cache_level with
    | Some lv -> lv
    | None -> Alcotest.fail "cache vanished after shrink"
  in
  let d, frac = Analysis.Histogram.top_pair_fraction (CT.depth_histogram t) in
  check_bool
    (Printf.sprintf "cache level %d covers top pair starting at depth %d" lv d)
    true
    (lv = 4 * d || lv = 4 * (d + 1) || lv = 4 * (d - 1));
  check_bool "keys still concentrated" true (frac > 0.87);
  (* Compression did reclaim structure along removal paths. *)
  check_bool "compressions happened" true ((CT.cache_stats t).Cachetrie.compressions > 0);
  for i = 0 to 999 do
    if CT.lookup t i <> Some i then Alcotest.failf "survivor %d lost" i
  done

let test_slow_path_removal_compacts () =
  (* Without a cache every removal walks from the root, so the cascade
     compaction can float survivors all the way up: the end state must
     match the natural trie of the surviving keys. *)
  let config = { Cachetrie.default_config with enable_cache = false } in
  let t = CT.create_with ~config () in
  let n = 200_000 in
  for i = 0 to n - 1 do
    CT.insert t i i
  done;
  for i = 100 to n - 1 do
    ignore (CT.remove t i)
  done;
  let hist = CT.depth_histogram t in
  check_int "survivors" 100 (Array.fold_left ( + ) 0 hist);
  (* 100 uniform keys naturally live at depths 2-3 (~98%); chains whose
     single child is an inner node are not lifted, so allow a small
     residue deeper.  Without compaction survivors would sit at the
     original depths 4-5. *)
  check_bool
    (Printf.sprintf "compact: d1=%d d2=%d d3=%d d4=%d" hist.(1) hist.(2) hist.(3) hist.(4))
    true
    (hist.(1) + hist.(2) + hist.(3) >= 90 && hist.(4) + hist.(5) + hist.(6) <= 10);
  assert_valid "slow_path_compact" t

let test_single_level_cache_variant () =
  (* Ablation: with dual_level_cache off only the head level is
     inhabited; correctness must be unaffected. *)
  let config =
    { Cachetrie.default_config with dual_level_cache = false; max_misses = 128 }
  in
  let t = CT.create_with ~config () in
  let n = 150_000 in
  for i = 0 to n - 1 do
    CT.insert t i i
  done;
  drive_lookups t n 3;
  check_bool "cache on" true ((CT.cache_stats t).Cachetrie.cache_level <> None);
  for i = 0 to n - 1 do
    if CT.lookup t i <> Some i then Alcotest.failf "single-level lost %d" i
  done;
  for i = 0 to 999 do
    CT.insert t i (-i)
  done;
  for i = 0 to 999 do
    if CT.lookup t i <> Some (-i) then Alcotest.failf "single-level stale %d" i
  done

(* ----------------------- introspection ---------------------------- *)

let test_depth_histogram () =
  let t = CT.create () in
  let n = 50_000 in
  for i = 0 to n - 1 do
    CT.insert t i i
  done;
  let hist = CT.depth_histogram t in
  check_int "histogram counts all keys" n (Array.fold_left ( + ) 0 hist);
  check_int "no keys at depth 0" 0 hist.(0);
  (* Theorem 4.2: some adjacent pair of depths holds >= ~87% of keys. *)
  let best = ref 0 in
  for d = 0 to Array.length hist - 2 do
    best := max !best (hist.(d) + hist.(d + 1))
  done;
  check_bool
    (Printf.sprintf "adjacent pair holds 87%% (got %.1f%%)"
       (100.0 *. float_of_int !best /. float_of_int n))
    true
    (float_of_int !best /. float_of_int n > 0.87)

let test_footprint_grows () =
  let t = CT.create () in
  let base = CT.footprint_words t in
  check_bool "empty footprint positive" true (base > 0);
  for i = 0 to 999 do
    CT.insert t i i
  done;
  let after = CT.footprint_words t in
  check_bool "footprint grows" true (after > base + (1000 * 5));
  for i = 0 to 999 do
    ignore (CT.remove t i)
  done;
  let emptied = CT.footprint_words t in
  check_bool "footprint shrinks after removals" true (emptied < after)

(* [validate] checks each ANode block's layout, not only its width: a
   block of the ANode tag with 5 fields, planted with [Obj] into a slot
   of the root (the trie record's first field), is reported. *)
let test_validate_anode_layout () =
  let t = CT.create () in
  CT.insert t 1 1;
  assert_valid "before planting" t;
  let root = Obj.field (Obj.repr t) 0 in
  Obj.set_field root 0 (Obj.new_block (Obj.tag root) 5);
  let names_layout e =
    let sub = "with tag 1 and 5 fields" in
    let n = String.length sub in
    let rec go i = i + n <= String.length e && (String.sub e i n = sub || go (i + 1)) in
    go 0
  in
  match CT.validate t with
  | Ok () -> Alcotest.fail "validate accepted a 5-field ANode block"
  | Error e -> check_bool ("error names the layout: " ^ e) true (names_layout e)

let test_stats_shape () =
  let t = CT.create () in
  let s = CT.cache_stats t in
  check_bool "fresh trie has no cache" true (s.Cachetrie.cache_level = None);
  check_int "no expansions yet" 0 s.Cachetrie.expansions;
  check_int "no compressions yet" 0 s.Cachetrie.compressions;
  Alcotest.(check (list int)) "empty chain" [] s.Cachetrie.cache_chain

let suite =
  [
    ("empty", `Quick, test_empty);
    ("insert_lookup", `Quick, test_insert_lookup);
    ("insert_overwrite", `Quick, test_insert_overwrite);
    ("add_returns_previous", `Quick, test_add_returns_previous);
    ("put_if_absent", `Quick, test_put_if_absent);
    ("replace", `Quick, test_replace);
    ("remove", `Quick, test_remove);
    ("remove_reinsert", `Quick, test_remove_reinsert);
    ("many_keys", `Quick, test_many_keys);
    ("negative_and_extreme_keys", `Quick, test_negative_and_extreme_keys);
    ("string_keys", `Quick, test_string_keys);
    ("fold_iter_to_list", `Quick, test_fold_iter_to_list);
    ("to_seq", `Quick, test_to_seq);
    ("full_collisions_lnode", `Quick, test_full_collisions_lnode);
    ("collision_update_and_remove", `Quick, test_collision_update_and_remove);
    ("bad_hash_deep_trie", `Quick, test_bad_hash_deep_trie);
    ("expansions_happen", `Quick, test_expansions_happen);
    ("compression_reclaims", `Quick, test_compression_reclaims);
    ("cache_gets_installed", `Slow, test_cache_gets_installed);
    ("cache_correct_after_removals", `Slow, test_cache_correct_after_removals);
    ("cache_correct_after_updates", `Slow, test_cache_correct_after_updates);
    ("no_cache_variant", `Slow, test_no_cache_variant);
    ("no_narrow_variant", `Quick, test_no_narrow_variant);
    ("low_trigger_cache", `Quick, test_low_trigger_cache);
    ("cache_level_tracks_theory", `Slow, test_cache_level_tracks_theory);
    ("cache_adjusts_up_on_growth", `Slow, test_cache_adjusts_up_on_growth);
    ("cache_aligned_after_shrink", `Slow, test_cache_aligned_after_shrink);
    ("single_level_cache_variant", `Slow, test_single_level_cache_variant);
    ("slow_path_removal_compacts", `Slow, test_slow_path_removal_compacts);
    ("depth_histogram", `Slow, test_depth_histogram);
    ("footprint_grows", `Quick, test_footprint_grows);
    ("validate_anode_layout", `Quick, test_validate_anode_layout);
    ("stats_shape", `Quick, test_stats_shape);
  ]
