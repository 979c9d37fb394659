(* A generic test battery applied to every concurrent map in the
   repository: the same sequential semantics, collision handling,
   model-agreement properties and multi-domain stress checks must hold
   for the cache-trie, the Ctrie, both hash maps, the skip list and the
   folklore open-addressing table.  The parameter is INT_MAKER rather
   than MAKER so the battery also covers constructions that only exist
   for integer keys (folklore packs keys into slot words); every
   generic MAKER coerces to INT_MAKER by functor contravariance. *)

open Ct_util

module Battery (Maker : Map_intf.INT_MAKER) = struct
  module M = Maker (Hashing.Int_key)
  module C = Maker (Hashing.Constant_hash_int)

  let check_int = Alcotest.(check int)
  let check_opt = Alcotest.(check (option int))
  let check_bool = Alcotest.(check bool)

  (* ------------------------- sequential ---------------------------- *)

  let test_empty () =
    let t = M.create () in
    check_opt "lookup" None (M.lookup t 1);
    check_bool "mem" false (M.mem t 1);
    check_int "size" 0 (M.size t);
    check_bool "is_empty" true (M.is_empty t);
    check_opt "remove" None (M.remove t 1);
    check_opt "replace" None (M.replace t 1 1)

  let test_basic_ops () =
    let t = M.create () in
    M.insert t 1 10;
    M.insert t 2 20;
    check_opt "k1" (Some 10) (M.lookup t 1);
    check_opt "k2" (Some 20) (M.lookup t 2);
    check_opt "absent" None (M.lookup t 3);
    check_int "size" 2 (M.size t);
    check_bool "not empty" false (M.is_empty t)

  let test_overwrite () =
    let t = M.create () in
    M.insert t 5 1;
    M.insert t 5 2;
    check_opt "latest" (Some 2) (M.lookup t 5);
    check_int "size" 1 (M.size t)

  let test_add_prev () =
    let t = M.create () in
    check_opt "first" None (M.add t 7 70);
    check_opt "second" (Some 70) (M.add t 7 71);
    check_opt "final" (Some 71) (M.lookup t 7)

  let test_put_if_absent () =
    let t = M.create () in
    check_opt "installs" None (M.put_if_absent t 3 30);
    check_opt "declines" (Some 30) (M.put_if_absent t 3 31);
    check_opt "kept" (Some 30) (M.lookup t 3)

  let test_replace () =
    let t = M.create () in
    check_opt "absent no-op" None (M.replace t 4 40);
    check_opt "still absent" None (M.lookup t 4);
    M.insert t 4 40;
    check_opt "replaces" (Some 40) (M.replace t 4 41);
    check_opt "new value" (Some 41) (M.lookup t 4)

  let test_replace_if () =
    let t = M.create () in
    check_bool "absent fails" false (M.replace_if t 1 ~expected:0 5);
    M.insert t 1 10;
    check_bool "wrong expected fails" false (M.replace_if t 1 ~expected:11 5);
    check_opt "unchanged" (Some 10) (M.lookup t 1);
    check_bool "right expected wins" true (M.replace_if t 1 ~expected:10 5);
    check_opt "changed" (Some 5) (M.lookup t 1)

  let test_remove_if () =
    let t = M.create () in
    check_bool "absent fails" false (M.remove_if t 1 ~expected:0);
    M.insert t 1 10;
    check_bool "wrong expected fails" false (M.remove_if t 1 ~expected:11);
    check_opt "still there" (Some 10) (M.lookup t 1);
    check_bool "right expected removes" true (M.remove_if t 1 ~expected:10);
    check_opt "gone" None (M.lookup t 1);
    check_bool "second attempt fails" false (M.remove_if t 1 ~expected:10)

  let test_remove () =
    let t = M.create () in
    M.insert t 1 10;
    M.insert t 2 20;
    check_opt "removed" (Some 10) (M.remove t 1);
    check_opt "gone" None (M.lookup t 1);
    check_opt "survivor" (Some 20) (M.lookup t 2);
    check_opt "again" None (M.remove t 1);
    check_int "size" 1 (M.size t)

  let test_churn () =
    let t = M.create () in
    for round = 1 to 4 do
      for i = 0 to 199 do
        M.insert t i (i + round)
      done;
      for i = 0 to 199 do
        if M.lookup t i <> Some (i + round) then Alcotest.failf "round %d lost %d" round i
      done;
      for i = 0 to 199 do
        if M.remove t i <> Some (i + round) then Alcotest.failf "round %d remove %d" round i
      done;
      check_int "emptied" 0 (M.size t)
    done

  let test_many_keys () =
    let n = 10_000 in
    let t = M.create () in
    for i = 0 to n - 1 do
      M.insert t i (i * 2)
    done;
    check_int "size" n (M.size t);
    for i = 0 to n - 1 do
      if M.lookup t i <> Some (i * 2) then Alcotest.failf "lost %d" i
    done;
    for i = n to n + 50 do
      check_opt "absent" None (M.lookup t i)
    done

  let test_negative_keys () =
    let t = M.create () in
    let keys = [ min_int; -12345; -1; 0; 1; 12345; max_int ] in
    List.iteri (fun i k -> M.insert t k i) keys;
    List.iteri (fun i k -> check_opt "neg key" (Some i) (M.lookup t k)) keys;
    check_int "distinct" (List.length keys) (M.size t)

  let test_aggregates () =
    let t = M.create () in
    for i = 1 to 50 do
      M.insert t i i
    done;
    check_int "fold" 1275 (M.fold (fun a _ v -> a + v) 0 t);
    let seen = ref 0 in
    M.iter (fun k v -> if k = v then incr seen) t;
    check_int "iter" 50 !seen;
    let l = M.to_list t in
    check_int "to_list" 50 (List.length l);
    Alcotest.(check (list int))
      "sorted keys" (List.init 50 (fun i -> i + 1))
      (List.sort compare (List.map fst l))

  let test_footprint () =
    let t = M.create () in
    let empty = M.footprint_words t in
    for i = 0 to 499 do
      M.insert t i i
    done;
    let filled = M.footprint_words t in
    check_bool "empty >= 0" true (empty >= 0);
    check_bool "filled > empty" true (filled > empty)

  (* ------------------------- collisions ---------------------------- *)

  let test_full_collisions () =
    let t = C.create () in
    for i = 0 to 15 do
      C.insert t i (100 + i)
    done;
    check_int "size" 16 (C.size t);
    for i = 0 to 15 do
      check_opt "collider" (Some (100 + i)) (C.lookup t i)
    done;
    check_opt "absent" None (C.lookup t 99);
    C.insert t 7 777;
    check_opt "updated" (Some 777) (C.lookup t 7);
    for i = 0 to 14 do
      check_bool "removed" true (C.remove t i <> None)
    done;
    check_int "one left" 1 (C.size t);
    check_opt "survivor" (Some 115) (C.lookup t 15)

  (* --------------------- read-path agreement ----------------------- *)

  (* [find], [mem] and [lookup] are three renderings of one read: on a
     random history they must agree at every step, both on the
     well-hashed map and on the all-collisions map (LNode path). *)
  let test_read_agreement () =
    let rng = Rng.create 0xA9EE in
    let t = M.create () in
    let c = C.create () in
    for _ = 1 to 2_000 do
      let k = Rng.next_int rng 64 in
      (match Rng.next_int rng 3 with
      | 0 ->
          M.insert t k (k * 3);
          C.insert c k (k * 3)
      | 1 ->
          ignore (M.remove t k);
          ignore (C.remove c k)
      | _ -> ());
      let l = M.lookup t k in
      check_bool "mem agrees with lookup" (l <> None) (M.mem t k);
      (match M.find t k with
      | v -> check_opt "find agrees with lookup" (Some v) l
      | exception Not_found -> check_opt "find agrees with lookup" None l);
      let lc = C.lookup c k in
      check_bool "collision mem agrees" (lc <> None) (C.mem c k);
      match C.find c k with
      | v -> check_opt "collision find agrees" (Some v) lc
      | exception Not_found -> check_opt "collision find agrees" None lc
    done

  (* ------------------------- batched lookup ------------------------ *)

  (* Sequential [find_batch] contract: a batch IS the loop of [find].
     Runs against both hash regimes — the staged trie/probe descent and
     the all-collisions chain paths — with batches larger than any
     implementation's chunk size (64) so the multi-chunk path executes,
     and with the extreme keys so packed-key edge cases (the folklore
     table's reserved [min_int]) are covered. *)
  module Batch_checks (X : Map_intf.CONCURRENT_MAP with type key = int) =
  struct
    let check_int = Alcotest.(check int)

    let roundtrip () =
      let t = X.create () in
      let n = 300 in
      let keys =
        Array.append
          (Array.init n (fun i -> i * 131 mod n))
          [| min_int; max_int; -7 |]
      in
      let m = Array.length keys in
      (* Odd values, so an even [miss] sentinel is never a real hit. *)
      let vals = Array.map (fun k -> (k * 2) + 1) keys in
      Array.iteri (fun i k -> X.insert t k vals.(i)) keys;
      check_int "size after inserts" m (X.size t);
      let out = Array.make m 0 in
      check_int "all keys hit" m (X.find_batch t keys ~miss:0 out);
      Array.iteri
        (fun i v ->
          if v <> vals.(i) then Alcotest.failf "slot %d: %d <> %d" i v vals.(i))
        out;
      (* Remove half; the batch must report the rest as misses. *)
      let half = m / 2 in
      for i = 0 to half - 1 do
        ignore (X.remove t keys.(i))
      done;
      check_int "hits after remove" (m - half) (X.find_batch t keys ~miss:0 out);
      Array.iteri
        (fun i v ->
          let expect = if i < half then 0 else vals.(i) in
          if v <> expect then
            Alcotest.failf "slot %d after remove: %d <> %d" i v expect)
        out;
      check_int "empty find" 0 (X.find_batch t [||] ~miss:0 [||]);
      match X.find_batch t [| 1; 2 |] ~miss:0 [| 0 |] with
      | _ -> Alcotest.fail "short out array accepted"
      | exception Invalid_argument _ -> ()
  end

  module MB = Batch_checks (M)
  module CB = Batch_checks (C)

  (* ----------------------- model agreement ------------------------- *)

  let prop_model ops =
    let t = M.create () in
    let model = Hashtbl.create 64 in
    List.iter
      (fun (tag, k, v) ->
        match tag mod 4 with
        | 0 ->
            let pm = Hashtbl.find_opt model k in
            let pt = M.add t k v in
            Hashtbl.replace model k v;
            if pm <> pt then QCheck.Test.fail_reportf "add prev mismatch on %d" k
        | 1 ->
            let pm = Hashtbl.find_opt model k in
            let pt = M.remove t k in
            Hashtbl.remove model k;
            if pm <> pt then QCheck.Test.fail_reportf "remove prev mismatch on %d" k
        | 2 ->
            if M.lookup t k <> Hashtbl.find_opt model k then
              QCheck.Test.fail_reportf "lookup mismatch on %d" k
        | _ ->
            let pm = Hashtbl.find_opt model k in
            let pt = M.put_if_absent t k v in
            if pm = None then Hashtbl.replace model k v;
            if pm <> pt then QCheck.Test.fail_reportf "pia mismatch on %d" k)
      ops;
    Hashtbl.fold
      (fun k v ok -> ok && M.lookup t k = Some v)
      model
      (M.size t = Hashtbl.length model)

  let model_test =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:120 ~name:"agrees with Hashtbl model"
         QCheck.(list (triple small_nat (int_bound 47) (int_bound 999)))
         prop_model)

  (* ------------------------- concurrency --------------------------- *)

  let n_domains = 4

  let spawn_all n f =
    let barrier = Atomic.make 0 in
    List.init n (fun d ->
        Domain.spawn (fun () ->
            Atomic.incr barrier;
            while Atomic.get barrier < n do
              Domain.cpu_relax ()
            done;
            f d))
    |> List.map Domain.join

  let test_conc_disjoint () =
    let t = M.create () in
    let per = 5_000 in
    ignore
      (spawn_all n_domains (fun d ->
           for i = 0 to per - 1 do
             M.insert t ((d * per) + i) d
           done));
    check_int "all present" (n_domains * per) (M.size t);
    for d = 0 to n_domains - 1 do
      for i = 0 to per - 1 do
        if M.lookup t ((d * per) + i) <> Some d then
          Alcotest.failf "lost key %d" ((d * per) + i)
      done
    done

  let test_conc_overlapping () =
    let t = M.create () in
    let n = 8_000 in
    ignore
      (spawn_all n_domains (fun d ->
           for i = 0 to n - 1 do
             M.insert t i d
           done));
    check_int "n keys" n (M.size t);
    for i = 0 to n - 1 do
      match M.lookup t i with
      | Some v when v >= 0 && v < n_domains -> ()
      | _ -> Alcotest.failf "bad value for %d" i
    done

  let test_conc_pia_winners () =
    let t = M.create () in
    let n = 4_000 in
    let wins =
      spawn_all n_domains (fun d ->
          let w = ref 0 in
          for i = 0 to n - 1 do
            if M.put_if_absent t i d = None then incr w
          done;
          !w)
    in
    check_int "one winner per key" n (List.fold_left ( + ) 0 wins)

  let test_conc_insert_remove () =
    let t = M.create () in
    let per = 2_000 in
    ignore
      (spawn_all n_domains (fun d ->
           let base = d * per in
           for round = 1 to 4 do
             for i = 0 to per - 1 do
               M.insert t (base + i) round
             done;
             for i = 0 to per - 1 do
               if M.remove t (base + i) = None then
                 failwith (Printf.sprintf "domain %d lost %d" d (base + i))
             done
           done));
    check_int "emptied" 0 (M.size t)

  let test_conc_mixed_single_key () =
    let t = M.create () in
    ignore
      (spawn_all n_domains (fun d ->
           for i = 1 to 5_000 do
             match (i + d) land 3 with
             | 0 -> M.insert t 99 ((d * 10_000) + i)
             | 1 -> ignore (M.lookup t 99)
             | 2 -> ignore (M.remove t 99)
             | _ -> ignore (M.put_if_absent t 99 d)
           done));
    (* Converge to a known state. *)
    M.insert t 99 1234;
    check_opt "usable after contention" (Some 1234) (M.lookup t 99)

  let test_conc_counter_exact () =
    (* Lost-update detection: every increment goes through the
       replace_if compare-and-swap, so the final sum must be exact. *)
    let t = M.create () in
    let keys = 16 and per_domain = 2_000 in
    for k = 0 to keys - 1 do
      M.insert t k 0
    done;
    ignore
      (spawn_all n_domains (fun d ->
           let rng = Ct_util.Rng.create (d + 1) in
           for _ = 1 to per_domain do
             let k = Ct_util.Rng.next_int rng keys in
             let rec bump () =
               match M.lookup t k with
               | Some v -> if not (M.replace_if t k ~expected:v (v + 1)) then bump ()
               | None -> bump ()
             in
             bump ()
           done));
    check_int "no lost updates" (n_domains * per_domain)
      (M.fold (fun a _ v -> a + v) 0 t)

  let test_weak_aggregates_under_churn () =
    (* Weak-consistency contract of the aggregates: while writers churn
       a volatile key range, iteration must always include every key of
       a stable range (present throughout) and never double-count it. *)
    let t = M.create () in
    let stable = 500 and volatile = 500 in
    for i = 0 to stable - 1 do
      M.insert t i 1
    done;
    let stop = Atomic.make false in
    let writer =
      Domain.spawn (fun () ->
          let i = ref 0 in
          while not (Atomic.get stop) do
            let k = stable + (!i mod volatile) in
            M.insert t k 1;
            ignore (M.remove t (stable + ((!i + (volatile / 2)) mod volatile)));
            incr i
          done)
    in
    for _pass = 1 to 50 do
      let stable_seen = Array.make stable 0 in
      M.iter (fun k _ -> if k < stable then stable_seen.(k) <- stable_seen.(k) + 1) t;
      Array.iteri
        (fun k c ->
          if c <> 1 then begin
            Atomic.set stop true;
            Alcotest.failf "stable key %d seen %d times in iter" k c
          end)
        stable_seen;
      let n = M.size t in
      if n < stable || n > stable + volatile then begin
        Atomic.set stop true;
        Alcotest.failf "size %d outside [%d, %d]" n stable (stable + volatile)
      end
    done;
    Atomic.set stop true;
    Domain.join writer

  (* ----------------------- validate & scrub ------------------------ *)

  let check_valid what = function
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: validate failed: %s" what e

  let test_validate_quiescent () =
    let t = M.create () in
    check_valid "empty" (M.validate t);
    for i = 0 to 499 do
      M.insert t i (i * 7)
    done;
    for i = 0 to 499 do
      if i land 3 = 0 then ignore (M.remove t i)
    done;
    check_valid "after churn" (M.validate t);
    let c = C.create () in
    for i = 0 to 15 do
      C.insert c i i
    done;
    for i = 0 to 7 do
      ignore (C.remove c i)
    done;
    check_valid "collision map" (C.validate c)

  (* No domain crashed, so quiescence implies residue-freedom: every
     completed operation cleaned up after itself. *)
  let test_validate_after_contention () =
    let t = M.create () in
    ignore
      (spawn_all n_domains (fun d ->
           let rng = Ct_util.Rng.create (0x5C4B + d) in
           for _ = 1 to 3_000 do
             let k = Ct_util.Rng.next_int rng 256 in
             match Ct_util.Rng.next_int rng 3 with
             | 0 -> M.insert t k (k + d)
             | 1 -> ignore (M.remove t k)
             | _ -> ignore (M.lookup t k)
           done));
    check_valid "quiescent after contention" (M.validate t)

  (* Scrub on a quiescent structure: preserves the contents exactly,
     leaves it valid, and a second pass finds nothing left to repair
     (idempotence).  The first pass may legitimately count repairs —
     e.g. clearing benignly-stale cache entries — but never a second
     time. *)
  let prop_scrub ops =
    let t = M.create () in
    List.iter
      (fun (tag, k, v) ->
        match tag mod 3 with
        | 0 -> M.insert t k v
        | 1 -> ignore (M.remove t k)
        | _ -> ignore (M.put_if_absent t k v))
      ops;
    let sorted l = List.sort compare l in
    let before = sorted (M.to_list t) in
    let _first_pass : int = M.scrub t in
    (match M.validate t with
    | Ok () -> ()
    | Error e -> QCheck.Test.fail_reportf "validate after scrub: %s" e);
    if sorted (M.to_list t) <> before then
      QCheck.Test.fail_reportf "scrub changed the contents";
    let second = M.scrub t in
    if second <> 0 then
      QCheck.Test.fail_reportf "second scrub repaired %d things" second;
    true

  let scrub_test =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:60
         ~name:"scrub is idempotent and content-preserving"
         QCheck.(list (triple small_nat (int_bound 47) (int_bound 999)))
         prop_scrub)

  let test_conc_collisions () =
    let t = C.create () in
    ignore
      (spawn_all n_domains (fun d ->
           for round = 1 to 100 do
             for k = 0 to 7 do
               C.insert t k ((d * 1000) + round);
               if (k + d) land 1 = 0 then ignore (C.remove t k);
               ignore (C.lookup t k)
             done
           done));
    for k = 0 to 7 do
      C.insert t k k
    done;
    for k = 0 to 7 do
      check_opt "collider converged" (Some k) (C.lookup t k)
    done

  (* Batch/scalar read agreement under concurrent writers: writers only
     ever bind k to k*7, so every find_batch slot must read either the
     miss sentinel or k*7, and the returned hit count must match the
     non-miss slots.  Once the writers join, batch and scalar reads
     must agree exactly. *)
  let test_batch_scalar_agreement () =
    let t = M.create () in
    let universe = 1024 in
    let stop = Atomic.make false in
    let writers =
      List.init 2 (fun d ->
          Domain.spawn (fun () ->
              let rng = Ct_util.Rng.create (0xBA7C + d) in
              while not (Atomic.get stop) do
                let k = Ct_util.Rng.next_int rng universe in
                if Ct_util.Rng.next_int rng 2 = 0 then M.insert t k (k * 7)
                else ignore (M.remove t k)
              done))
    in
    (* A permutation, so chunks mix hot and cold trie paths. *)
    let keys = Array.init universe (fun i -> i * 37 mod universe) in
    let out = Array.make universe (-1) in
    for _pass = 1 to 50 do
      let hits = M.find_batch t keys ~miss:(-1) out in
      let counted = ref 0 in
      Array.iteri
        (fun i v ->
          if v <> -1 then begin
            let k = keys.(i) in
            if v <> k * 7 then begin
              Atomic.set stop true;
              Alcotest.failf "key %d read %d (neither miss nor %d)" k v (k * 7)
            end;
            incr counted
          end)
        out;
      if !counted <> hits then begin
        Atomic.set stop true;
        Alcotest.failf "hit count %d but %d non-miss slots" hits !counted
      end
    done;
    Atomic.set stop true;
    List.iter Domain.join writers;
    let hits = M.find_batch t keys ~miss:(-1) out in
    let scalar_hits = ref 0 in
    Array.iteri
      (fun i v ->
        let k = keys.(i) in
        match M.find t k with
        | sv ->
            incr scalar_hits;
            if v <> sv then Alcotest.failf "quiescent: key %d batch %d scalar %d" k v sv
        | exception Not_found ->
            if v <> -1 then Alcotest.failf "quiescent: key %d batch %d scalar miss" k v)
      out;
    check_int "quiescent hit counts agree" !scalar_hits hits

  let suite =
    [
      ("empty", `Quick, test_empty);
      ("basic_ops", `Quick, test_basic_ops);
      ("overwrite", `Quick, test_overwrite);
      ("add_prev", `Quick, test_add_prev);
      ("put_if_absent", `Quick, test_put_if_absent);
      ("replace", `Quick, test_replace);
      ("replace_if", `Quick, test_replace_if);
      ("remove_if", `Quick, test_remove_if);
      ("remove", `Quick, test_remove);
      ("churn", `Quick, test_churn);
      ("many_keys", `Quick, test_many_keys);
      ("negative_keys", `Quick, test_negative_keys);
      ("aggregates", `Quick, test_aggregates);
      ("footprint", `Quick, test_footprint);
      ("full_collisions", `Quick, test_full_collisions);
      ("read_agreement", `Quick, test_read_agreement);
      ("batch_roundtrip", `Quick, MB.roundtrip);
      ("batch_collisions", `Quick, CB.roundtrip);
      ("validate_quiescent", `Quick, test_validate_quiescent);
      model_test;
      scrub_test;
      ("conc_disjoint", `Slow, test_conc_disjoint);
      ("conc_overlapping", `Slow, test_conc_overlapping);
      ("conc_pia_winners", `Slow, test_conc_pia_winners);
      ("conc_insert_remove", `Slow, test_conc_insert_remove);
      ("conc_mixed_single_key", `Slow, test_conc_mixed_single_key);
      ("conc_counter_exact", `Slow, test_conc_counter_exact);
      ("weak_aggregates_under_churn", `Slow, test_weak_aggregates_under_churn);
      ("conc_collisions", `Slow, test_conc_collisions);
      ("batch_scalar_agreement", `Slow, test_batch_scalar_agreement);
      ("validate_after_contention", `Slow, test_validate_after_contention);
    ]
end

module Cachetrie_battery = Battery (Cachetrie.Make)
module Boxed_cachetrie_battery = Battery (Variants.Boxed_cachetrie)
module Ctrie_battery = Battery (Variants.Deep_ctrie)
module Ctrie_snap_battery = Battery (Ctrie_snap.Make)
module Chm_battery = Battery (Chm.Split_ordered.Make)
module Striped_battery = Battery (Chm.Striped.Make)
module Skiplist_battery = Battery (Skiplist.Make)
module Cow_battery = Battery (Variants.Cow_clone)

(* The folklore open-addressing table only constructs over int keys
   (it packs them into slot words); the INT_MAKER battery covers it in
   full, including the migration paths its growth thresholds hit. *)
module Folklore_battery = Battery (Oa.Folklore.Make)
