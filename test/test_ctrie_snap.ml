(* Tests for the snapshotting Ctrie (PPoPP 2012): entombment and
   contraction, pathological hashes, GCAS/RDCSS snapshot semantics and
   the persistence snapshots give, on top of the shared battery
   coverage. *)

open Ct_util
module CS = Ctrie_snap.Make (Hashing.Int_key)
module CS_bad = Ctrie_snap.Make (Hashing.Bad_hash_int)

let check_int = Alcotest.(check int)
let check_opt = Alcotest.(check (option int))
let check_bool = Alcotest.(check bool)

let assert_valid name validate t =
  match validate t with Ok () -> () | Error e -> Alcotest.failf "%s: %s" name e

(* ------------------- entombment and contraction -------------------- *)

let test_contraction_after_removals () =
  (* Fill enough to create inner CNodes, remove everything; entombment
     plus clean_parent must leave a working, compact trie. *)
  let t = CS.create () in
  let n = 5_000 in
  for i = 0 to n - 1 do
    CS.insert t i i
  done;
  for i = 0 to n - 1 do
    if CS.remove t i <> Some i then Alcotest.failf "remove lost %d" i
  done;
  check_int "empty" 0 (CS.size t);
  (* Reuse after total contraction. *)
  for i = 0 to 99 do
    CS.insert t i (-i)
  done;
  for i = 0 to 99 do
    check_opt "reusable" (Some (-i)) (CS.lookup t i)
  done;
  (* A two-level cascade: [a] and [b] split two levels down, so
     removing [b] entombs two I-nodes in turn. *)
  let t = CS_bad.create () in
  let a = 1 and b = 1 + (1 lsl 10) in
  CS_bad.insert t a a;
  CS_bad.insert t b b;
  check_opt "cascade remove" (Some b) (CS_bad.remove t b);
  assert_valid "after the cascade" CS_bad.validate t;
  check_opt "survivor" (Some a) (CS_bad.lookup t a)

let test_tomb_then_lookup () =
  (* Two deep-colliding keys (identity hash): removing one entombs the
     other; lookups must keep finding it through the tomb. *)
  let t = CS_bad.create () in
  let k1 = 0b1_00000 and k2 = 0b10_00000 in
  (* same lowest 5 bits *)
  CS_bad.insert t k1 1;
  CS_bad.insert t k2 2;
  check_opt "both in" (Some 1) (CS_bad.lookup t k1);
  check_opt "remove k1" (Some 1) (CS_bad.remove t k1);
  check_opt "k2 via tomb" (Some 2) (CS_bad.lookup t k2);
  check_opt "k2 update ok" (Some 2) (CS_bad.add t k2 22);
  check_opt "k2 new" (Some 22) (CS_bad.lookup t k2);
  check_int "one key" 1 (CS_bad.size t)

let test_deep_chains () =
  let t = CS_bad.create () in
  let n = 2_000 in
  for i = 0 to n - 1 do
    CS_bad.insert t (i * 32) i (* share lowest 5 bits -> deep CNode chain *)
  done;
  check_int "size" n (CS_bad.size t);
  for i = 0 to n - 1 do
    if CS_bad.lookup t (i * 32) <> Some i then Alcotest.failf "lost %d" i
  done

let test_lnode_entomb () =
  let module CC = Ctrie_snap.Make (Hashing.Constant_hash_int) in
  let t = CC.create () in
  CC.insert t 1 10;
  CC.insert t 2 20;
  CC.insert t 3 30;
  check_opt "removed from lnode" (Some 20) (CC.remove t 2);
  check_opt "remaining 1" (Some 10) (CC.lookup t 1);
  check_opt "remaining 3" (Some 30) (CC.lookup t 3);
  (* Down to one: the LNode entombs into a TNode. *)
  check_opt "removed 1" (Some 10) (CC.remove t 1);
  check_opt "survivor" (Some 30) (CC.lookup t 3);
  CC.insert t 4 40;
  check_opt "growable again" (Some 40) (CC.lookup t 4);
  check_int "size 2" 2 (CC.size t)

(* Property: structural invariants hold after arbitrary op sequences,
   including under pathological hashes. *)
let prop_invariants to_key ops =
  let t = CS_bad.create () in
  List.iter
    (fun (tag, k, v) ->
      let k = to_key k in
      match tag mod 3 with
      | 0 -> CS_bad.insert t k v
      | 1 -> ignore (CS_bad.remove t k)
      | _ -> ignore (CS_bad.put_if_absent t k v))
    ops;
  match CS_bad.validate t with
  | Ok () -> true
  | Error e -> QCheck.Test.fail_reportf "ctrie invariant violated: %s" e

let prop_invariants_mixed ops =
  let t = CS.create () in
  List.iter
    (fun (tag, k, v) ->
      match tag mod 3 with
      | 0 -> CS.insert t k v
      | 1 -> ignore (CS.remove t k)
      | _ -> ignore (CS.replace t k v))
    ops;
  match CS.validate t with
  | Ok () -> true
  | Error e -> QCheck.Test.fail_reportf "ctrie invariant violated: %s" e

let qchecks =
  List.map
    (QCheck_alcotest.to_alcotest ~long:false)
    [
      QCheck.Test.make ~count:150 ~name:"ctrie invariants (mixed hashes)"
        QCheck.(list (triple small_nat (int_bound 63) (int_bound 999)))
        prop_invariants_mixed;
      QCheck.Test.make ~count:100 ~name:"ctrie invariants (deep identity hashes)"
        QCheck.(list (triple small_nat (int_bound 31) (int_bound 999)))
        (prop_invariants (fun k -> k * 1024));
      QCheck.Test.make ~count:100 ~name:"ctrie invariants (shallow identity hashes)"
        QCheck.(list (triple small_nat (int_bound 31) (int_bound 999)))
        (prop_invariants (fun k -> k));
    ]

let test_validate_after_concurrency () =
  let t = CS.create () in
  let barrier = Atomic.make 0 in
  let n_domains = 4 in
  let workers =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            Atomic.incr barrier;
            while Atomic.get barrier < n_domains do
              Domain.cpu_relax ()
            done;
            for round = 1 to 3 do
              for i = 0 to 2_999 do
                match (i + d + round) land 3 with
                | 0 | 1 -> CS.insert t i (d + i)
                | 2 -> ignore (CS.remove t i)
                | _ -> ignore (CS.lookup t i)
              done
            done))
  in
  List.iter Domain.join workers;
  match CS.validate t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "post-concurrency invariant: %s" e

(* ---------------------------- snapshots ---------------------------- *)

let test_snapshot_isolates_original () =
  let t = CS.create () in
  for i = 0 to 999 do
    CS.insert t i i
  done;
  let s = CS.snapshot t in
  (* Mutate the original heavily. *)
  for i = 0 to 999 do
    CS.insert t i (i * 100)
  done;
  for i = 1000 to 1999 do
    CS.insert t i i
  done;
  for i = 0 to 499 do
    ignore (CS.remove t i)
  done;
  (* The snapshot still shows the old world. *)
  check_int "snapshot size" 1000 (CS.size s);
  for i = 0 to 999 do
    if CS.lookup s i <> Some i then Alcotest.failf "snapshot key %d changed" i
  done;
  check_opt "snapshot lacks new keys" None (CS.lookup s 1500)

let test_snapshot_isolates_snapshot () =
  let t = CS.create () in
  for i = 0 to 499 do
    CS.insert t i i
  done;
  let s = CS.snapshot t in
  (* Mutate the snapshot; the original must not see it. *)
  for i = 0 to 499 do
    CS.insert s i (-i)
  done;
  CS.insert s 9999 1;
  for i = 0 to 499 do
    if CS.lookup t i <> Some i then Alcotest.failf "original key %d changed" i
  done;
  check_opt "original lacks snapshot-only key" None (CS.lookup t 9999);
  check_opt "snapshot sees own writes" (Some (-42)) (CS.lookup s 42)

let test_snapshot_of_snapshot () =
  let t = CS.create () in
  CS.insert t 1 1;
  let s1 = CS.snapshot t in
  CS.insert t 2 2;
  let s2 = CS.snapshot t in
  CS.insert t 3 3;
  let s3 = CS.snapshot s1 in
  CS.insert s1 4 4;
  check_int "t has 3" 3 (CS.size t);
  check_int "s1 has 2 (1 + own insert)" 2 (CS.size s1);
  check_int "s2 has 2" 2 (CS.size s2);
  check_int "s3 has 1" 1 (CS.size s3);
  check_opt "s3 untouched by s1's insert" None (CS.lookup s3 4)

let test_empty_snapshot () =
  let t = CS.create () in
  let s = CS.snapshot t in
  check_int "empty" 0 (CS.size s);
  CS.insert s 1 1;
  check_int "snapshot usable" 1 (CS.size s);
  check_int "original still empty" 0 (CS.size t)

let test_snapshot_prefix_consistency () =
  (* One writer inserts keys in ascending order while another domain
     takes snapshots: every snapshot must be a prefix {0..j-1} of the
     insert sequence — the linearizability of snapshot made visible. *)
  let t = CS.create () in
  let n = 20_000 in
  let barrier = Atomic.make 0 in
  let arrive () =
    Atomic.incr barrier;
    while Atomic.get barrier < 2 do
      Domain.cpu_relax ()
    done
  in
  let writer =
    Domain.spawn (fun () ->
        arrive ();
        for i = 0 to n - 1 do
          CS.insert t i i
        done)
  in
  let snapshotter =
    Domain.spawn (fun () ->
        arrive ();
        let sizes = ref [] in
        for _ = 1 to 50 do
          let s = CS.snapshot t in
          let contents = CS.to_list s in
          let size = List.length contents in
          (* Prefix property: exactly the keys 0..size-1. *)
          let sorted = List.sort compare (List.map fst contents) in
          if sorted <> List.init size Fun.id then
            failwith "snapshot is not a prefix of the insertion order";
          sizes := size :: !sizes
        done;
        List.rev !sizes)
  in
  Domain.join writer;
  let sizes = Domain.join snapshotter in
  (* Sizes are monotonically non-decreasing across snapshots. *)
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  check_bool "snapshot sizes monotone" true (monotone sizes);
  check_int "final size" n (CS.size t)

let test_concurrent_snapshot_remove () =
  (* Writer removes keys in ascending order; snapshots must be
     suffixes. *)
  let t = CS.create () in
  let n = 10_000 in
  for i = 0 to n - 1 do
    CS.insert t i i
  done;
  let barrier = Atomic.make 0 in
  let arrive () =
    Atomic.incr barrier;
    while Atomic.get barrier < 2 do
      Domain.cpu_relax ()
    done
  in
  let remover =
    Domain.spawn (fun () ->
        arrive ();
        for i = 0 to n - 1 do
          ignore (CS.remove t i)
        done)
  in
  let snapshotter =
    Domain.spawn (fun () ->
        arrive ();
        for _ = 1 to 30 do
          let s = CS.snapshot t in
          let keys = List.sort compare (List.map fst (CS.to_list s)) in
          let size = List.length keys in
          if keys <> List.init size (fun i -> n - size + i) then
            failwith "snapshot is not a suffix under ordered removal"
        done;
        true)
  in
  Domain.join remover;
  check_bool "snapshots were suffixes" true (Domain.join snapshotter);
  check_int "emptied" 0 (CS.size t)

let test_fold_snapshot_consistent_total () =
  (* Concurrent value bumps preserve a per-snapshot invariant: with
     each writer moving value mass between two fixed keys using
     replace_if, every linearizable snapshot sees the same total. *)
  let t = CS.create () in
  CS.insert t 0 1000;
  CS.insert t 1 1000;
  let stop = Atomic.make false in
  let mover =
    Domain.spawn (fun () ->
        let rng = Rng.create 99 in
        while not (Atomic.get stop) do
          let src = Rng.next_int rng 2 in
          let dst = 1 - src in
          match (CS.lookup t src, CS.lookup t dst) with
          | Some a, Some b when a > 0 ->
              if CS.replace_if t src ~expected:a (a - 1) then begin
                (* Not atomic across keys; rebalance via a second CAS
                   loop so the grand total is eventually restored. *)
                let rec deposit () =
                  match CS.lookup t dst with
                  | Some cur -> if not (CS.replace_if t dst ~expected:cur (cur + 1)) then deposit ()
                  | None -> ()
                in
                ignore b;
                deposit ()
              end
          | _ -> ()
        done)
  in
  (* The mover's two steps are not jointly atomic, so totals in a
     snapshot can be off by at most the number of in-flight transfers
     (here: one). *)
  for _ = 1 to 200 do
    let total = CS.fold_snapshot (fun acc _ v -> acc + v) 0 t in
    if total < 1999 || total > 2001 then
      Alcotest.failf "snapshot total %d out of bounds" total
  done;
  Atomic.set stop true;
  Domain.join mover

(* Linearizability of snapshot itself: record concurrent histories
   where one op is "take a snapshot and report its size"; check them
   against a sequential spec where that op returns the model size. *)
let test_snapshot_size_linearizable () =
  let module L = struct
    type op = Ins of int * int | Rem of int | Snap_size

    let apply t = function
      | Ins (k, v) ->
          CS.insert t k v;
          -1
      | Rem k -> ( match CS.remove t k with Some v -> v | None -> -1)
      | Snap_size -> CS.size (CS.snapshot t)

    let seq_apply model = function
      | Ins (k, v) -> ((k, v) :: List.remove_assoc k model, -1)
      | Rem k -> (
          match List.assoc_opt k model with
          | Some v -> (List.remove_assoc k model, v)
          | None -> (model, -1))
      | Snap_size -> (model, List.length model)
  end in
  let rng = Rng.create 4242 in
  for _trial = 1 to 25 do
    let t = CS.create () in
    let clock = Atomic.make 0 in
    let script _d =
      List.init 5 (fun _ ->
          match Rng.next_int rng 5 with
          | 0 | 1 -> L.Ins (Rng.next_int rng 3, Rng.next_int rng 50)
          | 2 -> L.Rem (Rng.next_int rng 3)
          | _ -> L.Snap_size)
    in
    let scripts = List.init 3 script in
    let barrier = Atomic.make 0 in
    let run thread script =
      Atomic.incr barrier;
      while Atomic.get barrier < 3 do
        Domain.cpu_relax ()
      done;
      List.map
        (fun op ->
          let inv = Atomic.fetch_and_add clock 1 in
          let result = L.apply t op in
          let res = Atomic.fetch_and_add clock 1 in
          (thread, op, result, inv, res))
        script
    in
    let events =
      List.concat_map Domain.join
        (List.mapi (fun i s -> Domain.spawn (fun () -> run i s)) scripts)
    in
    (* Wing-Gong search over the custom op set. *)
    let threads =
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun ((th, _, _, _, _) as e) ->
          Hashtbl.replace tbl th (e :: (try Hashtbl.find tbl th with Not_found -> [])))
        events;
      Hashtbl.fold
        (fun _ evs acc ->
          Array.of_list
            (List.sort (fun (_, _, _, a, _) (_, _, _, b, _) -> compare a b) evs)
          :: acc)
        tbl []
      |> Array.of_list
    in
    let total = List.length events in
    let visited = Hashtbl.create 256 in
    let rec dfs progress model done_count =
      done_count = total
      ||
      let key = (Array.to_list progress, List.sort compare model) in
      if Hashtbl.mem visited key then false
      else begin
        Hashtbl.add visited key ();
        let min_res = ref max_int in
        Array.iteri
          (fun i evs ->
            if progress.(i) < Array.length evs then begin
              let _, _, _, _, res = evs.(progress.(i)) in
              min_res := min !min_res res
            end)
          threads;
        let ok = ref false in
        Array.iteri
          (fun i evs ->
            if (not !ok) && progress.(i) < Array.length evs then begin
              let _, op, result, inv, _ = evs.(progress.(i)) in
              if inv <= !min_res then begin
                let model', expected = L.seq_apply model op in
                if expected = result then begin
                  progress.(i) <- progress.(i) + 1;
                  if dfs progress model' (done_count + 1) then ok := true
                  else progress.(i) <- progress.(i) - 1
                end
              end
            end)
          threads;
        !ok
      end
    in
    if not (dfs (Array.make (Array.length threads) 0) [] 0) then
      Alcotest.failf "snapshot history not linearizable (trial %d)" _trial;
    Hashtbl.reset visited
  done

(* ------------------- persistence through snapshots ----------------- *)

(* A persistent HAMT's guarantees, with snapshots as the versions:
   every version keeps exactly the bindings it had when it was taken,
   whatever is later written to the others, and stays structurally
   valid. *)

let test_versions_are_independent () =
  let v0 = CS.create () in
  let v1 = CS.snapshot v0 in
  CS.insert v1 1 10;
  let v2 = CS.snapshot v1 in
  CS.insert v2 2 20;
  let v3 = CS.snapshot v2 in
  ignore (CS.remove v3 1);
  let v4 = CS.snapshot v2 in
  CS.insert v4 1 99;
  check_opt "v0 has nothing" None (CS.lookup v0 1);
  check_opt "v1 has 1" (Some 10) (CS.lookup v1 1);
  check_opt "v1 lacks 2" None (CS.lookup v1 2);
  check_opt "v2 has both" (Some 20) (CS.lookup v2 2);
  check_opt "v3 dropped 1" None (CS.lookup v3 1);
  check_opt "v3 kept 2" (Some 20) (CS.lookup v3 2);
  check_opt "v4 rebound 1" (Some 99) (CS.lookup v4 1);
  check_opt "v2 unchanged by v4" (Some 10) (CS.lookup v2 1);
  List.iter (assert_valid "versions" CS.validate) [ v0; v1; v2; v3; v4 ]

let test_add_returns_previous () =
  let v1 = CS.create () in
  check_opt "fresh" None (CS.add v1 5 50);
  let v2 = CS.snapshot v1 in
  check_opt "v2 sees the shared binding" (Some 50) (CS.add v2 5 51);
  check_opt "v1 sees its own" (Some 50) (CS.add v1 5 52);
  check_opt "v2 kept its write" (Some 51) (CS.lookup v2 5)

let test_remove_absent_is_noop () =
  let v1 = CS.create () in
  CS.insert v1 1 1;
  let v2 = CS.snapshot v1 in
  check_opt "no binding" None (CS.remove v2 42);
  check_opt "v2 intact" (Some 1) (CS.lookup v2 1);
  check_int "v2 size" 1 (CS.size v2);
  check_opt "v1 intact" (Some 1) (CS.lookup v1 1);
  assert_valid "after no-op remove" CS.validate v2

let test_mass_removal_collapses () =
  let n = 10_000 in
  let t = CS.create () in
  for i = 0 to n - 1 do
    CS.insert t i i
  done;
  let frozen = CS.snapshot t in
  for i = 100 to n - 1 do
    ignore (CS.remove t i)
  done;
  check_int "survivors" 100 (CS.size t);
  check_int "frozen version keeps all" n (CS.size frozen);
  assert_valid "collapsed" CS.validate t;
  assert_valid "frozen" CS.validate frozen;
  (* Contraction must also work on paths copied out of the older
     generation: 100 keys need a small fraction of 10k keys' nodes. *)
  let live = CS.footprint_words t and full = CS.footprint_words frozen in
  check_bool
    (Printf.sprintf "collapsed footprint %d vs %d words" live full)
    true
    (live * 20 < full)

let test_snapshot_collisions () =
  let module CC = Ctrie_snap.Make (Hashing.Constant_hash_int) in
  let t = CC.create () in
  for i = 0 to 9 do
    CC.insert t i (i * 2)
  done;
  let frozen = CC.snapshot t in
  for i = 0 to 8 do
    ignore (CC.remove t i)
  done;
  check_opt "last one" (Some 18) (CC.lookup t 9);
  check_int "one left" 1 (CC.size t);
  check_int "ten colliders frozen" 10 (CC.size frozen);
  for i = 0 to 9 do
    check_opt "frozen collider" (Some (i * 2)) (CC.lookup frozen i)
  done;
  assert_valid "live LNode" CC.validate t;
  assert_valid "frozen LNode" CC.validate frozen

let test_deep_identity_hashes () =
  let t = CS_bad.create () in
  for i = 0 to 999 do
    CS_bad.insert t (i * 1024) i
  done;
  let frozen = CS_bad.snapshot t in
  (* Rebinding every key copies every deep path. *)
  for i = 0 to 999 do
    CS_bad.insert t (i * 1024) (-i)
  done;
  for i = 0 to 999 do
    if CS_bad.lookup frozen (i * 1024) <> Some i then Alcotest.failf "frozen lost %d" i;
    if CS_bad.lookup t (i * 1024) <> Some (-i) then Alcotest.failf "live lost %d" i
  done;
  assert_valid "deep live" CS_bad.validate t;
  assert_valid "deep frozen" CS_bad.validate frozen

let test_many_keys_across_versions () =
  let n = 30_000 in
  let v1 = CS.create () in
  for i = 0 to n - 1 do
    CS.insert v1 i i
  done;
  let v2 = CS.snapshot v1 in
  for i = n to (2 * n) - 1 do
    CS.insert v2 i i
  done;
  for i = 0 to n - 1 do
    if i land 1 = 0 then ignore (CS.remove v1 i)
  done;
  check_int "v1 halved" (n / 2) (CS.size v1);
  check_int "v2 doubled" (2 * n) (CS.size v2);
  for i = 0 to (2 * n) - 1 do
    let in_v1 = i < n && i land 1 = 1 in
    if CS.lookup v1 i <> (if in_v1 then Some i else None) then Alcotest.failf "v1 key %d" i;
    if CS.lookup v2 i <> Some i then Alcotest.failf "v2 lost %d" i
  done;
  assert_valid "v1" CS.validate v1;
  assert_valid "v2" CS.validate v2

(* Property: every version taken along a random history agrees with the
   model map it had at that point. *)
let prop_versions ops =
  let module IM = Map.Make (Int) in
  let t = CS.create () and m = ref IM.empty and versions = ref [] in
  List.iter
    (fun (tag, k, v) ->
      match tag mod 4 with
      | 0 ->
          CS.insert t k v;
          m := IM.add k v !m
      | 1 ->
          ignore (CS.remove t k);
          m := IM.remove k !m
      | 2 ->
          if CS.lookup t k <> IM.find_opt k !m then
            QCheck.Test.fail_reportf "lookup mismatch on %d" k
      | _ -> versions := (CS.snapshot t, !m) :: !versions)
    ops;
  List.for_all
    (fun (version, model) ->
      (match CS.validate version with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "version invariants: %s" e);
      List.sort compare (CS.to_list version) = IM.bindings model)
    ((t, !m) :: !versions)

(* A snapshot of a copy-on-write clone: the ballast is shared by three
   versions and the clone's own paths are half renewed. *)
module CW = Variants.Cow_clone (Hashing.Int_key)

let test_cow_snapshot () =
  let t = CW.create () in
  for i = 0 to 99 do
    CW.insert t i i
  done;
  let s = CW.snapshot t in
  for i = 0 to 99 do
    CW.insert t i (-i)
  done;
  CW.insert t 1000 1;
  for i = 0 to 99 do
    if CW.lookup s i <> Some i then Alcotest.failf "cow snapshot key %d changed" i
  done;
  check_int "snapshot size" 100 (CW.size s);
  check_int "live size" 101 (CW.size t);
  assert_valid "clone" CW.validate t;
  assert_valid "snapshot of clone" CW.validate s

let hamt_suite =
  [
    QCheck_alcotest.to_alcotest ~long:false
      (QCheck.Test.make ~count:150 ~name:"hamt agrees with Map"
         QCheck.(list (triple small_nat (int_bound 63) (int_bound 999)))
         prop_versions);
    ("versions_are_independent", `Quick, test_versions_are_independent);
    ("add_returns_previous", `Quick, test_add_returns_previous);
    ("remove_absent_is_noop", `Quick, test_remove_absent_is_noop);
    ("many_keys_across_versions", `Quick, test_many_keys_across_versions);
    ("mass_removal_collapses", `Quick, test_mass_removal_collapses);
    ("collisions", `Quick, test_snapshot_collisions);
    ("deep_identity_hashes", `Quick, test_deep_identity_hashes);
    ("cow_snapshot", `Quick, test_cow_snapshot);
  ]

(* The Ctrie's own structure (entombment, contraction, pathological
   hashes), run on the repository's only Ctrie. *)
let ctrie_suite =
  qchecks
  @ [
      ("validate_after_concurrency", `Slow, test_validate_after_concurrency);
      ("contraction_after_removals", `Quick, test_contraction_after_removals);
      ("tomb_then_lookup", `Quick, test_tomb_then_lookup);
      ("deep_chains", `Quick, test_deep_chains);
      ("lnode_entomb", `Quick, test_lnode_entomb);
    ]

let suite =
  [
    ("snapshot_isolates_original", `Quick, test_snapshot_isolates_original);
    ("snapshot_size_linearizable", `Slow, test_snapshot_size_linearizable);
    ("snapshot_isolates_snapshot", `Quick, test_snapshot_isolates_snapshot);
    ("snapshot_of_snapshot", `Quick, test_snapshot_of_snapshot);
    ("empty_snapshot", `Quick, test_empty_snapshot);
    ("snapshot_prefix_consistency", `Slow, test_snapshot_prefix_consistency);
    ("concurrent_snapshot_remove", `Slow, test_concurrent_snapshot_remove);
    ("fold_snapshot_consistent_total", `Slow, test_fold_snapshot_consistent_total);
  ]
