(* Tests for the linearizability checker itself, plus linearizability
   runs against all four concurrent maps (paper Section 4.2). *)

open Lincheck

let check_bool = Alcotest.(check bool)

(* ------------------- the sequential specification ------------------ *)

let test_sequential_spec () =
  let m0 = [] in
  let m1, r1 = sequential_apply m0 (Insert (1, 10)) in
  check_bool "insert new" true (r1 = None);
  let _, r2 = sequential_apply m1 (Lookup 1) in
  check_bool "lookup hit" true (r2 = Some 10);
  let m3, r3 = sequential_apply m1 (Put_if_absent (1, 99)) in
  check_bool "pia declines" true (r3 = Some 10 && List.assoc 1 m3 = 10);
  let m4, r4 = sequential_apply m1 (Replace (1, 11)) in
  check_bool "replace hits" true (r4 = Some 10 && List.assoc 1 m4 = 11);
  let m5, r5 = sequential_apply m1 (Remove 1) in
  check_bool "remove" true (r5 = Some 10 && m5 = []);
  let _, r6 = sequential_apply [] (Replace (7, 1)) in
  check_bool "replace miss" true (r6 = None)

(* ---------------- checker on hand-crafted histories ---------------- *)

let ev thread op result inv res = { thread; op; result; inv; res }

let test_accepts_sequential_history () =
  let h =
    [
      ev 0 (Insert (1, 10)) None 0 1;
      ev 0 (Lookup 1) (Some 10) 2 3;
      ev 0 (Remove 1) (Some 10) 4 5;
      ev 0 (Lookup 1) None 6 7;
    ]
  in
  check_bool "legal sequential" true (check h)

let test_accepts_overlapping_history () =
  (* Two overlapping inserts on one key: either order is legal as long
     as results are consistent with some order. *)
  let h =
    [
      ev 0 (Insert (1, 10)) None 0 3;
      ev 1 (Insert (1, 20)) (Some 10) 1 4;
      ev 0 (Lookup 1) (Some 20) 5 6;
    ]
  in
  check_bool "overlap linearizes" true (check h)

let test_rejects_stale_read () =
  (* A lookup that starts after a completed remove must not see the
     removed value. *)
  let h =
    [
      ev 0 (Insert (1, 10)) None 0 1;
      ev 0 (Remove 1) (Some 10) 2 3;
      ev 1 (Lookup 1) (Some 10) 4 5;
    ]
  in
  check_bool "stale read rejected" false (check h)

let test_rejects_lost_update () =
  (* Both threads' put_if_absent claiming to win is impossible. *)
  let h =
    [
      ev 0 (Put_if_absent (1, 10)) None 0 2;
      ev 1 (Put_if_absent (1, 20)) None 1 3;
    ]
  in
  check_bool "double winner rejected" false (check h)

let test_rejects_value_from_nowhere () =
  let h = [ ev 0 (Lookup 5) (Some 42) 0 1 ] in
  check_bool "phantom value rejected" false (check h)

let test_respects_program_order () =
  (* Within one thread the later op cannot linearize first. *)
  let h =
    [
      ev 0 (Insert (1, 10)) None 0 1;
      ev 0 (Insert (1, 20)) (Some 10) 2 3;
      ev 0 (Lookup 1) (Some 10) 4 5;
    ]
  in
  check_bool "final lookup must see 20" false (check h)

(* ------------------------ equal-stamp histories --------------------- *)

(* Histories produced by the deterministic scheduler (lib/mc) have
   unique stamps, but hand-built and merged histories may not.  Two
   contracts on ties:
   1. equal stamps never order two events (no spurious real-time
      edge): an op invoked exactly at another's response stamp counts
      as concurrent;
   2. within one thread, events with equal stamps keep the order they
      appear in the history — the per-thread grouping used to reverse
      them (reversed accumulation + a sort keyed only on [inv]),
      inventing a program order the thread never executed. *)

let test_equal_stamps_keep_program_order () =
  (* Insert then Lookup in thread 0, all stamps equal.  In history
     order this is trivially linearizable; with the tie flipped the
     lookup would precede its own insert and be rejected. *)
  let h =
    [
      ev 0 (Insert (1, 10)) None 0 0;
      ev 0 (Lookup 1) (Some 10) 0 0;
    ]
  in
  check_bool "program order preserved on ties" true (check h)

let test_equal_stamps_respect_history_order () =
  (* The mirrored history really is illegal: the thread looked up the
     value before inserting it.  Guards against "fixing" ties by
     accepting either order. *)
  let h =
    [
      ev 0 (Lookup 1) (Some 10) 0 0;
      ev 0 (Insert (1, 10)) None 0 0;
    ]
  in
  check_bool "flipped program order still rejected" false (check h)

let test_equal_stamps_are_concurrent () =
  (* The lookup's invocation stamp equals the insert's response stamp:
     no real-time edge, so the lookup may linearize first and miss the
     insert. *)
  let h =
    [
      ev 0 (Insert (1, 10)) None 0 1;
      ev 1 (Lookup 1) None 1 2;
    ]
  in
  check_bool "stamp tie means concurrent" true (check h)

(* -------------- conditional ops (Replace_if / Remove_if) ------------ *)

(* Result encoding for the conditional ops: Some 1 = succeeded,
   Some 0 = failed (see lincheck.mli). *)

let test_rejects_replace_if_wrong_witness () =
  (* The CAS claims success although the expected value never was the
     binding at any legal linearization point. *)
  let h =
    [
      ev 0 (Insert (1, 10)) None 0 1;
      ev 0 (Replace_if (1, 20, 30)) (Some 1) 2 3;
    ]
  in
  check_bool "replace_if with wrong witness rejected" false (check h)

let test_rejects_replace_if_spurious_failure () =
  (* No concurrent op can explain the failure: the binding is 10 for
     the whole duration, so replace(1, 10, 20) must succeed. *)
  let h =
    [
      ev 0 (Insert (1, 10)) None 0 1;
      ev 0 (Replace_if (1, 10, 20)) (Some 0) 2 3;
    ]
  in
  check_bool "spurious replace_if failure rejected" false (check h)

let test_rejects_double_remove_if () =
  (* Two overlapping conditional removes of the same binding cannot
     both win. *)
  let h =
    [
      ev 0 (Insert (1, 10)) None 0 1;
      ev 0 (Remove_if (1, 10)) (Some 1) 2 5;
      ev 1 (Remove_if (1, 10)) (Some 1) 3 6;
    ]
  in
  check_bool "double remove_if winner rejected" false (check h)

let test_rejects_replace_if_remove_if_conflict () =
  (* Whichever linearizes first invalidates the other's witness, so
     both succeeding is impossible in every order. *)
  let h =
    [
      ev 0 (Insert (1, 10)) None 0 1;
      ev 0 (Remove_if (1, 10)) (Some 1) 2 5;
      ev 1 (Replace_if (1, 10, 20)) (Some 1) 3 6;
    ]
  in
  check_bool "conflicting conditional winners rejected" false (check h)

let test_accepts_replace_if_then_remove_if () =
  (* Sanity guard against over-rejection: here both CAN win, in the
     order replace (10 -> 20) then remove-of-20. *)
  let h =
    [
      ev 0 (Insert (1, 10)) None 0 1;
      ev 0 (Replace_if (1, 10, 20)) (Some 1) 2 5;
      ev 1 (Remove_if (1, 20)) (Some 1) 3 6;
      ev 0 (Lookup 1) None 7 8;
    ]
  in
  check_bool "chained conditional winners accepted" true (check h)

(* ------------------- real structures, random runs ------------------ *)

module CT = Cachetrie.Make (Ct_util.Hashing.Int_key)
module CTB = Variants.Boxed_cachetrie (Ct_util.Hashing.Int_key)
module CTR = Variants.Deep_ctrie (Ct_util.Hashing.Int_key)
module SO = Chm.Split_ordered.Make (Ct_util.Hashing.Int_key)
module ST = Chm.Striped.Make (Ct_util.Hashing.Int_key)
module SL = Skiplist.Make (Ct_util.Hashing.Int_key)
module CW = Variants.Cow_clone (Ct_util.Hashing.Int_key)
module CSN = Ctrie_snap.Make (Ct_util.Hashing.Int_key)
module FK = Oa.Folklore.Make (Ct_util.Hashing.Int_key)

(* Folklore migration under the checker.  The growth script claims 18
   distinct keys across three domains — past the cap-16 occupancy
   threshold — so freeze/copy/publish run concurrently with the
   recorded inserts, removes and lookups.  The churn script removes
   most of what it inserted, crossing the tombstone threshold instead
   (a same-capacity compaction migration).  Each script records fresh
   interleavings per repetition. *)
let test_folklore_migration_histories () =
  let growth =
    List.init 3 (fun d ->
        List.init 6 (fun i -> Insert ((d * 6) + i, (d * 10) + i))
        @ [ Remove (d * 6); Lookup ((d * 6) + 1) ])
  in
  let churn =
    List.init 3 (fun d ->
        List.init 4 (fun i -> Insert ((d * 4) + i, i))
        @ List.init 4 (fun i -> Remove ((d * 4) + i)))
  in
  List.iter
    (fun (what, scripts) ->
      for _rep = 1 to 5 do
        if not (check (record (module FK) scripts)) then
          Alcotest.failf "folklore %s-migration history not linearizable" what
      done)
    [ ("growth", growth); ("tombstone", churn) ]

let random_battery name (module M : IMAP) =
  ( Printf.sprintf "linearizable: %s" name,
    `Slow,
    fun () ->
      for seed = 1 to 30 do
        if
          not
            (run_random (module M) ~seed ~threads:3 ~ops_per_thread:5 ~key_range:3)
        then Alcotest.failf "%s: non-linearizable history at seed %d" name seed
      done )

let suite =
  [
    ("sequential_spec", `Quick, test_sequential_spec);
    ("accepts_sequential_history", `Quick, test_accepts_sequential_history);
    ("accepts_overlapping_history", `Quick, test_accepts_overlapping_history);
    ("rejects_stale_read", `Quick, test_rejects_stale_read);
    ("rejects_lost_update", `Quick, test_rejects_lost_update);
    ("rejects_value_from_nowhere", `Quick, test_rejects_value_from_nowhere);
    ("respects_program_order", `Quick, test_respects_program_order);
    ( "equal_stamps_keep_program_order",
      `Quick,
      test_equal_stamps_keep_program_order );
    ( "equal_stamps_respect_history_order",
      `Quick,
      test_equal_stamps_respect_history_order );
    ("equal_stamps_are_concurrent", `Quick, test_equal_stamps_are_concurrent);
    ( "rejects_replace_if_wrong_witness",
      `Quick,
      test_rejects_replace_if_wrong_witness );
    ( "rejects_replace_if_spurious_failure",
      `Quick,
      test_rejects_replace_if_spurious_failure );
    ("rejects_double_remove_if", `Quick, test_rejects_double_remove_if);
    ( "rejects_replace_if_remove_if_conflict",
      `Quick,
      test_rejects_replace_if_remove_if_conflict );
    ( "accepts_replace_if_then_remove_if",
      `Quick,
      test_accepts_replace_if_then_remove_if );
    random_battery "cachetrie" (module CT);
    random_battery "cachetrie-boxed" (module CTB);
    random_battery "ctrie" (module CTR);
    random_battery "chm" (module SO);
    random_battery "chm-striped" (module ST);
    random_battery "skiplist" (module SL);
    random_battery "cow-hamt" (module CW);
    random_battery "ctrie-snap" (module CSN);
    random_battery "oa-folklore" (module FK);
    ("folklore_migration_histories", `Slow, test_folklore_migration_histories);
  ]
