(* Deterministic schedule exploration (DESIGN.md §10): run the model
   checker exhaustively over every scenario in the catalogue, pin the
   bugs it historically flushed out, and test its own machinery
   (scheduler, minimizer, trace round-trip, replay). *)

module Yp = Ct_util.Yieldpoint

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Failing schedules are written here so the CI job can upload them as
   artifacts. *)
let artifact_dir = "_mc_failures"

let save_trace c =
  (try Unix.mkdir artifact_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let file = Filename.concat artifact_dir (c.Mc.c_scenario ^ ".trace") in
  let oc = open_out file in
  output_string oc (Mc.trace_to_string c);
  close_out oc;
  file

(* Exploration bounds pinned for CI: small enough to finish the whole
   catalogue well inside the job timeout, large enough that every
   2-fiber script in the catalogue is explored completely. *)
let bound = 3
let max_schedules = 60_000

let assert_pass sc =
  match Mc.explore ~preemption_bound:bound ~max_schedules sc with
  | Mc.Pass { complete; executions } ->
      check_bool
        (Printf.sprintf "%s: exploration complete (%d schedules)"
           sc.Mc.sname executions)
        true complete
  | Mc.Fail c ->
      let file = save_trace c in
      Alcotest.failf "%s: %s\nminimized schedule written to %s\n%s"
        c.Mc.c_scenario (Mc.pp_failure c.Mc.c_failure) file
        (Mc.trace_to_string c)

let test_scenario sc () = assert_pass sc

(* ------------------- the explorer finds planted bugs ---------------- *)

(* A deliberately racy "counter": read, yield, write.  The lost-update
   interleaving needs exactly one preemption; the explorer must find
   it, the minimizer must shrink it, and replay must reproduce it. *)
let racy_site = Yp.register "mc-test.racy.write"

let racy_counter_scenario () =
  let prepare () =
    let cell = ref 0 in
    let bump () =
      let v = !cell in
      Yp.here Yp.Before racy_site;
      cell := v + 1
    in
    let oracle ~crashed:_ =
      if !cell = 2 then Ok ()
      else Error (Printf.sprintf "lost update: counter = %d" !cell)
    in
    { Mc.bodies = [ bump; bump ]; oracle }
  in
  Mc.scenario "test.racy-counter" prepare

let test_finds_planted_race () =
  match Mc.explore ~preemption_bound:2 (racy_counter_scenario ()) with
  | Mc.Pass _ -> Alcotest.fail "explorer missed the planted lost update"
  | Mc.Fail c ->
      (match c.Mc.c_failure with
      | Mc.Oracle m ->
          check_bool "reports the lost update" true
            (String.length m > 0)
      | f -> Alcotest.failf "wrong failure kind: %s" (Mc.pp_failure f));
      (* The minimal schedule interleaves the two 2-slice fibers; the
         guide needs at most the one forced switch plus its return. *)
      check_bool "minimizer shrank the guide" true
        (Array.length c.Mc.c_choices <= 2);
      (* Round-trip: print, parse, replay: the bug must reproduce. *)
      let trace = Mc.trace_to_string c in
      (match Mc.trace_of_string trace with
      | Error e -> Alcotest.failf "trace did not parse: %s" e
      | Ok t -> (
          check_bool "scenario name survives" true
            (t.Mc.t_scenario = "test.racy-counter");
          match Mc.replay (racy_counter_scenario ()) t with
          | Mc.Reproduced (Mc.Oracle _) -> ()
          | Mc.Reproduced f ->
              Alcotest.failf "replay reproduced the wrong failure: %s"
                (Mc.pp_failure f)
          | Mc.Vanished -> Alcotest.fail "replay no longer fails"
          | Mc.Diverged m -> Alcotest.failf "replay diverged: %s" m))

let test_random_walk_finds_race () =
  match
    Mc.random_walk ~seed:42 ~schedules:500 (racy_counter_scenario ())
  with
  | Mc.Fail _ -> ()
  | Mc.Pass _ -> Alcotest.fail "random walk missed the planted lost update"

(* A fiber that spins forever across a yield point: the step bound must
   flag it as a lock-freedom violation instead of hanging. *)
let spin_site = Yp.register "mc-test.spin"

let test_divergence_detected () =
  let prepare () =
    let spin () =
      while true do
        Yp.here Yp.Before spin_site
      done
    in
    { Mc.bodies = [ spin ]; oracle = (fun ~crashed:_ -> Ok ()) }
  in
  let sc = Mc.scenario "test.spin" prepare in
  match Mc.explore ~max_steps:200 ~max_schedules:1 sc with
  | Mc.Fail { c_failure = Mc.Divergence _; _ } -> ()
  | Mc.Fail c -> Alcotest.failf "wrong failure: %s" (Mc.pp_failure c.Mc.c_failure)
  | Mc.Pass _ -> Alcotest.fail "divergence not detected"

(* Crash injection: the fiber must die at its n-th yield and the
   scheduler must report the execution as crashed. *)
let test_crash_injection () =
  let progress = ref 0 in
  let prepare () =
    progress := 0;
    let body () =
      incr progress;
      Yp.here Yp.Before racy_site;
      incr progress;
      Yp.here Yp.Before racy_site;
      incr progress
    in
    { Mc.bodies = [ body ]; oracle = (fun ~crashed -> if crashed then Ok () else Error "did not crash") }
  in
  let sc = Mc.scenario ~crash_at:(0, 2) "test.crash" prepare in
  match Mc.explore sc with
  | Mc.Pass _ -> check_int "died between yields 2 and 3" 2 !progress
  | Mc.Fail c -> Alcotest.failf "unexpected failure: %s" (Mc.pp_failure c.Mc.c_failure)

(* ------------------------ pinned regressions ------------------------ *)

(* Minimized counterexample found by [Mc.explore] against the
   pre-contraction cachetrie remove path: insert two fully-colliding
   keys, remove one — the old code republished the LNode with a single
   entry instead of contracting it to an SNode, and [validate]'s
   "LNode with fewer than 2 entries" rule flags the residue.  The
   schedule needs no preemption (the residue was left on every remove),
   which is why plain unit tests should have caught it; it is pinned
   here as a replayable trace so the exact published-node sequence
   stays honest: [Vanished] = the schedule replays step-for-step and
   the bug stays fixed, [Diverged] = the remove path's yield sequence
   changed and the trace must be re-minimized, [Reproduced] = the bug
   is back. *)
let pinned_lnode_remove_trace =
  "mc-trace v1\n\
   scenario cachetrie.lnode-remove\n\
   0 yield before cachetrie.insert.null\n\
   0 yield after cachetrie.insert.null\n\
   0 done\n\
   1 yield before cachetrie.txn.announce\n\
   1 yield after cachetrie.txn.announce\n\
   1 yield before cachetrie.txn.commit\n\
   1 yield after cachetrie.txn.commit\n\
   1 yield before cachetrie.remove.lnode\n\
   1 yield after cachetrie.remove.lnode\n\
   1 done\n"

let test_pinned_lnode_remove () =
  match Mc.trace_of_string pinned_lnode_remove_trace with
  | Error e -> Alcotest.failf "pinned trace did not parse: %s" e
  | Ok t -> (
      match Mc.Scenarios.find t.Mc.t_scenario with
      | None -> Alcotest.failf "scenario %s disappeared" t.Mc.t_scenario
      | Some sc -> (
          match Mc.replay sc t with
          | Mc.Vanished -> ()
          | Mc.Reproduced f ->
              Alcotest.failf "LNode residue bug is back: %s" (Mc.pp_failure f)
          | Mc.Diverged m ->
              Alcotest.failf
                "remove path drifted; re-minimize the pinned trace: %s" m))

(* ----------------- hostile equality (the lassoc family) ------------- *)

(* Keys whose structural equality disagrees with H.equal: the pair's
   second component is a "nonce" H.equal ignores.  Collision-heavy hash
   forces every binding through the LNode / binding-list code, which
   historically used polymorphic List.assoc_opt / List.remove_assoc and
   so treated (0,0) and (0,1) as different keys. *)
module Nonce_key = struct
  type t = int * int

  let equal (a, _) (b, _) = Int.equal a b
  let hash (a, _) = a land 1 (* two hash classes: heavy collisions *)
end

module Hostile_equality (M : Ct_util.Map_intf.CONCURRENT_MAP with type key = Nonce_key.t) =
struct
  let check_valid what = function
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: validate failed: %s" what e

  let test () =
    let t = M.create () in
    M.insert t (0, 0) 1;
    M.insert t (2, 0) 2;
    (* key classes 0 and 2 collide fully (hash 0): LNode of two entries. *)
    check_int "collision size" 2 (M.size t);
    (* Insert under an H.equal-but-structurally-different key must
       replace, not duplicate. *)
    check_bool "replaces through nonce" true (M.add t (0, 7) 3 = Some 1);
    check_int "no duplicate entry" 2 (M.size t);
    check_bool "lookup through nonce" true (M.lookup t (0, 99) = Some 3);
    check_valid "after nonce replace" (M.validate t);
    (* Remove under a nonce key must actually remove. *)
    check_bool "removes through nonce" true (M.remove t (2, 42) = Some 2);
    check_int "entry gone" 1 (M.size t);
    check_bool "other entry intact" true (M.lookup t (0, 0) = Some 3);
    check_valid "after nonce remove (no LNode residue)" (M.validate t);
    check_bool "last removal" true (M.remove t (0, 1) = Some 3);
    check_int "empty" 0 (M.size t);
    check_valid "empty again" (M.validate t)
end

module HE_CT = Hostile_equality (Cachetrie.Make (Nonce_key))
module HE_CTR = Hostile_equality (Variants.Deep_ctrie (Nonce_key))
module HE_CSN = Hostile_equality (Ctrie_snap.Make (Nonce_key))
module HE_SO = Hostile_equality (Chm.Split_ordered.Make (Nonce_key))
module HE_SL = Hostile_equality (Skiplist.Make (Nonce_key))

(* --------------------- extreme / negative raw hashes ---------------- *)

(* Raw hashes with the sign bit set (min_int, -1, 1 lsl 31 on 64-bit,
   max_int).  Every structure must mask them into the 32-bit hash
   domain before shifting, indexing or bit-reversing; a missed mask
   shows up as a negative array index, a wrong bucket, or a broken
   sort order in the split-ordered list. *)
module Extreme_battery (M : Ct_util.Map_intf.CONCURRENT_MAP with type key = int) =
struct
  module K = Mc.Scenarios.Extreme_hash_key

  let test () =
    let t = M.create () in
    let keys = [ 0; 1; 2; 3; 4 ] in
    List.iter (fun k -> M.insert t k (k * 10)) keys;
    List.iter
      (fun k ->
        check_bool
          (Printf.sprintf "lookup key %d (raw hash %d)" k (K.hash k))
          true
          (M.lookup t k = Some (k * 10)))
      keys;
    check_int "all present" (List.length keys) (M.size t);
    (match M.validate t with
    | Ok () -> ()
    | Error e -> Alcotest.failf "validate with extreme hashes: %s" e);
    List.iter
      (fun k ->
        check_bool
          (Printf.sprintf "remove key %d" k)
          true
          (M.remove t k = Some (k * 10)))
      keys;
    check_int "emptied" 0 (M.size t);
    match M.validate t with
    | Ok () -> ()
    | Error e -> Alcotest.failf "validate after removals: %s" e
end

module EX_CT = Extreme_battery (Cachetrie.Make (Mc.Scenarios.Extreme_hash_key))
module EX_CTR = Extreme_battery (Variants.Deep_ctrie (Mc.Scenarios.Extreme_hash_key))
module EX_CSN = Extreme_battery (Ctrie_snap.Make (Mc.Scenarios.Extreme_hash_key))
module EX_SO =
  Extreme_battery (Chm.Split_ordered.Make (Mc.Scenarios.Extreme_hash_key))
module EX_SL = Extreme_battery (Skiplist.Make (Mc.Scenarios.Extreme_hash_key))

(* ----------------------------- the suite ---------------------------- *)

let scenario_cases =
  List.map
    (fun sc -> (sc.Mc.sname, `Slow, test_scenario sc))
    Mc.Scenarios.all

let suite =
  [
    ("finds_planted_race", `Quick, test_finds_planted_race);
    ("random_walk_finds_race", `Quick, test_random_walk_finds_race);
    ("divergence_detected", `Quick, test_divergence_detected);
    ("crash_injection", `Quick, test_crash_injection);
    ("pinned_lnode_remove", `Quick, test_pinned_lnode_remove);
    ("hostile_equality_cachetrie", `Quick, HE_CT.test);
    ("hostile_equality_ctrie", `Quick, HE_CTR.test);
    ("hostile_equality_ctrie_snap", `Quick, HE_CSN.test);
    ("hostile_equality_split_ordered", `Quick, HE_SO.test);
    ("hostile_equality_skiplist", `Quick, HE_SL.test);
    ("extreme_hash_cachetrie", `Quick, EX_CT.test);
    ("extreme_hash_ctrie", `Quick, EX_CTR.test);
    ("extreme_hash_ctrie_snap", `Quick, EX_CSN.test);
    ("extreme_hash_split_ordered", `Quick, EX_SO.test);
    ("extreme_hash_skiplist", `Quick, EX_SL.test);
  ]
  @ scenario_cases
