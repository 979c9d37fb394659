(* Crash-storm soak: the self-healing story end to end (DESIGN.md §9).

   For each lock-free structure we repeatedly crash a victim domain
   mid-operation at a randomly drawn (yield point, phase, occurrence),
   accumulating whatever residue the abandoned operations leave behind
   — live descriptors, announced transactions, half-frozen subtrees,
   entombed/marked nodes, uncommitted GCAS/RDCSS boxes, unburied dead
   bindings.  Then ONE [scrub] must heal everything:

   - [validate] returns [Ok ()] afterwards, with no ordinary traffic
     having help-completed anything in between;
   - a second [scrub] returns 0 (nothing left — idempotence);
   - the surviving contents agree exactly with a sequential model in
     which every crashed operation either happened atomically or not
     at all (the linearizability of abandoned operations: scrub may
     commit an announced change or discard an unannounced one, but
     never expose a half-applied state).

   Each crash targets a fresh key, so after the scrub a single lookup
   per key decides which way the abandoned operation resolved; the
   resolved model is then compared against the structure's full
   contents.

   The storm is seeded (SOAK_SEED) and bounded (SOAK_CRASHES fired
   crashes per structure, default 200) so CI can run it under a hard
   timeout; SOAK_REPORT names a file that receives one summary line
   per structure, uploaded as an artifact on failure. *)

module Yp = Ct_util.Yieldpoint
module Rng = Ct_util.Rng
module Hashing = Ct_util.Hashing
module Progress = Ct_util.Progress
module Watchdog = Harness.Watchdog
module CT = Cachetrie.Make (Hashing.Int_key)

module type MAP = Ct_util.Map_intf.CONCURRENT_MAP with type key = int

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> default)
  | None -> default

let report_line fmt =
  Printf.ksprintf
    (fun line ->
      match Sys.getenv_opt "SOAK_REPORT" with
      | None -> ()
      | Some path ->
          let oc =
            open_out_gen [ Open_append; Open_creat ] 0o644 path
          in
          output_string oc (line ^ "\n");
          close_out oc)
    fmt

let site name =
  match List.find_opt (fun s -> Yp.name s = name) (Yp.all ()) with
  | Some s -> s
  | None -> Alcotest.failf "yield point %s is not registered" name

let check_valid what = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: validate failed: %s" what e

let await ?(what = "condition") f =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    if f () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 1e-4;
      go ()
    end
  in
  go ()

(* --------------------------- crash storm --------------------------- *)

(* One storm iteration crashes one operation on one fresh key; the
   permissible post-scrub states are the operation's atomic before/
   after values. *)
type episode = { key : int; allowed : int option list }

let prefill_base = 1_000_000
let prefill_n = 64

let storm (module M : MAP) sname prefix () =
  (* Flight recorder on the observer slot: the crash injectors live in
     the main hook, so both run — and an oracle failure below can name
     the exact yield-point event sequence that led up to it. *)
  let flight = Obs.Flight.create ~size:1024 () in
  Obs.Flight.install flight;
  let finally () =
    Chaos.clear ();
    Obs.Flight.uninstall ()
  in
  Fun.protect ~finally @@ fun () ->
  let dump_flight () =
    let d = Obs.Flight.dump_to_string ~limit:64 flight in
    report_line "%s: flight recorder:\n%s" sname d;
    Printf.printf "-- flight recorder (last 64 events) --\n%s\n%!" d
  in
  let sites = Array.of_list (Yp.with_prefix prefix) in
  check_bool (prefix ^ " has instrumented points") true
    (Array.length sites > 0);
  let seed = env_int "SOAK_SEED" 0xC0FFEE in
  let quota = env_int "SOAK_CRASHES" 200 in
  let rng = Rng.create (seed + Hashtbl.hash sname) in
  let t = M.create () in
  (* A prefilled contended range gives the storm structural depth
     (expansions, entombments, towers) without touching storm keys. *)
  for k = 0 to prefill_n - 1 do
    M.insert t (prefill_base + k) k
  done;
  let episodes = ref [] in
  let crashes = ref 0 and iters = ref 0 in
  let max_iters = quota * 25 in
  while !crashes < quota && !iters < max_iters do
    incr iters;
    let k = !iters in
    let s = sites.(Rng.next_int rng (Array.length sites)) in
    let phase = if Rng.next_int rng 2 = 0 then Yp.Before else Yp.After in
    let skip = Rng.next_int rng 2 in
    let flavor = Rng.next_int rng 3 in
    let v0 = 1000 + k and v1 = 2000 + k in
    (* Flavors 1 and 2 first bind the key cleanly, then crash the
       remove / overwrite — the residue states differ per flavor. *)
    if flavor > 0 then M.insert t k v0;
    let inj = Chaos.crash ~phase ~skip s in
    let crashed =
      Domain.join
        (Domain.spawn (fun () ->
             Chaos.as_victim inj (fun () ->
                 try
                   (match flavor with
                   | 0 -> M.insert t k v0
                   | 1 -> ignore (M.remove t k)
                   | _ -> M.insert t k v1);
                   false
                 with Chaos.Injected_crash _ -> true)))
    in
    Chaos.clear ();
    if crashed then incr crashes;
    let allowed =
      match (flavor, crashed) with
      | 0, false -> [ Some v0 ]
      | 0, true -> [ None; Some v0 ]
      | 1, false -> [ None ]
      | 1, true -> [ Some v0; None ]
      | _, false -> [ Some v1 ]
      | _, true -> [ Some v0; Some v1 ]
    in
    episodes := { key = k; allowed } :: !episodes
  done;
  if !crashes < quota then
    Alcotest.failf "%s: only %d/%d crashes fired in %d iterations" sname
      !crashes quota !iters;
  (* One scrub heals the whole storm's residue at once. *)
  let repairs = M.scrub t in
  (match M.validate t with
  | Ok () -> ()
  | Error e ->
      report_line "%s: FAILED validate after scrub: %s" sname e;
      dump_flight ();
      Alcotest.failf "%s: invalid after scrub (%d repairs): %s" sname repairs e);
  let second = M.scrub t in
  if second <> 0 then begin
    report_line "%s: FAILED second scrub repaired %d" sname second;
    dump_flight ();
    Alcotest.failf "%s: second scrub repaired %d things" sname second
  end;
  (* Resolve each abandoned operation and rebuild the sequential
     model; then the structure's full contents must match it exactly. *)
  let model = Hashtbl.create 1024 in
  for k = 0 to prefill_n - 1 do
    Hashtbl.replace model (prefill_base + k) k
  done;
  List.iter
    (fun { key; allowed } ->
      let actual = M.lookup t key in
      if not (List.mem actual allowed) then begin
        dump_flight ();
        Alcotest.failf "%s: key %d resolved to %s, allowed {%s}" sname key
          (match actual with None -> "absent" | Some v -> string_of_int v)
          (String.concat ", "
             (List.map
                (function None -> "absent" | Some v -> string_of_int v)
                allowed))
      end;
      match actual with
      | Some v -> Hashtbl.replace model key v
      | None -> Hashtbl.remove model key)
    !episodes;
  let sorted l = List.sort compare l in
  let actual = sorted (M.to_list t) in
  let expected =
    sorted (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])
  in
  if actual <> expected then begin
    dump_flight ();
    Alcotest.failf "%s: contents diverge from the sequential model (%d vs %d bindings)"
      sname (List.length actual) (List.length expected)
  end;
  report_line "%s: %d crashes in %d iterations, %d repairs, validate ok" sname
    !crashes !iters repairs

(* ----------------------- scrub vs live traffic ---------------------- *)

(* Scrub only performs helping steps any operation could, so running it
   in a tight loop against mutating peers must neither wedge nor
   corrupt: afterwards the structure validates and every key holds one
   of the values some writer actually wrote. *)
let test_scrub_live_traffic () =
  let t = CT.create () in
  let keys = 256 in
  for k = 0 to keys - 1 do
    CT.insert t k 0
  done;
  let stop = Atomic.make false in
  let writers =
    List.init 3 (fun d ->
        Domain.spawn (fun () ->
            let rng = Rng.create (0xACE + d) in
            while not (Atomic.get stop) do
              let k = Rng.next_int rng keys in
              match Rng.next_int rng 4 with
              | 0 -> CT.insert t k ((d * 1000) + k)
              | 1 -> ignore (CT.remove t k)
              | 2 -> ignore (CT.put_if_absent t k ((d * 1000) + k))
              | _ -> ignore (CT.lookup t k)
            done))
  in
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < 0.3 do
    ignore (CT.scrub t)
  done;
  Atomic.set stop true;
  List.iter Domain.join writers;
  ignore (CT.scrub t);
  check_valid "after concurrent scrubbing" (CT.validate t);
  check_int "quiescent scrub is a no-op" 0 (CT.scrub t);
  for k = 0 to keys - 1 do
    match CT.lookup t k with
    | None -> ()
    | Some v ->
        if not (v = 0 || (v mod 1000 = k && v / 1000 <= 2)) then
          Alcotest.failf "key %d holds %d, never written" k v
  done

(* ------------------------ watchdog pinpoint ------------------------ *)

(* A victim parked by the stall injector mid-transaction must be (a)
   detected by the watchdog, (b) attributed to the exact yield-point
   site it is parked at, and (c) recoverable around: the escalation
   scrub commits its announced transaction while it is still parked. *)
let test_watchdog_pinpoint () =
  let progress = Progress.create ~slots:4 () in
  let finally () =
    Chaos.clear ();
    Progress.uninstall ()
  in
  Fun.protect ~finally @@ fun () ->
  Progress.install progress;
  let s = site "cachetrie.txn.announce" in
  let inj = Chaos.stall ~phase:Yp.After s in
  let t = CT.create () in
  CT.insert t 7 1;
  let victim =
    Domain.spawn (fun () ->
        Progress.attach progress 0;
        Chaos.as_victim inj (fun () -> CT.insert t 7 2);
        Progress.detach progress)
  in
  await ~what:"victim parked mid-transaction" (fun () -> Chaos.stalled inj);
  let escalations = ref [] in
  let wd =
    Watchdog.create ~stall_epochs:2
      ~on_stall:(fun r -> escalations := r :: !escalations)
      progress
  in
  (* Main keeps beating on its own slot: it must never be flagged.
     (Manual beats, not trie traffic — an insert whose key happened to
     share the victim's root slot would help-commit the parked
     transaction and steal the scrub's repair below.) *)
  Progress.attach progress 1;
  let reports = ref [] in
  for _ = 1 to 4 do
    Progress.beat progress;
    reports := Watchdog.step wd
  done;
  Progress.detach progress;
  (match !reports with
  | [ r ] ->
      check_int "stalled slot" 0 r.Watchdog.slot;
      check_bool "epochs accumulate" true (r.Watchdog.epochs_stalled >= 2);
      (match r.Watchdog.site with
      | Some rs ->
          Alcotest.(check string)
            "watchdog names the parked site" (Yp.name s) (Yp.name rs)
      | None -> Alcotest.fail "watchdog lost the stalled site");
      check_bool "parked after publication" true
        (r.Watchdog.phase = Some Yp.After);
      check_bool "report renders" true
        (String.length (Watchdog.report_to_string r) > 0)
  | rs -> Alcotest.failf "expected exactly the victim stalled, got %d reports"
            (List.length rs));
  check_int "escalation ran once per episode" 1 (List.length !escalations);
  List.iter
    (fun r -> report_line "watchdog: %s" (Watchdog.report_to_string r))
    !reports;
  (* Escalation: scrub commits the parked domain's announced Replace. *)
  let repairs = CT.scrub t in
  check_bool "scrub repaired the announced txn" true (repairs >= 1);
  check_valid "valid while victim still parked" (CT.validate t);
  check_bool "announced write committed by scrub" true (CT.lookup t 7 = Some 2);
  Chaos.release inj;
  Domain.join victim;
  Chaos.clear ();
  check_valid "after victim resumes" (CT.validate t);
  (* The victim detached on exit: its stall episode is over. *)
  ignore (Watchdog.step wd);
  check_int "no stalls after release" 0 (List.length (Watchdog.stalled wd))

(* The background monitor thread drives epochs off a wall-clock
   interval and escalates without any stepping from the test. *)
let test_watchdog_monitor_thread () =
  let progress = Progress.create ~slots:4 () in
  let finally () =
    Chaos.clear ();
    Progress.uninstall ()
  in
  Fun.protect ~finally @@ fun () ->
  Progress.install progress;
  let s = site "cachetrie.txn.announce" in
  let inj = Chaos.stall ~phase:Yp.After s in
  let t = CT.create () in
  CT.insert t 3 1;
  let victim =
    Domain.spawn (fun () ->
        Progress.attach progress 0;
        Chaos.as_victim inj (fun () -> CT.insert t 3 2))
  in
  await ~what:"victim parked" (fun () -> Chaos.stalled inj);
  let healed = Atomic.make false in
  let wd =
    Watchdog.create ~stall_epochs:2
      ~on_stall:(fun _ ->
        ignore (CT.scrub t);
        Atomic.set healed true)
      progress
  in
  Watchdog.start wd ~interval:0.01;
  await ~what:"monitor escalates to scrub" (fun () -> Atomic.get healed);
  Watchdog.stop wd;
  check_valid "healed while victim parked" (CT.validate t);
  check_bool "committed" true (CT.lookup t 3 = Some 2);
  Chaos.release inj;
  Domain.join victim

(* ------------------------------ suite ------------------------------ *)

let storm_case name (module M : MAP) prefix =
  (Printf.sprintf "storm_%s" name, `Slow, storm (module M : MAP) name prefix)

module CTR = Variants.Deep_ctrie (Hashing.Int_key)
module CSN = Ctrie_snap.Make (Hashing.Int_key)
module CHM = Chm.Split_ordered.Make (Hashing.Int_key)
module SKL = Skiplist.Make (Hashing.Int_key)

let suite =
  [
    ("watchdog_pinpoint", `Quick, test_watchdog_pinpoint);
    ("watchdog_monitor_thread", `Quick, test_watchdog_monitor_thread);
    ("scrub_live_traffic", `Slow, test_scrub_live_traffic);
    storm_case "cachetrie" (module CT) "cachetrie.";
    storm_case "ctrie" (module CTR) "ctrie_snap.";
    storm_case "ctrie_snap" (module CSN) "ctrie_snap.";
    storm_case "chm" (module CHM) "chm.";
    storm_case "skiplist" (module SKL) "skiplist.";
  ]
