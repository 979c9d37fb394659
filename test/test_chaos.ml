(* Chaos suite: fault injection at the yield points (see DESIGN.md
   "Fault injection & robustness").

   Three properties of the paper's correctness story are forced, not
   hoped for:

   - crash recovery: a domain abandons an operation mid-flight (ENode
     published but not committed, half-frozen narrow node, announced
     SNode txn, live XNode, uncommitted GCAS box, pending RDCSS root
     descriptor) and a peer's next ordinary operation help-completes
     the residue — [validate] returns [Ok ()] and no binding is lost;
   - lock-freedom: with one domain suspended at each instrumented
     yield point in turn, 3 peers still complete 10k operations each;
   - linearizability under jitter: randomized delays at every yield
     point widen race windows and [Lincheck.run_random] still accepts
     every history. *)

module Yp = Ct_util.Yieldpoint
module Rng = Ct_util.Rng
module Hashing = Ct_util.Hashing
module CT = Cachetrie.Make (Hashing.Int_key)
module CSN = Ctrie_snap.Make (Hashing.Int_key)
module CTR = Variants.Deep_ctrie (Hashing.Int_key)

let check_bool = Alcotest.(check bool)

let site name =
  match List.find_opt (fun s -> Yp.name s = name) (Yp.all ()) with
  | Some s -> s
  | None -> Alcotest.failf "yield point %s is not registered" name

let check_valid what = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: validate failed: %s" what e

let check_residue what r =
  check_bool (what ^ ": crash residue visible to validate") true
    (Result.is_error r)

(* Run [f] as the injector's victim in a fresh domain; true iff the
   injected crash fired. *)
let crash_in_domain inj f =
  Domain.join
    (Domain.spawn (fun () ->
         Chaos.as_victim inj (fun () ->
             try
               f ();
               false
             with Chaos.Injected_crash _ -> true)))

let in_domain f = Domain.join (Domain.spawn f)

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

(* ------------------------ deterministic keys ----------------------- *)

let ct_hash k = Hashing.Int_key.hash k land Hashing.mask

(* Keys [a; b; c] such that inserting [a] then [b] builds a narrow
   ANode at level 4 (same root slot, different narrow positions), and
   inserting [c] afterwards lands on [a]'s occupied narrow slot with a
   different hash — forcing the expansion path (ENode at the root). *)
let expansion_trio () =
  let low4 h = h land 15 and npos h = (h lsr 4) land 3 in
  let a = 0 in
  let ha = ct_hash a in
  let rec find p k = if p (ct_hash k) && k <> a then k else find p (k + 1) in
  let b = find (fun h -> low4 h = low4 ha && npos h <> npos ha) 1 in
  let c = find (fun h -> low4 h = low4 ha && npos h = npos ha && h <> ha) 1 in
  (a, b, c)

(* Keys [a; b] colliding on the Ctrie's first 5 hash bits but not the
   next 5: inserting both builds an I-node child; removing [b] entombs
   [a] into a TNode of that child. *)
let ctrie_pair () =
  let low5 h = h land 31 and n5 h = (h lsr 5) land 31 in
  let a = 0 in
  let ha = ct_hash a in
  let rec find k =
    let h = ct_hash k in
    if low5 h = low5 ha && n5 h <> n5 ha && k <> a then k else find (k + 1)
  in
  (a, find 1)

(* ------------------------- crash recovery -------------------------- *)

(* Crash right after the ENode is published: e_wide is still None, the
   narrow node is not even frozen. *)
let test_crash_expansion_publish () =
  Fun.protect ~finally:Chaos.clear @@ fun () ->
  let a, b, c = expansion_trio () in
  let t = CT.create () in
  CT.insert t a 100;
  CT.insert t b 101;
  let inj = Chaos.crash ~phase:Yp.After (site "cachetrie.expand.publish") in
  let crashed = crash_in_domain inj (fun () -> CT.insert t c 102) in
  check_bool "victim crashed mid-expansion" true crashed;
  check_residue "ENode" (CT.validate t);
  (* Lookups stay wait-free through the live descriptor. *)
  check_bool "lookup through live ENode" true (CT.lookup t a = Some 100);
  Chaos.clear ();
  (* A peer's own insert of the same key help-completes the expansion. *)
  in_domain (fun () -> CT.insert t c 102);
  check_valid "after help" (CT.validate t);
  check_bool "a survives" true (CT.lookup t a = Some 100);
  check_bool "b survives" true (CT.lookup t b = Some 101);
  check_bool "c arrives" true (CT.lookup t c = Some 102);
  check_bool "expansion completed by helper" true ((CT.cache_stats t).expansions >= 1)

(* Crash mid-freeze: the ENode is live and the narrow node is half
   frozen (one SNode txn already Frozen_snode). *)
let test_crash_mid_freeze () =
  Fun.protect ~finally:Chaos.clear @@ fun () ->
  let a, b, c = expansion_trio () in
  let t = CT.create () in
  CT.insert t a 100;
  CT.insert t b 101;
  let inj = Chaos.crash ~phase:Yp.After (site "cachetrie.freeze.txn") in
  let crashed = crash_in_domain inj (fun () -> CT.insert t c 102) in
  check_bool "victim crashed mid-freeze" true crashed;
  check_residue "half-frozen narrow node" (CT.validate t);
  Chaos.clear ();
  in_domain (fun () -> CT.insert t c 102);
  check_valid "after help" (CT.validate t);
  check_bool "no binding lost" true
    (CT.lookup t a = Some 100 && CT.lookup t b = Some 101
   && CT.lookup t c = Some 102)

(* Crash after the wide node is agreed on (e_wide committed) but
   before it is swung into the parent slot. *)
let test_crash_expand_wide () =
  Fun.protect ~finally:Chaos.clear @@ fun () ->
  let a, b, c = expansion_trio () in
  let t = CT.create () in
  CT.insert t a 100;
  CT.insert t b 101;
  let inj = Chaos.crash ~phase:Yp.After (site "cachetrie.expand.wide") in
  let crashed = crash_in_domain inj (fun () -> CT.insert t c 102) in
  check_bool "victim crashed before commit" true crashed;
  check_residue "uncommitted wide node" (CT.validate t);
  Chaos.clear ();
  in_domain (fun () -> CT.insert t c 102);
  check_valid "after help" (CT.validate t);
  check_bool "no binding lost" true
    (CT.lookup t a = Some 100 && CT.lookup t b = Some 101
   && CT.lookup t c = Some 102)

(* Crash between announcing a Replace on an SNode's txn field and
   committing it into the parent slot. *)
let test_crash_txn_announce_replace () =
  Fun.protect ~finally:Chaos.clear @@ fun () ->
  let t = CT.create () in
  CT.insert t 7 1;
  let inj = Chaos.crash ~phase:Yp.After (site "cachetrie.txn.announce") in
  let crashed = crash_in_domain inj (fun () -> CT.insert t 7 2) in
  check_bool "victim crashed mid-replace" true crashed;
  check_residue "announced Replace" (CT.validate t);
  Chaos.clear ();
  in_domain (fun () -> CT.insert t 7 3);
  check_valid "after help" (CT.validate t);
  check_bool "peer's write wins" true (CT.lookup t 7 = Some 3)

(* Same for an announced Removed: the removal is decided; a peer's
   insert first help-commits it, then rebinds the key. *)
let test_crash_txn_announce_removed () =
  Fun.protect ~finally:Chaos.clear @@ fun () ->
  let t = CT.create () in
  CT.insert t 7 1;
  CT.insert t 8 2;
  let inj = Chaos.crash ~phase:Yp.After (site "cachetrie.txn.announce") in
  let crashed = crash_in_domain inj (fun () -> ignore (CT.remove t 7)) in
  check_bool "victim crashed mid-remove" true crashed;
  check_residue "announced Removed" (CT.validate t);
  Chaos.clear ();
  in_domain (fun () -> ignore (CT.put_if_absent t 7 9));
  check_valid "after help" (CT.validate t);
  check_bool "removal took effect, rebind visible" true (CT.lookup t 7 = Some 9);
  check_bool "unrelated binding survives" true (CT.lookup t 8 = Some 2)

(* Crash right after publishing a compression descriptor (XNode). *)
let test_crash_compression_publish () =
  Fun.protect ~finally:Chaos.clear @@ fun () ->
  let a, b, _ = expansion_trio () in
  let t = CT.create () in
  CT.insert t a 100;
  CT.insert t b 101;
  let inj = Chaos.crash ~phase:Yp.After (site "cachetrie.compress.publish") in
  let crashed = crash_in_domain inj (fun () -> ignore (CT.remove t b)) in
  check_bool "victim crashed mid-compression" true crashed;
  check_residue "XNode" (CT.validate t);
  check_bool "removal committed before crash" true (CT.lookup t b = None);
  Chaos.clear ();
  in_domain (fun () -> CT.insert t a 111);
  check_valid "after help" (CT.validate t);
  check_bool "survivor present" true (CT.lookup t a = Some 111);
  check_bool "compression completed by helper" true
    ((CT.cache_stats t).compressions >= 1)

(* Ctrie: crash after the entombing GCAS commits, before clean_parent.
   The victim's remove runs exactly one GCAS (child CNode -> TNode), so
   its first commit is the entombing one. *)
let test_crash_ctrie_tnode () =
  Fun.protect ~finally:Chaos.clear @@ fun () ->
  let a, b = ctrie_pair () in
  let t = CSN.create () in
  CSN.insert t a 100;
  CSN.insert t b 101;
  let inj = Chaos.crash ~phase:Yp.After (site "ctrie_snap.gcas.commit") in
  let crashed = crash_in_domain inj (fun () -> ignore (CSN.remove t b)) in
  check_bool "victim crashed after entomb" true crashed;
  check_residue "TNode" (CSN.validate t);
  Chaos.clear ();
  (* Any traversal through the entombed I-node cleans it. *)
  check_bool "lookup through TNode" true
    (in_domain (fun () -> CSN.lookup t a) = Some 100);
  check_valid "after clean" (CSN.validate t);
  check_bool "b stays removed" true (CSN.lookup t b = None)

(* Snapshotting Ctrie: crash between the GCAS publish and its commit;
   a peer's plain lookup completes the commit. *)
let test_crash_gcas_publish () =
  Fun.protect ~finally:Chaos.clear @@ fun () ->
  let t = CSN.create () in
  CSN.insert t 5 1;
  let inj = Chaos.crash ~phase:Yp.After (site "ctrie_snap.gcas.publish") in
  let crashed = crash_in_domain inj (fun () -> CSN.insert t 5 2) in
  check_bool "victim crashed mid-GCAS" true crashed;
  check_residue "uncommitted GCAS box" (CSN.validate t);
  Chaos.clear ();
  check_bool "peer lookup commits the pending update" true
    (in_domain (fun () -> CSN.lookup t 5) = Some 2);
  check_valid "after commit" (CSN.validate t)

(* Snapshotting Ctrie: crash with the RDCSS descriptor in the root. *)
let test_crash_rdcss_publish () =
  Fun.protect ~finally:Chaos.clear @@ fun () ->
  let t = CSN.create () in
  CSN.insert t 5 1;
  CSN.insert t 6 2;
  let inj = Chaos.crash ~phase:Yp.After (site "ctrie_snap.rdcss.publish") in
  let crashed = crash_in_domain inj (fun () -> ignore (CSN.snapshot t)) in
  check_bool "victim crashed mid-snapshot" true crashed;
  check_residue "pending RDCSS descriptor" (CSN.validate t);
  Chaos.clear ();
  check_bool "peer lookup completes the root swap" true
    (in_domain (fun () -> CSN.lookup t 5) = Some 1);
  check_valid "after completion" (CSN.validate t);
  check_bool "no binding lost" true (CSN.lookup t 6 = Some 2)

(* Direct helping demonstration: the victim is parked (not crashed)
   right after publishing an ENode, and while it is suspended a peer
   inserting the same key completes the whole expansion. *)
let test_stall_helping_expansion () =
  Fun.protect ~finally:Chaos.clear @@ fun () ->
  let a, b, c = expansion_trio () in
  let t = CT.create () in
  CT.insert t a 100;
  CT.insert t b 101;
  let inj = Chaos.stall ~phase:Yp.After (site "cachetrie.expand.publish") in
  let victim =
    Domain.spawn (fun () -> Chaos.as_victim inj (fun () -> CT.insert t c 102))
  in
  await ~what:"victim parked at the ENode" (fun () -> Chaos.stalled inj);
  (* Victim is suspended holding a live ENode; the peer completes. *)
  in_domain (fun () -> CT.insert t c 102);
  check_valid "helper completed the expansion" (CT.validate t);
  check_bool "binding visible while victim is parked" true
    (CT.lookup t c = Some 102);
  Chaos.release inj;
  Domain.join victim;
  Chaos.clear ();
  check_valid "after victim resumes" (CT.validate t);
  check_bool "no binding lost" true
    (CT.lookup t a = Some 100 && CT.lookup t b = Some 101
   && CT.lookup t c = Some 102)

(* Ctrie copy-on-write: renewing a CNode must not copy a child that is
   already in the current generation.  In a writable snapshot, an
   insert that splits an SNode adds a current-generation child X to a
   CNode whose other children are still shared with the source.  The
   victim parks just before publishing into X; a peer then walks into
   an old sibling, which renews the CNode.  Had the renewal copied X,
   the victim's update would land in the orphaned original. *)
let test_stall_renewal_keeps_live_child () =
  Fun.protect ~finally:Chaos.clear @@ fun () ->
  let module CB = Ctrie_snap.Make (Hashing.Bad_hash_int) in
  (* Identity hashes, 5 bits a level: all keys share root slot 0;
     [y1]/[y2] form an I-node at level-1 slot 2, [a]/[b]/[c] share
     level-1 slot 1 and split at level 2. *)
  let y1 = 2 lsl 5 and a = 1 lsl 5 in
  let y2 = y1 + (1 lsl 10) and b = a + (1 lsl 10) and c = a + (2 lsl 10) in
  let src = CB.create () in
  List.iter (fun k -> CB.insert src k k) [ y1; y2; a ];
  let t = CB.snapshot src in
  CB.insert t b b;
  let inj = Chaos.stall (site "ctrie_snap.gcas.publish") in
  let victim = Domain.spawn (fun () -> Chaos.as_victim inj (fun () -> CB.insert t c c)) in
  await ~what:"victim parked before publishing into the split" (fun () ->
      Chaos.stalled inj);
  check_bool "old sibling read through the renewal" true (CB.lookup t y1 = Some y1);
  Chaos.release inj;
  Domain.join victim;
  Chaos.clear ();
  check_bool "parked insert survives the renewal" true (CB.lookup t c = Some c);
  List.iter
    (fun k -> check_bool "binding kept" true (CB.lookup t k = Some k))
    [ y1; y2; a; b ];
  check_valid "clone after renewal" (CB.validate t);
  check_bool "source untouched" true (CB.lookup src b = None && CB.lookup src c = None)

(* Ctrie_snap: a remove must not leave a TNode reachable when a
   snapshot lands between its entombing GCAS and the compaction of the
   tomb's parent.  The victim parks right after committing the tomb;
   the snapshot then moves the root generation, so compacting the
   parent in the old generation can never commit.  The remove has to
   finish the cleanup from the new root. *)
let test_stall_snapshot_after_entomb () =
  Fun.protect ~finally:Chaos.clear @@ fun () ->
  let module CB = Ctrie_snap.Make (Hashing.Bad_hash_int) in
  (* Identity hashes, 5 bits a level: [a] and [b] share root slot 1 and
     split at level 1, so removing [b] entombs their I-node. *)
  let a = 1 and b = 1 + (1 lsl 5) in
  let t = CB.create () in
  CB.insert t a a;
  CB.insert t b b;
  let inj = Chaos.stall ~phase:Yp.After (site "ctrie_snap.gcas.commit") in
  let victim = Domain.spawn (fun () -> Chaos.as_victim inj (fun () -> CB.remove t b)) in
  await ~what:"victim parked after committing the tomb" (fun () -> Chaos.stalled inj);
  let snap = CB.snapshot t in
  Chaos.release inj;
  let removed = Domain.join victim in
  Chaos.clear ();
  check_bool "remove reported the binding" true (removed = Some b);
  check_valid "no TNode left behind" (CB.validate t);
  check_bool "live trie" true (CB.lookup t a = Some a && CB.lookup t b = None);
  (* The remove linearized before the snapshot, so the snapshot holds
     the tomb too; its own first read compacts it. *)
  check_bool "snapshot" true (CB.lookup snap a = Some a && CB.lookup snap b = None);
  check_valid "snapshot after a read" (CB.validate snap)

(* ----------------------- lock-freedom battery ---------------------- *)

(* A chaos subject: one shared instance of a structure plus a mixed
   workload step and a quiescent validator. *)
type subject = {
  s_step : int -> Rng.t -> unit;
  s_validate : unit -> (unit, string) result;
  s_last : string array;
}

let key_range = 1024

let cachetrie_subject ~cache () =
  let config = { Cachetrie.default_config with enable_cache = cache } in
  let t = CT.create_with ~config () in
  for k = 0 to key_range - 1 do
    CT.insert t k k
  done;
  let last = Array.make 4 "" in
  let step slot rng =
    let k = Rng.next_int rng key_range in
    match Rng.next_int rng 10 with
    | 0 | 1 | 2 | 3 ->
        last.(slot) <- Printf.sprintf "insert %d" k;
        CT.insert t k (k + 1)
    | 4 | 5 | 6 ->
        last.(slot) <- Printf.sprintf "remove %d" k;
        ignore (CT.remove t k)
    | _ ->
        last.(slot) <- Printf.sprintf "lookup %d" k;
        ignore (CT.lookup t k)
  in
  { s_step = step; s_validate = (fun () -> CT.validate t); s_last = last }

(* The Ctrie at depth (Variants.Deep_ctrie), without snapshots: a
   parked victim sits on I-node chains several levels deep. *)
let ctrie_subject () =
  let t = CTR.create () in
  for k = 0 to key_range - 1 do
    CTR.insert t k k
  done;
  let last = Array.make 4 "" in
  let step slot rng =
    let k = Rng.next_int rng key_range in
    match Rng.next_int rng 10 with
    | 0 | 1 | 2 | 3 ->
        last.(slot) <- Printf.sprintf "insert %d" k;
        CTR.insert t k (k + 1)
    | 4 | 5 | 6 ->
        last.(slot) <- Printf.sprintf "remove %d" k;
        ignore (CTR.remove t k)
    | _ ->
        last.(slot) <- Printf.sprintf "lookup %d" k;
        ignore (CTR.lookup t k)
  in
  { s_step = step; s_validate = (fun () -> CTR.validate t); s_last = last }

let ctrie_snap_subject () =
  let t = CSN.create () in
  for k = 0 to key_range - 1 do
    CSN.insert t k k
  done;
  let last = Array.make 4 "" in
  let step slot rng =
    let k = Rng.next_int rng key_range in
    match Rng.next_int rng 10 with
    | 0 | 1 | 2 | 3 ->
        last.(slot) <- Printf.sprintf "insert %d" k;
        CSN.insert t k (k + 1)
    | 4 | 5 | 6 ->
        last.(slot) <- Printf.sprintf "remove %d" k;
        ignore (CSN.remove t k)
    | 7 when Rng.next_int rng 100 = 0 ->
        last.(slot) <- "snapshot";
        ignore (CSN.snapshot t)
    | _ ->
        last.(slot) <- Printf.sprintf "lookup %d" k;
        ignore (CSN.lookup t k)
  in
  { s_step = step; s_validate = (fun () -> CSN.validate t); s_last = last }

module FK = Oa.Folklore.Make (Hashing.Int_key)

(* The folklore table's lock-freedom rests on help-to-completion
   migration: a victim parked mid-freeze, mid-copy or just before the
   root publish holds nothing exclusive, and any writer observing the
   frozen residue finishes the whole migration itself.  The workload
   skews toward removes so the tombstone threshold keeps triggering
   same-capacity compaction migrations while the victim is parked. *)
let folklore_subject () =
  let t = FK.create () in
  for k = 0 to key_range - 1 do
    FK.insert t k k
  done;
  let last = Array.make 4 "" in
  let step slot rng =
    let k = Rng.next_int rng key_range in
    match Rng.next_int rng 10 with
    | 0 | 1 | 2 ->
        last.(slot) <- Printf.sprintf "insert %d" k;
        FK.insert t k (k + 1)
    | 3 | 4 | 5 | 6 ->
        last.(slot) <- Printf.sprintf "remove %d" k;
        ignore (FK.remove t k)
    | _ ->
        last.(slot) <- Printf.sprintf "lookup %d" k;
        ignore (FK.lookup t k)
  in
  { s_step = step; s_validate = (fun () -> FK.validate t); s_last = last }

let peer_ops = 10_000

(* Park the victim at (site, phase); 3 peers must still finish 10k
   mixed operations each.  Joining the peers IS the lock-freedom
   assertion — if helping were broken this hangs (the CI job runs the
   chaos suite under a hard timeout for exactly that reason). *)
let stall_scenario mk_subject (sname : string) phase s =
  let subject = mk_subject () in
  let inj = Chaos.stall ~phase s in
  let stop = Atomic.make false in
  let peers_done = Atomic.make 0 in
  let victim_done = Atomic.make false in
  let quiesced = Atomic.make false in
  (* Domains idle here (sleeping = blocking section, so they keep
     answering STW requests) instead of terminating: domain teardown
     concurrent with allocating mutators occasionally wedges this
     OCaml's STW machinery, which would read as a bogus lock-freedom
     failure. *)
  let park () =
    while not (Atomic.get quiesced) do
      Unix.sleepf 1e-4
    done
  in
  let victim =
    Domain.spawn (fun () ->
        Chaos.as_victim inj (fun () ->
            let rng = Rng.create 0xFEED in
            while not (Atomic.get stop) do
              subject.s_step 3 rng
            done);
        Atomic.set victim_done true;
        park ())
  in
  let counters = Array.init 3 (fun _ -> Atomic.make 0) in
  let peers =
    List.init 3 (fun i ->
        Domain.spawn (fun () ->
            let rng = Rng.create (0xBEEF + (i * 7919)) in
            for _ = 1 to peer_ops do
              subject.s_step i rng;
              Atomic.incr counters.(i)
            done;
            Atomic.incr peers_done;
            park ()))
  in
  (* The lock-freedom assertion: every peer finishes its quota even
     though the victim may be parked the whole time. *)
  let t0 = Unix.gettimeofday () in
  while Atomic.get peers_done < 3 do
    Unix.sleepf 1e-4;
    if Unix.gettimeofday () -. t0 > 60.0 then begin
      (* Lock-freedom violated: at least one peer is stuck inside a
         single operation while the victim is parked.  Release
         everything we can (the livelocked peer may never exit, so we
         deliberately do NOT join) and fail with a snapshot of where
         each domain last was — this caught a clean_parent livelock in
         ctrie_snap once, so keep the diagnostics rich. *)
      Atomic.set stop true;
      Chaos.release inj;
      Atomic.set quiesced true;
      Alcotest.failf
        "%s: peers stuck while victim parked at %s (%s): peers_done=%d \
         counters=%d,%d,%d stalled=%b last=[%s | %s | %s] victim=[%s]"
        sname (Yp.name s)
        (match phase with Yp.Before -> "before" | Yp.After -> "after")
        (Atomic.get peers_done) (Atomic.get counters.(0))
        (Atomic.get counters.(1)) (Atomic.get counters.(2))
        (Chaos.stalled inj) subject.s_last.(0) subject.s_last.(1)
        subject.s_last.(2) subject.s_last.(3)
    end
  done;
  Atomic.set stop true;
  Chaos.release inj;
  while not (Atomic.get victim_done) do
    Unix.sleepf 1e-4
  done;
  Atomic.set quiesced true;
  List.iter Domain.join peers;
  Domain.join victim;
  Chaos.clear ();
  match subject.s_validate () with
  | Ok () -> ()
  | Error e ->
      Alcotest.failf "%s: invalid after stall at %s (%s): %s" sname (Yp.name s)
        (match phase with Yp.Before -> "before" | Yp.After -> "after")
        e

(* After-phase stalls only matter at publication points (the victim
   then parks holding a live descriptor/announcement). *)
let after_sites =
  [
    "cachetrie.expand.publish";
    "cachetrie.compress.publish";
    "cachetrie.txn.announce";
    "cachetrie.freeze.txn";
    "ctrie_snap.gcas.publish";
    "ctrie_snap.rdcss.publish";
  ]

let lock_freedom_battery sname prefix mk_subject () =
  let sites = Yp.with_prefix prefix in
  check_bool (prefix ^ " has instrumented points") true (sites <> []);
  List.iter
    (fun s ->
      stall_scenario mk_subject sname Yp.Before s;
      if List.mem (Yp.name s) after_sites then
        stall_scenario mk_subject sname Yp.After s)
    sites

(* --------------------- linearizability under jitter ----------------- *)

module CT_nocache = struct
  include CT

  let name = "cachetrie-nc"

  let create () =
    create_with
      ~config:{ Cachetrie.default_config with enable_cache = false }
      ()
end

let jitter_battery name (module M : Lincheck.IMAP) () =
  Fun.protect ~finally:Chaos.clear @@ fun () ->
  for seed = 1 to 10 do
    ignore (Chaos.jitter ~seed ~one_in:2 ~max_spin:2048 () : Chaos.t);
    if
      not
        (Lincheck.run_random
           (module M)
           ~seed ~threads:3 ~ops_per_thread:5 ~key_range:3)
    then Alcotest.failf "%s: non-linearizable history under jitter, seed %d" name seed
  done

let suite =
  [
    ("crash_expansion_publish", `Quick, test_crash_expansion_publish);
    ("crash_mid_freeze", `Quick, test_crash_mid_freeze);
    ("crash_expand_wide", `Quick, test_crash_expand_wide);
    ("crash_txn_announce_replace", `Quick, test_crash_txn_announce_replace);
    ("crash_txn_announce_removed", `Quick, test_crash_txn_announce_removed);
    ("crash_compression_publish", `Quick, test_crash_compression_publish);
    ("crash_ctrie_tnode", `Quick, test_crash_ctrie_tnode);
    ("crash_gcas_publish", `Quick, test_crash_gcas_publish);
    ("crash_rdcss_publish", `Quick, test_crash_rdcss_publish);
    ("stall_helping_expansion", `Quick, test_stall_helping_expansion);
    ("stall_renewal_keeps_live_child", `Quick, test_stall_renewal_keeps_live_child);
    ("stall_snapshot_after_entomb", `Quick, test_stall_snapshot_after_entomb);
    ( "lock_freedom_cachetrie",
      `Slow,
      lock_freedom_battery "cachetrie" "cachetrie."
        (cachetrie_subject ~cache:true) );
    ( "lock_freedom_cachetrie_nocache",
      `Slow,
      lock_freedom_battery "cachetrie-nc" "cachetrie."
        (cachetrie_subject ~cache:false) );
    ( "lock_freedom_ctrie",
      `Slow,
      lock_freedom_battery "ctrie" "ctrie_snap." ctrie_subject );
    ( "lock_freedom_ctrie_snap",
      `Slow,
      lock_freedom_battery "ctrie-snap" "ctrie_snap." ctrie_snap_subject );
    ("jitter_lincheck_cachetrie", `Slow, jitter_battery "cachetrie" (module CT));
    ( "jitter_lincheck_cachetrie_nocache",
      `Slow,
      jitter_battery "cachetrie-nc" (module CT_nocache) );
    ( "lock_freedom_oa_folklore",
      `Slow,
      lock_freedom_battery "oa-folklore" "oa." folklore_subject );
    ("jitter_lincheck_ctrie", `Slow, jitter_battery "ctrie" (module CTR));
    ("jitter_lincheck_ctrie_snap", `Slow, jitter_battery "ctrie-snap" (module CSN));
    ("jitter_lincheck_oa_folklore", `Slow, jitter_battery "oa-folklore" (module FK));
  ]
