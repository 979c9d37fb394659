(* repro recover [--crashes N] [--seed S] [--dir D] [--keep]

   Crash-recovery storm for the durable serving mode (DESIGN.md §14).
   Each iteration: recover the store from disk, serve it, drive seeded
   partitioned traffic with the storage-fault injector armed to kill
   the process at a seeded point of group commit or checkpoint
   publication, then recover the next incarnation and verify against
   the load generator's ledger that every durably-acked operation
   survived and no unacknowledged operation was invented.  Torn tails
   must first draw the strict typed refusal before --salvage-style
   truncation is allowed to proceed.  On any failure the store's
   files, the kvload trace and the reason are saved under
   _recover_failures/ for offline replay. *)

module Durable = Kv.Durable
module Dsrv = Kv.Server.Make (Kv.Durable.Map)
module Recovery = Persist.Recovery
module Loadgen = Kv.Loadgen
module Rng = Ct_util.Rng

let store_dir = "_recover_store"
let artifacts_dir = "_recover_failures"

let copy_file src dst =
  let oc = open_out_bin dst in
  output_string oc (Setup.read_file src);
  close_out oc

(* Everything offline replay needs: the store's files as the crash
   left them, the exact traffic, and why verification refused. *)
let save_artifacts ~dir ~iter ~plan ~reason =
  let mkdir d =
    try Unix.mkdir d 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  in
  mkdir artifacts_dir;
  let dst =
    Filename.concat artifacts_dir (Printf.sprintf "crash_%03d" iter)
  in
  mkdir dst;
  (try
     Array.iter
       (fun f ->
         let p = Filename.concat dir f in
         if not (Sys.is_directory p) then copy_file p (Filename.concat dst f))
       (Sys.readdir dir)
   with Sys_error _ -> ());
  (match plan with
  | None -> ()
  | Some p ->
      let oc = open_out (Filename.concat dst "plan.kvload") in
      output_string oc (Loadgen.to_string p);
      close_out oc);
  let oc = open_out (Filename.concat dst "reason.txt") in
  output_string oc reason;
  output_char oc '\n';
  close_out oc;
  dst

(* Fast group commit so armed kills land early, checkpoints every few
   hundred records so checkpoint publication is a real kill target
   inside a sub-second run. *)
let durable_config =
  {
    Kv.Durable.wal =
      { Persist.Wal.default_config with Persist.Wal.commit_interval = 0.001 };
    checkpoint_every = 300;
  }

(* Two loops and a 2 s admission bound: the storm tests durability,
   so overload sheds would only thin the acked history it verifies. *)
let server_config =
  {
    Setup.config with
    Kv.Server.workers = 2;
    queue_capacity = 256;
    p99_bound_ns = 2_000_000_000;
  }

(* Ambient storage hostility under the armed kill: short writes the
   write loop must absorb, occasional fsync failures the retry budget
   must eat, occasional stalled fsyncs the deadline must bound. *)
let disk_plan seed =
  {
    Chaos.Disk.seed;
    target = "";
    torn_one_in = 0;
    short_one_in = 7;
    fsync_fail_one_in = 150;
    fsync_delay_one_in = 60;
    fsync_delay_s = 0.002;
  }

(* Partitioned keys are the verification precondition: one connection
   owns each key, so per-key histories are totally ordered. *)
let plan ~seed i =
  {
    Loadgen.seed = seed + (997 * i);
    n = 1_500;
    conns = 4;
    rate = 30_000.0;
    profile = Harness.Trace.write_heavy;
    deadline_ns = 250_000_000;
    value_bytes = 24;
    partition = true;
    net = Chaos.Net.quiet;
    trace_one_in = 0;
  }

let storm ~crashes ~seed ~dir ~keep l =
  let check = Setup.check l in
  Setup.rm_rf dir;
  let crashes_fired = ref 0
  and wal_kills = ref 0
  and ckpt_kills = ref 0
  and clean_runs = ref 0
  and strict_refusals = ref 0
  and salvages = ref 0
  and recovery_failures = ref 0
  and verify_failures = ref 0
  and ledger_failures = ref 0
  and total_replayed = ref 0
  and total_skipped = ref 0
  and total_ckpt_records = ref 0
  and tmp_discarded = ref 0 in
  let rng = Rng.create (Ct_util.Rng.mix64 (seed lxor 0x5707)) in
  (* Strict first, always: a torn tail must draw the typed refusal
     before salvage truncates it; anything else refusing is a bug. *)
  let reopen ~iter ~plan =
    match Durable.open_ ~config:durable_config ~dir () with
    | Ok (st, stats) -> Some (st, stats)
    | Error (Recovery.Torn_tail _ as e) -> (
        incr strict_refusals;
        Printf.printf "  [%03d] strict refusal (expected): %s\n%!" iter
          (Recovery.error_to_string e);
        match
          Durable.open_ ~config:durable_config ~salvage:true ~dir ()
        with
        | Ok (st, stats) ->
            incr salvages;
            Some (st, stats)
        | Error e ->
            incr recovery_failures;
            let reason =
              "salvage recovery refused: " ^ Recovery.error_to_string e
            in
            let saved = save_artifacts ~dir ~iter ~plan ~reason in
            Printf.printf "  [%03d] %s (artifacts: %s)\n%!" iter reason saved;
            None)
    | Error e ->
        incr recovery_failures;
        let reason = "strict recovery refused: " ^ Recovery.error_to_string e in
        let saved = save_artifacts ~dir ~iter ~plan ~reason in
        Printf.printf "  [%03d] %s (artifacts: %s)\n%!" iter reason saved;
        None
  in
  let bindings st =
    Durable.Map.fold_snapshot (fun acc k v -> (k, v) :: acc) [] (Durable.map st)
  in
  let verify_incarnation ~iter ~pending ~recovered =
    match pending with
    | None -> ()
    | Some (s, run_base, plan) -> (
        match Loadgen.verify_recovered s ~base:run_base ~bindings:recovered with
        | Ok () -> ()
        | Error msg ->
            incr verify_failures;
            let reason = "durability verification failed: " ^ msg in
            let saved =
              save_artifacts ~dir ~iter ~plan:(Some plan) ~reason
            in
            Printf.printf "  [%03d] %s (artifacts: %s)\n%!" iter reason saved)
  in
  (* pending = the crashed run awaiting verification: its summary, the
     store content when it started, and its plan (for artifacts). *)
  let pending = ref None in
  for i = 1 to crashes do
    let plan = plan ~seed i in
    match reopen ~iter:i ~plan:(Some plan) with
    | None ->
        (* Unrecoverable by policy: wipe and continue the storm so one
           refusal surfaces as one counted failure, not a cascade. *)
        Setup.rm_rf dir;
        pending := None
    | Some (st, stats) ->
        total_replayed := !total_replayed + stats.Recovery.replayed;
        total_skipped := !total_skipped + stats.Recovery.skipped;
        total_ckpt_records :=
          !total_ckpt_records + stats.Recovery.checkpoint_records;
        tmp_discarded := !tmp_discarded + stats.Recovery.tmp_discarded;
        let recovered = bindings st in
        verify_incarnation ~iter:i ~pending:!pending ~recovered;
        let srv =
          Dsrv.start
            ~config:server_config
            ~durable:(Durable.hooks st) (Durable.map st)
        in
        let disk = Chaos.Disk.install ~salt:i (disk_plan seed) in
        (* Seeded kill placement sweep: mostly mid group commit, the
           rest mid checkpoint publication; both write and fsync
           phases. *)
        let on_wal = Rng.next_int rng 3 < 2 in
        let target, after =
          if on_wal then ("wal-", 1 + Rng.next_int rng 25)
          else ("checkpoint-", Rng.next_int rng 3)
        in
        let at_fsync = Rng.next_int rng 2 = 0 in
        Chaos.Disk.arm_kill disk ~target ~at_fsync ~after ();
        (* The in-process kill -9: the instant the storage layer halts,
           sever every connection so clients see the death, not a
           wedged socket. *)
        let stop_watch = Atomic.make false in
        let watcher =
          Thread.create
            (fun () ->
              while
                (not (Atomic.get stop_watch)) && not (Persist.Io.is_halted ())
              do
                Unix.sleepf 0.0005
              done;
              if Persist.Io.is_halted () then Dsrv.kill srv)
            ()
        in
        let s = Loadgen.run ~port:(Dsrv.port srv) plan in
        (* A checkpoint-armed kill that found no organic checkpoint in
           a short run: force one cycle so the placement still fires. *)
        if Chaos.Disk.kill_armed disk then ignore (Durable.checkpoint_now st);
        Atomic.set stop_watch true;
        Thread.join watcher;
        let crashed = Persist.Io.is_halted () in
        if crashed then begin
          incr crashes_fired;
          if on_wal then incr wal_kills else incr ckpt_kills;
          Dsrv.kill srv;
          Durable.abandon st
        end
        else begin
          incr clean_runs;
          ignore (Dsrv.drain ~timeout:10.0 srv);
          ignore (Durable.close st)
        end;
        Chaos.Disk.clear ();
        Persist.Io.resurrect ();
        (match Loadgen.verify s with
        | Ok () -> ()
        | Error msg ->
            incr ledger_failures;
            Printf.printf "  [%03d] ledger: %s\n%!" i msg);
        pending := Some (s, recovered, plan)
  done;
  (* The last crash still awaits its recovery-side verdict. *)
  (match reopen ~iter:(crashes + 1) ~plan:None with
  | None -> ()
  | Some (st, stats) ->
      total_replayed := !total_replayed + stats.Recovery.replayed;
      verify_incarnation ~iter:(crashes + 1) ~pending:!pending
        ~recovered:(bindings st);
      ignore (Durable.close st));
  Printf.printf
    "storm: %d/%d runs crashed (%d mid-commit, %d mid-checkpoint), %d ran \
     clean\n\
     recovery: %d strict torn-tail refusals -> salvaged %d, %d partial \
     checkpoints discarded\n\
     replayed %d WAL records, skipped %d checkpoint-covered, loaded %d \
     checkpoint records\n%!"
    !crashes_fired crashes !wal_kills !ckpt_kills !clean_runs !strict_refusals
    !salvages !tmp_discarded !total_replayed !total_skipped !total_ckpt_records;
  check "storm actually killed the process" (!crashes_fired >= crashes / 2);
  check "every incarnation recovered (typed refusals only where salvage \
         applies)"
    (!recovery_failures = 0);
  check "torn tails drew the strict refusal before salvage"
    (!salvages = !strict_refusals);
  check "every durably-acked op survived; nothing invented"
    (!verify_failures = 0);
  check "every run's ledger verified (zero silent drops)"
    (!ledger_failures = 0);
  if !l = [] && not keep then Setup.rm_rf dir

