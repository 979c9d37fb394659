(* Persistence layer (DESIGN.md §14): CRC32 vectors, WAL append /
   group-commit acks / rotation, checkpoint round-trips, recovery's
   typed refusals (torn tail strict vs salvage, mid-file corruption,
   LSN gaps, corrupt checkpoints), the durable serving loop end to
   end (including one key written from two loops), and the property that salvage recovery after a randomly placed
   crash is exactly a prefix of the appended operations. *)

module Wal = Persist.Wal
module Checkpoint = Persist.Checkpoint
module Recovery = Persist.Recovery
module Crc32 = Persist.Crc32
module Io = Persist.Io
module Disk = Chaos.Disk

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let dir_counter = ref 0

let with_dir f =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ct_persist_%d_%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let await what f =
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (f ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 1e-3
  done;
  if not (f ()) then Alcotest.failf "timed out waiting for %s" what

(* Recover [dir] into a fresh table; salvage off unless asked. *)
let load_tbl ?(salvage = false) dir =
  let tbl = Hashtbl.create 16 in
  let r =
    Recovery.load ~salvage ~dir
      ~put:(fun k v -> Hashtbl.replace tbl k v)
      ~remove:(fun k -> Hashtbl.remove tbl k)
      ()
  in
  (tbl, r)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* ------------------------------- crc32 ------------------------------ *)

let test_crc_vectors () =
  (* The IEEE 802.3 check value every CRC-32 implementation must hit. *)
  check_int "check vector" 0xCBF43926 (Crc32.string "123456789");
  check_int "empty" 0 (Crc32.string "");
  (* Incremental updates compose to the one-shot digest. *)
  let b = Bytes.of_string "123456789" in
  let half = Crc32.update 0 b 0 4 in
  check_int "incremental" (Crc32.string "123456789")
    (Crc32.update half b 4 5);
  (* A single flipped bit never goes unnoticed. *)
  let c0 = Crc32.string "hello world" in
  let b = Bytes.of_string "hello world" in
  Bytes.set b 4 (Char.chr (Char.code (Bytes.get b 4) lxor 1));
  check_bool "bit flip detected" true (Crc32.bytes b 0 (Bytes.length b) <> c0)

(* -------------------------------- wal ------------------------------- *)

let test_wal_roundtrip () =
  with_dir @@ fun dir ->
  let w = Wal.open_ ~dir ~next_lsn:1 () in
  check_bool "lsn 1" true (Wal.append w (Wal.Put (1, "one")) = Ok 1);
  check_bool "lsn 2" true (Wal.append w (Wal.Put (2, "two")) = Ok 2);
  check_bool "lsn 3" true (Wal.append w (Wal.Remove 1) = Ok 3);
  check_int "last_lsn" 3 (Wal.last_lsn w);
  (* Group commit: the subscription fires Durable once the covering
     fsync lands, without an explicit flush. *)
  let acked = ref None in
  Wal.subscribe w ~lsn:3 ~deadline_ns:max_int (fun a -> acked := Some a);
  await "durable ack" (fun () -> !acked <> None);
  check_bool "ack is Durable" true (!acked = Some Wal.Durable);
  check_bool "durable covers lsn 3" true (Wal.durable_lsn w >= 3);
  (* An already-durable LSN acks synchronously. *)
  let now = ref None in
  Wal.subscribe w ~lsn:1 ~deadline_ns:max_int (fun a -> now := Some a);
  check_bool "covered lsn acks immediately" true (!now = Some Wal.Durable);
  check_bool "close flushes" true (Wal.close w = Ok ());
  let tbl, r = load_tbl dir in
  (match r with
  | Ok stats ->
      check_int "replayed" 3 stats.Recovery.replayed;
      check_int "last_lsn recovered" 3 stats.Recovery.last_lsn;
      check_int "no checkpoint" 0 stats.Recovery.checkpoint_lsn
  | Error e -> Alcotest.failf "recovery: %s" (Recovery.error_to_string e));
  check_bool "bindings" true (sorted_bindings tbl = [ (2, "two") ])

let test_wal_rotate_and_gap () =
  with_dir @@ fun dir ->
  let w = Wal.open_ ~dir ~next_lsn:1 () in
  for i = 1 to 5 do
    ignore (Wal.append w (Wal.Put (i, string_of_int i)))
  done;
  (match Wal.rotate w with
  | Ok b -> check_int "boundary = last sealed lsn" 5 b
  | Error _ -> Alcotest.fail "rotate");
  check_bool "sealed segment is durable" true (Wal.durable_lsn w >= 5);
  for i = 6 to 8 do
    ignore (Wal.append w (Wal.Put (i, string_of_int i)))
  done;
  check_bool "two segments" true (Wal.segment_starts dir = [ 1; 6 ]);
  check_bool "flush pushes the new segment's records" true
    (Wal.flush w = Ok ());
  let tbl, r = load_tbl dir in
  check_bool "full replay across segments" true
    (match r with Ok s -> s.Recovery.replayed = 8 | Error _ -> false);
  check_int "all keys present" 8 (Hashtbl.length tbl);
  (* Dropping a covered segment is only sound under a checkpoint; with
     none, recovery must refuse the hole as a typed LSN gap. *)
  check_int "dropped the sealed segment" 1 (Wal.drop_segments_below w ~lsn:5);
  check_bool "current segment survives" true (Wal.segment_starts dir = [ 6 ]);
  ignore (Wal.close w);
  let _, r = load_tbl dir in
  (match r with
  | Error (Recovery.Lsn_gap { expected; found; _ }) ->
      check_int "expected lsn" 1 expected;
      check_int "found lsn" 6 found
  | Ok _ -> Alcotest.fail "gap recovered silently"
  | Error e -> Alcotest.failf "wrong refusal: %s" (Recovery.error_to_string e))

(* ----------------------------- checkpoint --------------------------- *)

let test_checkpoint_roundtrip () =
  with_dir @@ fun dir ->
  let bindings = [ (1, "a"); (2, "bb"); (3, "") ] in
  let iter emit = List.iter (fun (k, v) -> emit k v) bindings in
  (match Checkpoint.write ~dir ~lsn:42 ~iter () with
  | Ok n -> check_int "bindings written" 3 n
  | Error _ -> Alcotest.fail "checkpoint write");
  (match Checkpoint.latest ~dir with
  | Some (42, path) -> (
      let tbl = Hashtbl.create 8 in
      match Checkpoint.read ~path ~add:(Hashtbl.replace tbl) with
      | Ok (lsn, n) ->
          check_int "lsn" 42 lsn;
          check_int "count" 3 n;
          check_bool "bindings round-trip" true
            (sorted_bindings tbl = List.sort compare bindings)
      | Error e -> Alcotest.failf "checkpoint read: %s" e)
  | _ -> Alcotest.fail "latest");
  (* A newer checkpoint supersedes; gc reaps the old one. *)
  ignore (Checkpoint.write ~dir ~lsn:100 ~iter ());
  check_bool "gc removed the stale file" true (Checkpoint.gc ~dir ~keep:100 >= 1);
  (match Checkpoint.latest ~dir with
  | Some (100, _) -> ()
  | _ -> Alcotest.fail "latest after gc");
  (* Recovery composes checkpoint + WAL suffix beyond its LSN. *)
  let w = Wal.open_ ~dir ~next_lsn:101 () in
  ignore (Wal.append w (Wal.Put (9, "nine")));
  ignore (Wal.append w (Wal.Remove 1));
  ignore (Wal.close w);
  let tbl, r = load_tbl dir in
  (match r with
  | Ok s ->
      check_int "checkpoint lsn" 100 s.Recovery.checkpoint_lsn;
      check_int "checkpoint records" 3 s.Recovery.checkpoint_records;
      check_int "wal suffix replayed" 2 s.Recovery.replayed
  | Error e -> Alcotest.failf "recovery: %s" (Recovery.error_to_string e));
  check_bool "composed state" true
    (sorted_bindings tbl = [ (2, "bb"); (3, ""); (9, "nine") ])

let flip_byte path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

let test_checkpoint_corruption_refused () =
  with_dir @@ fun dir ->
  let iter emit = emit 1 "payload-bytes-here" in
  ignore (Checkpoint.write ~dir ~lsn:7 ~iter ());
  let path = Filename.concat dir (Checkpoint.ckpt_name 7) in
  (* Flip a payload byte well past the magic + lsn header. *)
  flip_byte path 30;
  check_bool "direct read refuses" true
    (Result.is_error (Checkpoint.read ~path ~add:(fun _ _ -> ())));
  (* A corrupt published checkpoint is refused even in salvage mode:
     it was fsynced before rename, so damage is not a crash artifact. *)
  List.iter
    (fun salvage ->
      match load_tbl ~salvage dir with
      | _, Error (Recovery.Corrupt_checkpoint _) -> ()
      | _, Ok _ -> Alcotest.fail "corrupt checkpoint recovered silently"
      | _, Error e ->
          Alcotest.failf "wrong refusal: %s" (Recovery.error_to_string e))
    [ false; true ]

(* ------------------------- recovery refusals ------------------------ *)

(* Hand-build a segment from encoded records so damage lands at exact
   offsets. *)
let write_segment dir records =
  let path = Filename.concat dir (Wal.seg_name 1) in
  let oc = open_out_bin path in
  List.iter (fun b -> output_bytes oc b) records;
  close_out oc;
  path

let test_torn_tail_strict_vs_salvage () =
  with_dir @@ fun dir ->
  let r1 = Wal.encode_record ~lsn:1 (Wal.Put (7, "seven")) in
  let r2 = Wal.encode_record ~lsn:2 (Wal.Put (8, "eight")) in
  let path = write_segment dir [ r1; r2 ] in
  let full = Bytes.length r1 + Bytes.length r2 in
  Unix.truncate path (full - 3);
  (* Strict: the torn tail is a typed refusal naming the spot. *)
  (match load_tbl dir with
  | _, Error (Recovery.Torn_tail { off; _ }) ->
      check_int "tear located at the record boundary" (Bytes.length r1) off
  | _, Ok _ -> Alcotest.fail "torn tail recovered silently"
  | _, Error e ->
      Alcotest.failf "wrong refusal: %s" (Recovery.error_to_string e));
  (* Salvage: truncate the provably-unacked tail, keep the prefix. *)
  let tbl, r = load_tbl ~salvage:true dir in
  (match r with
  | Ok s ->
      check_int "prefix replayed" 1 s.Recovery.replayed;
      check_bool "tail bytes truncated" true (s.Recovery.salvaged_bytes > 0)
  | Error e -> Alcotest.failf "salvage: %s" (Recovery.error_to_string e));
  check_bool "prefix state" true (sorted_bindings tbl = [ (7, "seven") ]);
  (* The salvage healed the file: strict now accepts it. *)
  check_bool "strict accepts after salvage" true
    (match load_tbl dir with _, Ok s -> s.Recovery.replayed = 1 | _ -> false)

let test_midfile_corruption_refused () =
  with_dir @@ fun dir ->
  let r1 = Wal.encode_record ~lsn:1 (Wal.Put (7, "seven")) in
  let r2 = Wal.encode_record ~lsn:2 (Wal.Put (8, "eight")) in
  let path = write_segment dir [ r1; r2 ] in
  (* Damage record 1's payload: valid data follows, so this is disk
     rot, not a crash — refused in both modes. *)
  flip_byte path 12;
  List.iter
    (fun salvage ->
      match load_tbl ~salvage dir with
      | _, Error (Recovery.Corrupt_record { off; _ }) ->
          check_int "damage located" 0 off
      | _, Ok _ -> Alcotest.fail "mid-file corruption recovered silently"
      | _, Error e ->
          Alcotest.failf "wrong refusal: %s" (Recovery.error_to_string e))
    [ false; true ]

let test_lsn_gap_refused () =
  with_dir @@ fun dir ->
  let r1 = Wal.encode_record ~lsn:1 (Wal.Put (1, "a")) in
  let r3 = Wal.encode_record ~lsn:3 (Wal.Put (3, "c")) in
  ignore (write_segment dir [ r1; r3 ]);
  List.iter
    (fun salvage ->
      match load_tbl ~salvage dir with
      | _, Error (Recovery.Lsn_gap { expected = 2; found = 3; _ }) -> ()
      | _, Ok _ -> Alcotest.fail "lsn gap recovered silently"
      | _, Error e ->
          Alcotest.failf "wrong refusal: %s" (Recovery.error_to_string e))
    [ false; true ]

(* --------------------------- durable serving ------------------------ *)

module DS = Kv.Server.Make (Kv.Durable.Map)

let test_durable_server_survives_restart () =
  with_dir @@ fun dir ->
  (match Kv.Durable.open_ ~dir () with
  | Error e -> Alcotest.failf "open: %s" (Recovery.error_to_string e)
  | Ok (st, _) ->
      let srv =
        DS.start
          ~durable:(Kv.Durable.hooks st)
          (Kv.Durable.map st)
      in
      let c = Kv.Client.connect ~port:(DS.port srv) () in
      check_bool "put acked durably" true
        (Kv.Client.put c 5 "five" = Kv.Protocol.Stored false);
      check_bool "remove acked durably" true
        (Kv.Client.put c 6 "six" = Kv.Protocol.Stored false
        && Kv.Client.remove c 6 = Kv.Protocol.Removed);
      check_bool "get serves" true (Kv.Client.get c 5 = Kv.Protocol.Value "five");
      Kv.Client.close c;
      check_bool "drain flushes" true (DS.drain ~timeout:5.0 srv);
      check_bool "close" true (Kv.Durable.close st = Ok ()));
  (* Next incarnation: acked effects are all there, removed key is
     gone. *)
  match Kv.Durable.open_ ~dir () with
  | Error e -> Alcotest.failf "reopen: %s" (Recovery.error_to_string e)
  | Ok (st, stats) ->
      check_bool "replayed the acked ops" true (stats.Recovery.replayed >= 3);
      check_bool "value survived" true
        (Kv.Durable.Map.lookup (Kv.Durable.map st) 5 = Some "five");
      check_bool "removed key stayed removed" true
        (Kv.Durable.Map.lookup (Kv.Durable.map st) 6 = None);
      ignore (Kv.Durable.close st)

(* Several connections write the same keys at once.  Each connection's
   frames run in order on the loop that owns it, but with two workers
   two loops can write one key concurrently; the WAL must still log a
   key's writes in the order the map applied them, or recovery brings
   back a value other than the one the server last served.  Each loop
   owns two of the writing connections, so both loops reach a round's
   last writes together; every round uses fresh keys, so each key's
   final write is a separate race; and a random pause after each exec
   widens the window between a write's apply and its append. *)
let test_durable_shared_key_order () =
  with_dir @@ fun dir ->
  let module Yp = Ct_util.Yieldpoint in
  let exec_domain = Atomic.make (-1) in
  Yp.install (fun phase site ->
      if phase = Yp.After && Yp.name site = "server.worker.exec" then begin
        Atomic.set exec_domain (Domain.self () :> int);
        Unix.sleepf (float_of_int (Random.int 200) *. 1e-6)
      end);
  Fun.protect ~finally:Yp.clear @@ fun () ->
  let per_loop = 2 and rounds = 40 and keys = 4 and reps = 8 in
  let config =
    {
      (Kv.Server.default_config ()) with
      Kv.Server.workers = 2;
      queue_capacity = keys * reps;
      tick_interval = 0.005;
    }
  in
  let st =
    match Kv.Durable.open_ ~dir () with
    | Ok (st, _) -> st
    | Error e -> Alcotest.failf "open: %s" (Recovery.error_to_string e)
  in
  let srv =
    DS.start ~config ~durable:(Kv.Durable.hooks st) (Kv.Durable.map st)
  in
  (* The loop that wins the accept owns a connection; a probe Get
     shows which domain that is.  Open connections until each loop
     owns [per_loop], closing the spares. *)
  let probe fd =
    let b =
      Kv.Protocol.encode_request
        { Kv.Protocol.id = 1; deadline_ns = 0; op = Kv.Protocol.Get (-1); trace = 0 }
    in
    ignore (Unix.write fd b 0 (Bytes.length b));
    let r = Kv.Protocol.Reader.create () in
    while Kv.Protocol.Reader.next_frame r = None do
      if Kv.Protocol.Reader.fill r fd = 0 then Alcotest.fail "probe refused"
    done;
    Atomic.get exec_domain
  in
  let rec open_conns owned attempts =
    if List.length owned = 2 * per_loop then List.map snd owned
    else if attempts = 0 then Alcotest.fail "connections never split across loops"
    else begin
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, DS.port srv));
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      let d = probe fd in
      if List.length (List.filter (fun (d', _) -> d' = d) owned) < per_loop
      then open_conns ((d, fd) :: owned) (attempts - 1)
      else begin
        Unix.close fd;
        open_conns owned (attempts - 1)
      end
    end
  in
  let fds = open_conns [] 64 in
  let failures = Atomic.make 0 in
  (* One burst: [reps] puts to each of the round's keys in one write,
     then every reply, each of which must be a durable ack. *)
  let burst round c fd =
    let frames =
      List.init (keys * reps) (fun i ->
          let k = (round * keys) + (i mod keys) in
          Kv.Protocol.encode_request
            {
              Kv.Protocol.id = i + 1;
              deadline_ns = 0;
              op = Kv.Protocol.Put (k, Printf.sprintf "c%d.%d" c i);
              trace = 0;
            })
    in
    let b = Bytes.concat Bytes.empty frames in
    try
      ignore (Unix.write fd b 0 (Bytes.length b));
      let r = Kv.Protocol.Reader.create () in
      let rec collect n =
        if n > 0 then
          match Kv.Protocol.Reader.next_frame r with
          | Some p -> (
              match Kv.Protocol.decode_reply p with
              | Ok (_, Kv.Protocol.Stored _) -> collect (n - 1)
              | _ -> Atomic.incr failures)
          | None ->
              if Kv.Protocol.Reader.fill r fd = 0 then Atomic.incr failures
              else collect n
      in
      collect (keys * reps)
    with _ -> Atomic.incr failures
  in
  for round = 0 to rounds - 1 do
    List.mapi (fun c fd -> Thread.create (burst round c) fd) fds
    |> List.iter Thread.join
  done;
  List.iter Unix.close fds;
  check_int "every write acked durably" 0 (Atomic.get failures);
  let served =
    let c = Kv.Client.connect ~port:(DS.port srv) () in
    let vs =
      List.init (rounds * keys) (fun k ->
          match Kv.Client.get c k with
          | Kv.Protocol.Value v -> (k, v)
          | _ -> Alcotest.failf "key %d not served" k)
    in
    Kv.Client.close c;
    vs
  in
  Io.halt ();
  DS.kill srv;
  Kv.Durable.abandon st;
  Io.resurrect ();
  match Kv.Durable.open_ ~dir () with
  | Error e -> Alcotest.failf "recover: %s" (Recovery.error_to_string e)
  | Ok (st, _) ->
      let m = Kv.Durable.map st in
      let stale =
        List.filter (fun (k, v) -> Kv.Durable.Map.lookup m k <> Some v) served
      in
      ignore (Kv.Durable.close st);
      check_int "keys recovered to a value other than the last served" 0
        (List.length stale)

(* ------------------------ crash-point property ---------------------- *)

(* Chaos.Disk kills the WAL at a random point (write or fsync, after a
   random count); salvage recovery must then be EXACTLY a prefix of
   the appended operations — same effects, no reordering, nothing
   invented.  This is the in-memory reference replay the crash storm's
   ledger check builds on. *)

type pop = int * string option  (* key, Some v = put, None = remove *)

let pop_gen =
  QCheck.Gen.(
    pair (int_bound 7)
      (frequency
         [
           (3, map (fun n -> Some (string_of_int n)) (int_bound 99));
           (1, return None);
         ]))

let show_pop (k, v) =
  match v with
  | Some v -> Printf.sprintf "put %d %s" k v
  | None -> Printf.sprintf "rm %d" k

let crash_case_gen =
  QCheck.Gen.(
    triple
      (list_size (int_range 1 60) pop_gen)
      (int_bound 20) bool)

let crash_case_arb =
  QCheck.make
    ~print:(fun (ops, after, at_fsync) ->
      Printf.sprintf "[%s] after=%d at_fsync=%b"
        (String.concat "; " (List.map show_pop ops))
        after at_fsync)
    crash_case_gen

let apply_pop tbl (k, v) =
  match v with
  | Some v -> Hashtbl.replace tbl k v
  | None -> Hashtbl.remove tbl k

let crash_prefix_prop (ops, after, at_fsync) =
  with_dir @@ fun dir ->
  let quiet_kill =
    {
      Disk.seed = 0x9E5;
      target = "wal-";
      torn_one_in = 0;
      short_one_in = 0;
      fsync_fail_one_in = 0;
      fsync_delay_one_in = 0;
      fsync_delay_s = 0.0;
    }
  in
  let disk = Disk.install ~salt:(after + Bool.to_int at_fsync) quiet_kill in
  Fun.protect ~finally:(fun () ->
      Disk.clear ();
      Io.resurrect ())
  @@ fun () ->
  Disk.arm_kill disk ~target:"wal-" ~at_fsync ~after ();
  let config =
    { Wal.default_config with Wal.commit_interval = 0.0005 }
  in
  let w = Wal.open_ ~config ~dir ~next_lsn:1 () in
  let appended = ref 0 in
  List.iter
    (fun (k, v) ->
      let op = match v with Some v -> Wal.Put (k, v) | None -> Wal.Remove k in
      match Wal.append w op with
      | Ok _ -> incr appended
      | Error _ -> ())
    ops;
  (* Push everything buffered at the crash site; then tear down the
     incarnation the way the crash left it. *)
  ignore (Wal.flush w);
  if Io.is_halted () then Wal.abandon w else ignore (Wal.close w);
  Io.resurrect ();
  Disk.clear ();
  let tbl, r = load_tbl ~salvage:true dir in
  match r with
  | Error e ->
      QCheck.Test.fail_reportf "salvage refused: %s"
        (Recovery.error_to_string e)
  | Ok stats ->
      let p = stats.Recovery.replayed in
      if p > !appended then
        QCheck.Test.fail_reportf "replayed %d > appended %d" p !appended;
      let reference = Hashtbl.create 8 in
      List.iteri
        (fun i op -> if i < p then apply_pop reference op)
        ops;
      if sorted_bindings tbl <> sorted_bindings reference then
        QCheck.Test.fail_reportf
          "recovered state is not the %d-op prefix: got %s, want %s" p
          (String.concat ","
             (List.map
                (fun (k, v) -> Printf.sprintf "%d=%s" k v)
                (sorted_bindings tbl)))
          (String.concat ","
             (List.map
                (fun (k, v) -> Printf.sprintf "%d=%s" k v)
                (sorted_bindings reference)));
      true

(* Every fsync fails, so the first group commit exhausts its retry
   budget and degrades the log.  Closing a degraded log must still
   reap its threads: the ack pump used to exit only on [Closed], so
   [close] waited on it forever (the recovery storm wedged this way). *)
let test_wal_degraded_close () =
  with_dir @@ fun dir ->
  let failing_fsync =
    {
      Disk.seed = 0xFA11;
      target = "wal-";
      torn_one_in = 0;
      short_one_in = 0;
      fsync_fail_one_in = 1;
      fsync_delay_one_in = 0;
      fsync_delay_s = 0.0;
    }
  in
  ignore (Disk.install failing_fsync);
  Fun.protect ~finally:Disk.clear @@ fun () ->
  let config = { Wal.default_config with Wal.fsync_retries = 0 } in
  let w = Wal.open_ ~config ~dir ~next_lsn:1 () in
  ignore (Wal.append w (Wal.Put (1, "v")));
  Alcotest.(check bool) "flush degrades" true (Wal.flush w = Error `Degraded);
  let closed = Atomic.make false in
  ignore
    (Thread.create
       (fun () ->
         ignore (Wal.close w);
         Atomic.set closed true)
       ());
  await "close of a degraded log" (fun () -> Atomic.get closed)

let qtests =
  [
    QCheck.Test.make ~count:40
      ~name:"salvage recovery is a prefix of appends at random crash points"
      crash_case_arb crash_prefix_prop;
  ]

let suite =
  [
    Alcotest.test_case "crc_vectors" `Quick test_crc_vectors;
    Alcotest.test_case "wal_roundtrip" `Quick test_wal_roundtrip;
    Alcotest.test_case "wal_rotate_and_gap" `Quick test_wal_rotate_and_gap;
    Alcotest.test_case "wal_degraded_close" `Quick test_wal_degraded_close;
    Alcotest.test_case "checkpoint_roundtrip" `Quick test_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint_corruption_refused" `Quick
      test_checkpoint_corruption_refused;
    Alcotest.test_case "torn_tail_strict_vs_salvage" `Quick
      test_torn_tail_strict_vs_salvage;
    Alcotest.test_case "midfile_corruption_refused" `Quick
      test_midfile_corruption_refused;
    Alcotest.test_case "lsn_gap_refused" `Quick test_lsn_gap_refused;
    Alcotest.test_case "durable_server_survives_restart" `Quick
      test_durable_server_survives_restart;
    Alcotest.test_case "durable_shared_key_order" `Quick
      test_durable_shared_key_order;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qtests
