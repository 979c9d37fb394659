(* Tests for the benchmark's own code: frame splitting, due-time
   latency, reply checks, percentiles, stored-bytes accounting, the
   metric lists against BENCHMARK.json, and teardown. *)

open Pbench
module P = Kv.Protocol

(* ------------------------------ frames ------------------------------- *)

let frames_split_reads () =
  let replies = [ (2, P.Value "two"); (0, P.Nil); (1, P.Stored true) ] in
  let stream =
    Bytes.concat Bytes.empty (List.map (fun (id, r) -> P.encode_reply ~id r) replies)
  in
  (* Feed in every chunk size from 1 byte up: a read may end inside a
     length prefix, inside a payload, or exactly at a boundary. *)
  for chunk = 1 to Bytes.length stream do
    let f = Frames.create () in
    let got = ref [] in
    let off = ref 0 in
    while !off < Bytes.length stream do
      let n = min chunk (Bytes.length stream - !off) in
      Frames.feed f stream !off n;
      off := !off + n;
      let rec drain () =
        match Frames.next f with
        | Some p -> (
            match P.decode_reply p with
            | Ok r ->
                got := r :: !got;
                drain ()
            | Error e -> Alcotest.fail e)
        | None -> ()
      in
      drain ()
    done;
    Alcotest.(check int) "nothing left over" 0 (Frames.buffered f);
    Alcotest.(check (list int))
      (Printf.sprintf "ids in stream order, chunk %d" chunk)
      [ 2; 0; 1 ] (List.rev_map fst !got)
  done

let out_of_order_ids () =
  (* Replies complete the request they name, whatever their order. *)
  let ol = Openloop.create ~n:3 ~rate:1000.0 ~t0:0 in
  ol.Openloop.sent <- 3;
  List.iter
    (fun (id, at) -> Alcotest.(check bool) "first reply counts" true (Openloop.complete ol id ~at))
    [ (2, 5_000_000); (0, 6_000_000); (1, 7_000_000) ];
  Alcotest.(check bool) "duplicate ignored" false (Openloop.complete ol 1 ~at:9_000_000);
  Alcotest.(check (list int)) "latency per id"
    [ 6_000_000; 6_000_000; 3_000_000 ]
    (List.init 3 (Openloop.latency ol))

(* ---------------------------- due times ------------------------------ *)

let due_time_latency () =
  (* 1 request per ms on a fake clock.  Sending request 0 takes 2.5 ms
     (a driver stall), so requests 1 and 2 go out late; each reply
     arrives 0.5 ms after its send.  Latency must count from the due
     time, so the stall is charged to the delayed requests. *)
  let clock = ref 0 in
  let now () = !clock in
  let ol = Openloop.create ~n:4 ~rate:1000.0 ~t0:0 in
  let inflight = Queue.create () in
  let send i =
    if i = 0 then clock := !clock + 2_500_000;
    Queue.push (i, !clock + 500_000) inflight
  in
  let wait ~until =
    (match Queue.peek_opt inflight with
    | Some (i, at) when at <= until ->
        ignore (Queue.pop inflight);
        clock := max !clock at;
        ignore (Openloop.complete ol i ~at)
    | _ -> clock := until);
    true
  in
  Alcotest.(check bool) "ran to the end" true (Openloop.run ol ~now ~send ~wait);
  Openloop.finish ol ~now ~wait ~timeout_ns:10_000_000;
  Alcotest.(check (list int)) "lateness" [ 0; 1_500_000; 500_000; 0 ]
    (Array.to_list ol.Openloop.late);
  Alcotest.(check (list int)) "latency from due time"
    [ 3_000_000; 2_000_000; 1_000_000; 500_000 ]
    (List.init 4 (Openloop.latency ol))

(* --------------------------- reply checks ---------------------------- *)

let failed_write_in_flight () =
  (* 1 request per ms on a fake clock against a scripted server.  The
     puts to keys 5 and 6 miss their deadline and are not applied, and
     each get to the same key is sent while the put's failure reply is
     still on its way: for key 5 the get's reply even arrives first.
     Both gets see the preloaded value and must not count as wrong.
     The put to key 7 is applied, so a stale reply to its get must. *)
  let seed = 3 in
  let v k = Kvplan.value_of ~seed k 1 in
  let plan =
    Kvplan.[| Put (5, v 5); Get 5; Put (6, v 6); Get 6; Put (7, v 7); Get 7 |]
  in
  let fails = [ 0; 2 ] and delay_ns = [| 3_500_000; 500_000; 1_500_000; 1_000_000; 500_000; 500_000 |] in
  let clock = ref 0 in
  let now () = !clock in
  let r = Kvrun.create ~seed ~traced:false ~rate:1000.0 ~start:(fun () -> 0) plan in
  let inflight = ref [] in
  let write b =
    let id, op =
      match P.decode_request (Bytes.sub b 4 (Bytes.length b - 4)) with
      | Ok q -> (q.P.id, q.P.op)
      | Error e -> Alcotest.fail e
    in
    let reply =
      match op with
      | _ when List.mem id fails -> P.Deadline_exceeded
      | P.Get k -> P.Value (Kvplan.value_of ~seed k 0)
      | _ -> P.Stored false
    in
    let frame = P.encode_reply ~id reply in
    inflight := List.sort compare ((!clock + delay_ns.(id), frame) :: !inflight)
  in
  let wait ~until =
    (match !inflight with
    | (at, frame) :: rest when at <= until ->
        inflight := rest;
        clock := max !clock at;
        Kvrun.on_reply r ~at (Bytes.sub frame 4 (Bytes.length frame - 4))
    | _ -> clock := until);
    true
  in
  Alcotest.(check bool) "ran to the end" true (Openloop.run r.Kvrun.ol ~now ~send:(Kvrun.send r ~write) ~wait);
  Openloop.finish r.Kvrun.ol ~now ~wait ~timeout_ns:10_000_000;
  Kvrun.settle r;
  Alcotest.(check (list string)) "labels"
    [ "deadline"; "ok"; "deadline"; "ok"; "ok"; "wrong" ]
    (Array.to_list (Array.map (fun l -> Kvrun.labels.(l)) r.Kvrun.status))

(* ---------------------------- percentiles ---------------------------- *)

let nearest_rank_ties () =
  let a = [| 5; 1; 3; 3; 3; 9 |] in
  let p q = Pctl.ints a q in
  Alcotest.(check int) "p0 is the minimum" 1 (p 0.0);
  Alcotest.(check int) "p50 lands inside the tie" 3 (p 50.0);
  Alcotest.(check int) "p60: rank 4 is still the tie" 3 (p 60.0);
  Alcotest.(check int) "p67: rank 5" 5 (p 67.0);
  Alcotest.(check int) "p90: rank 6" 9 (p 90.0);
  Alcotest.(check int) "p100 is the maximum" 9 (p 100.0);
  Alcotest.(check int) "all equal" 7 (Pctl.ints [| 7; 7; 7; 7 |] 99.9)

let sample_buffer () =
  let b = Pctl.buf () in
  for i = 1 to Pctl.buf_cap + 952 do
    Pctl.push b i
  done;
  Alcotest.(check int) "capped" Pctl.buf_cap b.Pctl.len;
  Alcotest.(check int) "later samples dropped, counted" 952 b.Pctl.dropped;
  Alcotest.(check int) "earliest kept" (Pctl.buf_cap / 2) (Pctl.of_sorted (Pctl.concat [ b ]) 50.0)

(* --------------------------- stored bytes ---------------------------- *)

let with_tmp name f =
  let dir = Filename.concat (Sys.getcwd ()) name in
  Proc.with_dir dir f

let stored_bytes_three_keys () =
  with_tmp "tmp-stored" (fun dir ->
      let open_ () =
        match Kv.Durable.open_ ~dir () with
        | Ok (st, _) -> st
        | Error e -> Alcotest.fail (Persist.Recovery.error_to_string e)
      in
      let st = open_ () in
      let kvs = [ (1, "a"); (2, "bbbb"); (300, String.make 32 'c') ] in
      let m = Kv.Durable.map st in
      List.iter
        (fun (k, v) ->
          Kv.Durable.Map.insert m k v;
          match Persist.Wal.append (Kv.Durable.wal st) (Persist.Wal.Put (k, v)) with
          | Ok _ -> ()
          | Error _ -> Alcotest.fail "append")
        kvs;
      Alcotest.(check int) "user bytes: 8 per key plus the value"
        ((3 * 8) + 1 + 4 + 32)
        (Disk.user_bytes Kv.Durable.Map.fold m);
      ignore (Kv.Durable.close st);
      let d = Disk.measure dir in
      let records =
        List.mapi
          (fun i (k, v) -> Bytes.length (Persist.Wal.encode_record ~lsn:(i + 1) (Persist.Wal.Put (k, v))))
          kvs
      in
      Alcotest.(check int) "WAL bytes are the three records" (List.fold_left ( + ) 0 records)
        d.Disk.wal_bytes;
      Alcotest.(check int) "no checkpoint yet" 0 d.Disk.ckpt_bytes;
      let st = open_ () in
      (match Kv.Durable.checkpoint_now st with
      | Ok (Some _) -> ()
      | _ -> Alcotest.fail "checkpoint");
      ignore (Kv.Durable.close st);
      let d = Disk.measure dir in
      let ckpt =
        Array.fold_left
          (fun acc n ->
            if Persist.Checkpoint.ckpt_lsn_of_name n <> None then
              acc + Proc.file_size (Filename.concat dir n)
            else acc)
          0 (Sys.readdir dir)
      in
      Alcotest.(check bool) "checkpoint counted" true (d.Disk.ckpt_bytes > 0);
      Alcotest.(check int) "checkpoint bytes are the checkpoint files" ckpt d.Disk.ckpt_bytes;
      Alcotest.(check int) "total" (d.Disk.wal_bytes + d.Disk.ckpt_bytes) (Disk.total d))

(* -------------------------- metric names ----------------------------- *)

(* Every [key] value of the form ["key": "value"] in [s], in order. *)
let string_fields key s =
  let pat = Printf.sprintf "\"%s\": \"" key in
  let rec go from acc =
    match Str.search_forward (Str.regexp_string pat) s from with
    | i ->
        let start = i + String.length pat in
        let stop = String.index_from s start '"' in
        go stop (String.sub s start (stop - start) :: acc)
    | exception Not_found -> List.rev acc
  in
  go 0 []

let getenv name =
  match Sys.getenv_opt name with Some v -> v | None -> Alcotest.fail (name ^ " not set")

let metric_lists_match_benchmark_json () =
  let json = In_channel.with_open_bin (getenv "BENCHMARK_JSON") In_channel.input_all in
  let section name =
    Str.search_forward (Str.regexp_string (Printf.sprintf "\"%s\"" name)) json 0
  in
  let e2e = section "end_to_end" and layer = section "per_layer" in
  Alcotest.(check bool) "end_to_end comes before per_layer" true (e2e < layer);
  let pairs seg = List.combine (string_fields "name" seg) (string_fields "unit" seg) in
  let pair = Alcotest.(list (pair string string)) in
  Alcotest.check pair "end-to-end metrics and units" (pairs (String.sub json e2e (layer - e2e)))
    Out.end_to_end;
  Alcotest.check pair "per-layer metrics and units"
    (pairs (String.sub json layer (String.length json - layer)))
    Out.per_layer

(* ----------------------------- teardown ------------------------------ *)

let teardown_on_driver_failure () =
  let exe = getenv "PERFBENCH_EXE" in
  let dir = Filename.concat (Sys.getcwd ()) "tmp-teardown/store" in
  let seen = ref None in
  (match
     Kvrun.with_server ~exe ~workload:Kvrun.Durable ~seed:1 ~traced:false ~dir (fun s ->
         seen := Some s.Kvrun.child;
         Alcotest.(check bool) "store directory exists while serving" true (Sys.file_exists dir);
         failwith "driver failed")
   with
  | () -> Alcotest.fail "the failure did not propagate"
  | exception Failure msg -> Alcotest.(check string) "driver's own error" "driver failed" msg);
  let c = Option.get !seen in
  Alcotest.(check bool) "child reaped" true (c.Proc.status <> None);
  (match Unix.waitpid [ Unix.WNOHANG ] c.Proc.pid with
  | _ -> Alcotest.fail "child still waitable"
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ());
  Alcotest.(check bool) "no leftover store directory" false (Sys.file_exists dir);
  Proc.rm_rf (Filename.dirname dir)

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "frames_split_reads" `Quick frames_split_reads;
          Alcotest.test_case "out_of_order_reply_ids" `Quick out_of_order_ids;
          Alcotest.test_case "due_time_latency_fake_clock" `Quick due_time_latency;
          Alcotest.test_case "failed_write_in_flight" `Quick failed_write_in_flight;
          Alcotest.test_case "nearest_rank_ties" `Quick nearest_rank_ties;
          Alcotest.test_case "sample_buffer_cap" `Quick sample_buffer;
          Alcotest.test_case "stored_bytes_three_keys" `Quick stored_bytes_three_keys;
          Alcotest.test_case "metric_lists_match_benchmark_json" `Quick
            metric_lists_match_benchmark_json;
          Alcotest.test_case "teardown_on_driver_failure" `Quick teardown_on_driver_failure;
        ] );
    ]
