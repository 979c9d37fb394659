(* Tests for the benchmark harness substrate. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_barrier_releases_all () =
  let n = 4 in
  let b = Harness.Barrier.create n in
  let counter = Atomic.make 0 in
  let workers =
    List.init n (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr counter;
            Harness.Barrier.await b;
            (* After the barrier, every participant must have arrived. *)
            Atomic.get counter))
  in
  let results = List.map Domain.join workers in
  List.iter (fun seen -> check_int "saw all arrivals" n seen) results

let test_barrier_reusable () =
  let n = 3 in
  let b = Harness.Barrier.create n in
  let phase = Atomic.make 0 in
  let workers =
    List.init n (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 5 do
              Harness.Barrier.await b;
              Atomic.incr phase;
              Harness.Barrier.await b
            done;
            true))
  in
  let oks = List.map Domain.join workers in
  check_bool "all joined" true (List.for_all Fun.id oks);
  check_int "phases" (5 * n) (Atomic.get phase)

let test_run_timed () =
  let hits = Atomic.make 0 in
  let dt = Harness.Parallel.run_timed ~domains:3 (fun _ -> Atomic.incr hits) in
  check_int "every domain ran" 3 (Atomic.get hits);
  check_bool "time positive" true (dt >= 0.0)

let test_run_collect_order () =
  let results = Harness.Parallel.run_collect ~domains:4 (fun d -> d * 10) in
  Alcotest.(check (list int)) "in index order" [ 0; 10; 20; 30 ] results

let test_shuffled_keys () =
  let keys = Harness.Workload.shuffled_keys 1000 in
  check_int "length" 1000 (Array.length keys);
  let sorted = Array.copy keys in
  Array.sort compare sorted;
  Alcotest.(check bool) "permutation of 0..n-1" true
    (Array.to_list sorted = List.init 1000 Fun.id);
  (* Deterministic in the seed. *)
  Alcotest.(check bool) "deterministic" true
    (Harness.Workload.shuffled_keys 1000 = keys);
  Alcotest.(check bool) "different seed differs" true
    (Harness.Workload.shuffled_keys ~seed:7 1000 <> keys)

let test_disjoint_ranges () =
  let ranges = Harness.Workload.disjoint_ranges ~domains:3 ~total:10 in
  check_int "three ranges" 3 (Array.length ranges);
  let all = Array.to_list ranges |> List.concat_map Array.to_list in
  Alcotest.(check (list int)) "covers total" (List.init 10 Fun.id) (List.sort compare all);
  let sizes = Array.map Array.length ranges in
  check_bool "balanced" true
    (Array.for_all (fun s -> abs (s - 3) <= 1) sizes)

let test_zipf () =
  let keys = Harness.Workload.zipf_keys ~n:10_000 ~universe:100 1.0 in
  check_int "n draws" 10_000 (Array.length keys);
  Array.iter (fun k -> check_bool "in range" true (k >= 0 && k < 100)) keys;
  (* Rank 0 must be drawn much more often than rank 50. *)
  let count x = Array.fold_left (fun a k -> if k = x then a + 1 else a) 0 keys in
  check_bool "skewed" true (count 0 > 5 * count 50)

let test_batches () =
  let keys = [| 10; 11; 12; 13; 14; 15; 16 |] in
  let bs = Harness.Workload.batches ~batch:3 keys in
  check_int "chunk count" 3 (Array.length bs);
  Alcotest.(check (list int)) "order preserved, last chunk short"
    (Array.to_list keys)
    (Array.to_list bs |> List.concat_map Array.to_list);
  check_int "full chunk" 3 (Array.length bs.(0));
  check_int "tail chunk" 1 (Array.length bs.(2));
  (* An exact multiple leaves no runt chunk. *)
  let exact = Harness.Workload.batches ~batch:2 [| 1; 2; 3; 4 |] in
  check_int "exact split" 2 (Array.length exact);
  check_int "empty input" 0 (Array.length (Harness.Workload.batches ~batch:4 [||]));
  Alcotest.check_raises "batch <= 0 rejected"
    (Invalid_argument "Workload.batches") (fun () ->
      ignore (Harness.Workload.batches ~batch:0 keys))

let test_batched_lookups () =
  let keys = Harness.Workload.shuffled_keys 100 in
  let bs = Harness.Workload.batched_lookups ~batch:16 keys in
  check_int "chunk count" 7 (Array.length bs);
  let flat = Array.to_list bs |> List.concat_map Array.to_list in
  Alcotest.(check (list int)) "permutation of the key set"
    (List.init 100 Fun.id) (List.sort compare flat);
  (* Deterministic in the seed, and the same shuffle [lookup_order]
     produces, just pre-sliced. *)
  check_bool "deterministic" true
    (Harness.Workload.batched_lookups ~batch:16 keys = bs);
  check_bool "matches lookup_order" true
    (flat = Array.to_list (Harness.Workload.lookup_order keys));
  check_bool "different seed differs" true
    (Harness.Workload.batched_lookups ~seed:9 ~batch:16 keys <> bs)

let test_measure_run () =
  let calls = ref 0 in
  let r =
    Harness.Measure.run ~warmup_limit:2 ~repetitions:3 ~ops:100 (fun () -> incr calls)
  in
  check_bool "ran warmup + reps" true (!calls >= 3);
  check_int "ops recorded" 100 r.Harness.Measure.ops;
  check_bool "ns/op sane" true (Harness.Measure.ns_per_op r >= 0.0);
  check_bool "mops sane" true (Harness.Measure.mops r >= 0.0)

let test_footprint () =
  let small = Harness.Footprint.reachable_words [| 1; 2; 3 |] in
  let big = Harness.Footprint.reachable_words (Array.make 1000 0) in
  check_bool "bigger is bigger" true (big > small);
  Alcotest.(check (float 1e-9)) "kb conversion" 8.0
    (Harness.Footprint.words_to_kb 1024)

let test_report_table () =
  let s =
    Harness.Report.table ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  check_bool "contains header" true
    (String.length s > 0 && String.index_opt s 'a' <> None);
  (* Columns aligned: every line has the same length. *)
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' s) in
  let lens = List.map String.length lines in
  check_bool "aligned" true (List.for_all (fun l -> l = List.hd lens) lens)

let test_report_rows_table () =
  let module J = Harness.Report.Json in
  let rows =
    [
      J.Obj [ ("name", J.String "a"); ("ns", J.Float 1.26); ("n", J.Int 3) ];
      J.Obj [ ("name", J.String "bb"); ("ns", J.Int 20); ("n", J.Int 40) ];
    ]
  in
  let columns =
    [
      ("count", "n", Harness.Report.cell);
      ("who", "name", Harness.Report.cell);
      ("ns/op", "ns", Harness.Report.float (Printf.sprintf "<%.1f>"));
    ]
  in
  let lines =
    String.split_on_char '\n' (Harness.Report.rows_table columns rows)
    |> List.filter (( <> ) "")
    |> List.map (fun l ->
           List.filter (( <> ) "") (String.split_on_char ' ' l))
  in
  Alcotest.(check (list (list string)))
    "columns in order, formatted"
    [
      [ "count"; "who"; "ns/op" ];
      [ "-----"; "---"; "------" ];
      [ "3"; "a"; "<1.3>" ];
      [ "40"; "bb"; "<20.0>" ];
    ]
    lines;
  Alcotest.check_raises "missing key named"
    (Invalid_argument "Report.rows_table: row has no \"n\"") (fun () ->
      ignore
        (Harness.Report.rows_table columns [ J.Obj [ ("name", J.String "c") ] ]))

(* Rep 2 of 3 is the fast one; its op count must come back with it. *)
let test_best_of () =
  let prepared = ref 0 and bodies = Atomic.make 0 in
  let elapsed, ops =
    Harness.Parallel.best_of ~reps:3 ~domains:1 (fun () ->
        incr prepared;
        let rep = !prepared in
        fun d counters ->
          Atomic.incr bodies;
          Unix.sleepf (if rep = 2 then 0.001 else 0.1);
          Ct_util.Stripe.add counters d (10 * rep))
  in
  check_int "prepare once per rep" 3 !prepared;
  check_int "body once per rep" 3 (Atomic.get bodies);
  check_int "fastest rep's ops" 20 ops;
  check_bool "fastest rep's elapsed" true (elapsed >= 0.001 && elapsed < 0.1);
  Alcotest.check_raises "no reps" (Invalid_argument "Parallel.best_of")
    (fun () ->
      ignore (Harness.Parallel.best_of ~reps:0 ~domains:1 (fun () _ _ -> ())))

let test_structures_registry () =
  Alcotest.(check (list string))
    "structure roster"
    [
      "cachetrie";
      "cachetrie-nc";
      "ctrie-snap";
      "chm";
      "chm-striped";
      "skiplist";
      "oa-folklore";
    ]
    Harness.Suites.structure_names;
  check_bool "cachetrie present" true
    (Harness.Suites.find_structure "cachetrie" <> None);
  check_bool "unknown absent" true (Harness.Suites.find_structure "nope" = None)

module CT_for_trace = Cachetrie.Make (Ct_util.Hashing.Int_key)
module Replay_ct = Harness.Trace.Replay (CT_for_trace)

let test_trace_generate () =
  let trace = Harness.Trace.generate Harness.Trace.read_mostly 10_000 in
  check_int "length" 10_000 (Array.length trace);
  let reads = ref 0 and writes = ref 0 and removes = ref 0 in
  Array.iter
    (function
      | Harness.Trace.Lookup _ -> incr reads
      | Harness.Trace.Insert _ -> incr writes
      | Harness.Trace.Remove _ -> incr removes)
    trace;
  (* 95/4/1 profile within sampling noise. *)
  check_bool "read share" true (!reads > 9_300 && !reads < 9_700);
  check_bool "all accounted" true (!reads + !writes + !removes = 10_000);
  (* Deterministic. *)
  check_bool "deterministic" true
    (Harness.Trace.generate Harness.Trace.read_mostly 10_000 = trace);
  Alcotest.check_raises "bad profile"
    (Invalid_argument "Trace.generate: percentages must sum to 100") (fun () ->
      ignore
        (Harness.Trace.generate
           { Harness.Trace.read_mostly with Harness.Trace.reads = 10 }
           5))

let test_trace_replay_counts () =
  let trace = Harness.Trace.generate Harness.Trace.churn 20_000 in
  let t = CT_for_trace.create () in
  let o = Replay_ct.replay ~prefill:50_000 t trace in
  let reads =
    Array.fold_left
      (fun a -> function Harness.Trace.Lookup _ -> a + 1 | _ -> a)
      0 trace
  in
  check_int "hits+misses = lookups" reads Harness.Trace.(o.hits + o.misses);
  check_bool "elapsed positive" true (o.Harness.Trace.elapsed >= 0.0);
  (* Half the universe was prefilled, so both hits and misses occur. *)
  check_bool "hits happen" true (o.Harness.Trace.hits > 0);
  check_bool "misses happen" true (o.Harness.Trace.misses > 0)

let test_trace_replay_parallel_counts () =
  let trace = Harness.Trace.generate Harness.Trace.churn 20_000 in
  let t = CT_for_trace.create () in
  let o = Replay_ct.replay_parallel ~prefill:50_000 t ~domains:3 trace in
  let reads =
    Array.fold_left
      (fun a -> function Harness.Trace.Lookup _ -> a + 1 | _ -> a)
      0 trace
  in
  (* Round-robin slicing covers every op exactly once. *)
  check_int "parallel hits+misses = lookups" reads Harness.Trace.(o.hits + o.misses)

(* A worker domain that detaches and exits cleanly mid-run must never
   read as stalled — its slot is vacated (this is what the KV server's
   workers do on drain) — while a slot that goes silent with the
   domain still attached is caught as before. *)
let test_watchdog_clean_worker_exit () =
  let site = Ct_util.Yieldpoint.register "test.harness.worker" in
  let progress = Ct_util.Progress.create ~slots:4 () in
  let wd = Harness.Watchdog.create ~stall_epochs:2 progress in
  let keep_beating = Atomic.make true in
  (* Publish like an instrumented worker: [observe] records the site
     (marking the slot attached for the watchdog) and bumps the beat. *)
  let publish () =
    Ct_util.Progress.observe progress Ct_util.Yieldpoint.After site
  in
  (* Slot 0: beats a little, then exits cleanly mid-run. *)
  let d0 =
    Domain.spawn (fun () ->
        Ct_util.Progress.attach progress 0;
        for _ = 1 to 3 do
          publish ();
          Unix.sleepf 0.002
        done;
        Ct_util.Progress.detach progress)
  in
  (* Slot 1: keeps beating for the whole run. *)
  let d1 =
    Domain.spawn (fun () ->
        Ct_util.Progress.attach progress 1;
        while Atomic.get keep_beating do
          publish ();
          Unix.sleepf 0.001
        done;
        Ct_util.Progress.detach progress)
  in
  Domain.join d0;
  (* Many epochs after the clean exit: the vacated slot must not
     surface as a stall while the live worker keeps beating. *)
  for _ = 1 to 6 do
    check_int "no stall after clean worker exit" 0
      (List.length (Harness.Watchdog.step wd));
    Unix.sleepf 0.002
  done;
  Atomic.set keep_beating false;
  Domain.join d1;
  (* Control: going silent while still attached IS a stall. *)
  let d2 =
    Domain.spawn (fun () ->
        Ct_util.Progress.attach progress 2;
        publish ())
  in
  Domain.join d2;
  let caught = ref false in
  for _ = 1 to 4 do
    if
      List.exists
        (fun r -> r.Harness.Watchdog.slot = 2)
        (Harness.Watchdog.step wd)
    then caught := true
  done;
  check_bool "undetached silent slot is still caught" true !caught

let suite =
  [
    ("watchdog_clean_worker_exit", `Quick, test_watchdog_clean_worker_exit);
    ("trace_generate", `Quick, test_trace_generate);
    ("trace_replay_counts", `Quick, test_trace_replay_counts);
    ("trace_replay_parallel_counts", `Slow, test_trace_replay_parallel_counts);
    ("barrier_releases_all", `Quick, test_barrier_releases_all);
    ("barrier_reusable", `Quick, test_barrier_reusable);
    ("run_timed", `Quick, test_run_timed);
    ("run_collect_order", `Quick, test_run_collect_order);
    ("shuffled_keys", `Quick, test_shuffled_keys);
    ("disjoint_ranges", `Quick, test_disjoint_ranges);
    ("zipf", `Quick, test_zipf);
    ("batches", `Quick, test_batches);
    ("batched_lookups", `Quick, test_batched_lookups);
    ("measure_run", `Quick, test_measure_run);
    ("footprint", `Quick, test_footprint);
    ("report_table", `Quick, test_report_table);
    ("report_rows_table", `Quick, test_report_rows_table);
    ("best_of", `Quick, test_best_of);
    ("structures_registry", `Quick, test_structures_registry);
  ]
