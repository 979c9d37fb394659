(* Observability layer (DESIGN.md §11): percentile/histogram edge
   cases, latency bucketing, flight-recorder wraparound and concurrent
   dumps, the uniform stats surface across every structure, and the
   exporters' accounting invariants. *)

module Stats = Ct_util.Stats
module Metrics = Ct_util.Metrics
module Histogram = Analysis.Histogram
module Hashing = Ct_util.Hashing
module Yp = Ct_util.Yieldpoint
module Suites = Harness.Suites
module CT = Cachetrie.Make (Hashing.Int_key)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let check_float what expected actual =
  Alcotest.(check (float 1e-9)) what expected actual

let check_raises_invalid what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument _ -> ()

(* ------------------- Stats.percentile edge cases ------------------- *)

let test_percentile_edges () =
  check_raises_invalid "empty array" (fun () -> Stats.percentile [||] 50.0);
  check_raises_invalid "p below range" (fun () ->
      Stats.percentile [| 1.0 |] (-1.0));
  check_raises_invalid "p above range" (fun () ->
      Stats.percentile [| 1.0 |] 100.5);
  (* Singleton: every percentile is the sample. *)
  check_float "singleton p0" 42.0 (Stats.percentile [| 42.0 |] 0.0);
  check_float "singleton p50" 42.0 (Stats.percentile [| 42.0 |] 50.0);
  check_float "singleton p100" 42.0 (Stats.percentile [| 42.0 |] 100.0);
  (* p0/p100 are the extremes regardless of input order. *)
  let xs = [| 9.0; 1.0; 5.0; 3.0; 7.0 |] in
  check_float "p0 is the min" 1.0 (Stats.percentile xs 0.0);
  check_float "p100 is the max" 9.0 (Stats.percentile xs 100.0);
  check_float "p50 is the median" 5.0 (Stats.percentile xs 50.0);
  (* Interpolation between ranks. *)
  check_float "p50 of three is the middle" 2.0
    (Stats.percentile [| 1.0; 2.0; 3.0 |] 50.0);
  check_float "p75 over four" 3.25 (Stats.percentile [| 1.0; 2.0; 3.0; 4.0 |] 75.0)

(* ---------------------- Histogram.merge cases ---------------------- *)

let test_histogram_merge () =
  (* Disjoint ranges: the short histogram pads with zeros. *)
  let a = [| 1; 2 |] and b = [| 0; 0; 0; 7 |] in
  let m = Histogram.merge a b in
  Alcotest.(check (array int)) "disjoint ranges" [| 1; 2; 0; 7 |] m;
  (* Inputs are not mutated. *)
  Alcotest.(check (array int)) "left unmutated" [| 1; 2 |] a;
  Alcotest.(check (array int)) "right unmutated" [| 0; 0; 0; 7 |] b;
  (* Symmetry in the length argument. *)
  Alcotest.(check (array int)) "longer-first" [| 1; 2; 0; 7 |]
    (Histogram.merge b a);
  (* Empty operands. *)
  Alcotest.(check (array int)) "both empty" [||] (Histogram.merge [||] [||]);
  Alcotest.(check (array int)) "left empty" [| 3; 4 |]
    (Histogram.merge [||] [| 3; 4 |]);
  (* Overlap sums bucket-wise. *)
  Alcotest.(check (array int)) "overlap" [| 5; 7 |]
    (Histogram.merge [| 2; 3 |] [| 3; 4 |])

(* -------------------------- Latency buckets ------------------------ *)

let test_latency_buckets () =
  check_int "0 ns" 0 (Obs.Latency.bucket_of_ns 0);
  check_int "1 ns" 0 (Obs.Latency.bucket_of_ns 1);
  check_int "2 ns" 1 (Obs.Latency.bucket_of_ns 2);
  check_int "3 ns" 1 (Obs.Latency.bucket_of_ns 3);
  check_int "4 ns" 2 (Obs.Latency.bucket_of_ns 4);
  check_int "1023 ns" 9 (Obs.Latency.bucket_of_ns 1023);
  check_int "1024 ns" 10 (Obs.Latency.bucket_of_ns 1024);
  (* max_int is 2^62 - 1 on 64-bit OCaml: floor(log2) = 61, safely
     inside the 64-bucket range. *)
  check_int "max_int" 61 (Obs.Latency.bucket_of_ns max_int);
  let h = Obs.Latency.create ~label:"test" in
  check_int "fresh histogram is empty" 0 (Obs.Latency.total h);
  List.iter (Obs.Latency.record_ns h) [ 1; 3; 3; 100; 5000 ];
  check_int "five samples" 5 (Obs.Latency.total h);
  check_int "exact ns sum" 5107 (Obs.Latency.sum_ns h);
  let counts = Obs.Latency.counts h in
  check_int "bucket 0 holds the 1" 1 counts.(0);
  check_int "bucket 1 holds both 3s" 2 counts.(1);
  check_int "bucket 6 holds the 100" 1 counts.(6);
  check_int "bucket 12 holds the 5000" 1 counts.(12);
  (* Percentile lands inside the winning bucket's power-of-two span. *)
  let p99 = Obs.Latency.percentile h 99.0 in
  check_bool "p99 inside the top bucket" true (p99 >= 4096.0 && p99 <= 8192.0);
  let p0 = Obs.Latency.percentile h 0.0 in
  check_bool "p0 inside the bottom bucket" true (p0 >= 0.0 && p0 <= 2.0);
  (* Negative samples (clock hiccup) count as 0, not a crash. *)
  Obs.Latency.record_ns h (-5);
  check_int "negative clamps to bucket 0" 2 (Obs.Latency.counts h).(0);
  Obs.Latency.reset h;
  check_int "reset empties" 0 (Obs.Latency.total h);
  check_int "reset zeroes the sum" 0 (Obs.Latency.sum_ns h);
  check_raises_invalid "percentile of empty" (fun () ->
      Obs.Latency.percentile h 50.0);
  check_raises_invalid "percentile out of range" (fun () ->
      Obs.Latency.percentile_of_counts [| 1 |] 101.0)

let test_latency_merge () =
  let a = Obs.Latency.create ~label:"a" in
  let b = Obs.Latency.create ~label:"b" in
  (* Disjoint ranges: a holds small samples, b large ones. *)
  List.iter (Obs.Latency.record_ns a) [ 1; 2; 3 ];
  List.iter (Obs.Latency.record_ns b) [ 10_000; 20_000 ];
  let m = Obs.Latency.merged_counts [ a; b ] in
  check_int "merged total" 5 (Array.fold_left ( + ) 0 m);
  check_bool "merged p100 in b's range" true
    (Obs.Latency.percentile_of_counts m 100.0 >= 8192.0);
  check_bool "merged p0 in a's range" true
    (Obs.Latency.percentile_of_counts m 0.0 <= 2.0)

(* Regression: the server's admission ticker diffs successive striped
   [counts] snapshots.  Stripe sums are racy, so a bucket can read
   lower than the previous snapshot; [diff_counts] must clamp those to
   zero instead of feeding a negative rate into the p99 window. *)
let test_latency_diff_counts_clamps () =
  let prev = [| 0; 5; 7; 2 |] in
  let now = [| 3; 5; 4; 10 |] in
  let d = Obs.Latency.diff_counts ~prev ~now in
  check_bool "forward buckets diff" true (d.(0) = 3 && d.(1) = 0 && d.(3) = 8);
  check_int "torn (backwards) bucket clamps to zero" 0 d.(2);
  check_bool "never negative" true (Array.for_all (fun x -> x >= 0) d);
  check_raises_invalid "length mismatch refused" (fun () ->
      ignore (Obs.Latency.diff_counts ~prev:[| 1 |] ~now:[| 1; 2 |]));
  (* Live histograms: a snapshot diffed against itself is all-zero. *)
  let h = Obs.Latency.create ~label:"diff" in
  List.iter (Obs.Latency.record_ns h) [ 1; 100; 10_000 ];
  let c = Obs.Latency.counts h in
  check_int "self-diff is zero" 0
    (Array.fold_left ( + ) 0 (Obs.Latency.diff_counts ~prev:c ~now:c))

(* ------------------------- flight recorder ------------------------- *)

let sites_for_test =
  (* Interned once: registering the same names twice is fine. *)
  Array.init 4 (fun i -> Yp.register (Printf.sprintf "obs.test.site%d" i))

let test_flight_wraparound () =
  let size = 16 in
  let f = Obs.Flight.create ~size () in
  check_int "ring capacity" size (Obs.Flight.size f);
  check_bool "fresh dump is empty" true (Obs.Flight.dump f = []);
  (* Overfill the ring 3x: only the newest [size] events survive, in
     strict stamp order. *)
  let total = 3 * size in
  for i = 0 to total - 1 do
    Obs.Flight.record f
      (if i mod 2 = 0 then Yp.Before else Yp.After)
      sites_for_test.(i mod 4)
  done;
  check_int "clock counts every event" total (Obs.Flight.recorded f);
  let dump = Obs.Flight.dump f in
  check_int "ring keeps the last size events" size (List.length dump);
  let stamps = List.map (fun e -> e.Obs.Flight.stamp) dump in
  check_bool "stamps are the newest window" true
    (stamps = List.init size (fun i -> total - size + i));
  (* Rendering honours the limit and stays oldest-first. *)
  let s = Obs.Flight.dump_to_string ~limit:4 f in
  check_int "limited render has 4 lines" 4
    (List.length (String.split_on_char '\n' s));
  Obs.Flight.reset f;
  check_bool "reset forgets everything" true (Obs.Flight.dump f = []);
  check_int "reset rewinds the clock" 0 (Obs.Flight.recorded f)

let test_flight_concurrent_dump () =
  let f = Obs.Flight.create ~size:64 () in
  let stop = Atomic.make false in
  let recorder =
    Domain.spawn (fun () ->
        let i = ref 0 in
        while not (Atomic.get stop) do
          Obs.Flight.record f
            (if !i land 1 = 0 then Yp.Before else Yp.After)
            sites_for_test.(!i land 3);
          incr i
        done)
  in
  (* Don't start dumping until the recorder domain is actually running,
     or a fast main thread can finish all 200 dumps before the spawned
     domain is scheduled at all. *)
  while Obs.Flight.recorded f = 0 do
    Domain.cpu_relax ()
  done;
  (* Dump repeatedly while the recorder is overwriting: every dump must
     come back stamp-sorted and strictly increasing, never crash. *)
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) ->
        a.Obs.Flight.stamp < b.Obs.Flight.stamp && strictly_increasing rest
    | _ -> true
  in
  for _ = 1 to 200 do
    let d = Obs.Flight.dump f in
    check_bool "concurrent dump is strictly stamp-ordered" true
      (strictly_increasing d);
    check_bool "concurrent dump fits the ring" true
      (List.length d <= 64 * 2)
  done;
  Atomic.set stop true;
  Domain.join recorder;
  check_bool "events were recorded meanwhile" true (Obs.Flight.recorded f > 0)

(* ------------------- uniform stats across all maps ------------------ *)

let all_labels = List.map Metrics.label Metrics.all

let test_uniform_stats () =
  List.iter
    (fun (module M : Suites.IMAP) ->
      let t = M.create () in
      for k = 0 to 999 do
        M.insert t k k
      done;
      for k = 0 to 999 do
        ignore (M.lookup t k)
      done;
      for k = 0 to 499 do
        ignore (M.remove t k)
      done;
      ignore (M.scrub t);
      let stats = M.stats t in
      Alcotest.(check (list string))
        (M.name ^ ": stats exposes the full vocabulary in order")
        all_labels (List.map fst stats);
      let stat l = List.assoc l stats in
      check_bool
        (M.name ^ ": retries <= attempts")
        true
        (stat "cas_retries" <= stat "cas_attempts");
      check_bool
        (M.name ^ ": counters are non-negative")
        true
        (List.for_all (fun (_, v) -> v >= 0) stats);
      check_bool
        (M.name ^ ": metrics handle agrees with stats")
        true
        (Metrics.snapshot (M.metrics t) = stats);
      M.reset_stats t;
      check_bool
        (M.name ^ ": reset zeroes every counter")
        true
        (List.for_all (fun (_, v) -> v = 0) (M.stats t)))
    Suites.structures

(* The cache-trie's legacy record is a view over the same registry. *)
let test_cachetrie_view_agrees () =
  let t = CT.create () in
  for k = 0 to 9_999 do
    CT.insert t k k
  done;
  for _ = 1 to 3 do
    for k = 0 to 9_999 do
      ignore (CT.lookup t k)
    done
  done;
  let view = CT.cache_stats t in
  let stats = CT.stats t in
  let stat l = List.assoc l stats in
  check_int "expansions agree" (stat "expansions") view.Cachetrie.expansions;
  check_int "compressions agree" (stat "compressions")
    view.Cachetrie.compressions;
  check_int "sampling passes agree" (stat "sampling_passes")
    view.Cachetrie.sampling_passes;
  check_int "cache installs agree" (stat "cache_installs")
    view.Cachetrie.cache_installs;
  check_int "cache adjustments agree" (stat "cache_adjustments")
    view.Cachetrie.cache_adjustments;
  check_bool "lookups were classified" true
    (stat "cache_hits" + stat "cache_misses" > 0)

(* The global gate makes every bump a no-op while disabled. *)
let test_enabled_gate () =
  let t = CT.create () in
  Metrics.set_enabled false;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled true) @@ fun () ->
  for k = 0 to 99 do
    CT.insert t k k;
    ignore (CT.lookup t k)
  done;
  check_bool "disabled bumps count nothing" true
    (List.for_all (fun (_, v) -> v = 0) (CT.stats t))

(* --------------------------- timed wrapper ------------------------- *)

let test_timed_wrapper () =
  let module T = Obs.Timed.Make (CT) in
  let t = T.create () in
  for k = 0 to 99 do
    T.insert t k k
  done;
  for k = 0 to 99 do
    check_int "timed find returns the value" k (T.find t k)
  done;
  (* The Not_found path must be timed too, and still raise. *)
  (match T.find t 12345 with
  | _ -> Alcotest.fail "find of absent key must raise"
  | exception Not_found -> ());
  ignore (T.remove t 0);
  ignore (T.remove t 1);
  let lat = List.assoc "read" (T.latencies t) in
  check_int "reads timed (incl. the miss)" 101 (Obs.Latency.total lat);
  check_int "inserts timed" 100
    (Obs.Latency.total (List.assoc "insert" (T.latencies t)));
  check_int "removes timed" 2
    (Obs.Latency.total (List.assoc "remove" (T.latencies t)));
  check_bool "timed ops recorded positive spans" true (Obs.Latency.sum_ns lat >= 0);
  check_bool "wrapper delegates the stats surface" true
    (T.stats t = CT.stats (T.base t))

(* ---------------------------- exporters ---------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_exporters () =
  let t = CT.create () in
  for k = 0 to 999 do
    CT.insert t k k
  done;
  for k = 0 to 999 do
    ignore (CT.lookup t k)
  done;
  let h = Obs.Latency.create ~label:"op" in
  List.iter (Obs.Latency.record_ns h) [ 5; 50; 500 ];
  let prom = Obs.Export.prometheus ~histograms:[ ("op", h) ] () in
  check_bool "prometheus names the cachetrie family" true
    (contains prom "ct_counter_total{family=\"cachetrie\",counter=\"cas_attempts\"}");
  check_bool "prometheus emits the derived lookups" true
    (contains prom "derived=\"cache_lookups\"");
  check_bool "prometheus emits histogram buckets" true
    (contains prom "ct_latency_ns_bucket{op=\"op\",le=\"8\"} 1");
  check_bool "prometheus closes with +Inf" true
    (contains prom "le=\"+Inf\"} 3");
  check_bool "prometheus emits the exact sum" true
    (contains prom "ct_latency_ns_sum{op=\"op\"} 555");
  (* Derived consistency: hits + misses = lookups, by construction and
     in the export. *)
  let counters = [ ("cache_hits", 7); ("cache_misses", 3) ] in
  check_int "derived lookups" 10
    (List.assoc "cache_lookups" (Obs.Export.derived counters));
  check_bool "registry invariants hold after a workout" true
    (Harness.Obs_report.invariants () = []);
  (* JSON twin renders deterministically and mentions the same family. *)
  let json = Harness.Report.Json.to_string (Harness.Obs_report.metrics_json ()) in
  check_bool "json export names the cachetrie family" true
    (contains json "\"family\": \"cachetrie\"");
  let lat_json =
    Harness.Report.Json.to_string (Harness.Obs_report.latency_json [ ("op", h) ])
  in
  check_bool "latency json carries count and sum" true
    (contains lat_json "\"count\": 3" && contains lat_json "\"sum_ns\": 555");
  (* Keep [t] reachable until here: the registry holds it weakly, and
     the family assertions above depend on its counters being live. *)
  ignore (Sys.opaque_identity (CT.stats t))

(* Hostile label values must not break the Prometheus text exposition:
   backslash, double quote and newline become their two-character
   escapes; clean labels pass through unchanged (same string). *)
let test_escape_label () =
  Alcotest.(check string)
    "hostile label escapes" "a\\\\b\\\"c\\nd"
    (Obs.Export.escape_label "a\\b\"c\nd");
  let clean = "plain_label-99" in
  check_bool "clean label passes through untouched" true
    (Obs.Export.escape_label clean == clean);
  let h = Obs.Latency.create ~label:"evil" in
  Obs.Latency.record_ns h 5;
  let prom = Obs.Export.prometheus ~histograms:[ ("evil\"op\nx\\", h) ] () in
  check_bool "histogram op label is escaped in the export" true
    (contains prom "op=\"evil\\\"op\\nx\\\\\"");
  (* No exposition line may contain a raw quote-newline break: every
     physical line stays a complete sample or comment. *)
  check_bool "no sample line is severed by a raw newline" true
    (String.split_on_char '\n' prom
    |> List.for_all (fun l ->
           l = "" || l.[0] = '#' || contains l " " || contains l "{"))

(* --------------------- tail-latency exemplars ---------------------- *)

let test_latency_exemplars () =
  let h = Obs.Latency.create ~label:"exem" in
  check_bool "fresh histogram has no exemplars" true
    (Obs.Latency.exemplars h = []);
  check_raises_invalid "exemplar bucket out of range" (fun () ->
      Obs.Latency.exemplar h Obs.Latency.n_buckets);
  Obs.Latency.record_ns_traced h 1_000 ~trace_id:42;
  let b_fast = Obs.Latency.bucket_of_ns 1_000 in
  check_int "exemplar stamped into its bucket" 42
    (Obs.Latency.exemplar h b_fast);
  Alcotest.(check (list (pair int int)))
    "exemplars lists the stamped bucket"
    [ (b_fast, 42) ]
    (Obs.Latency.exemplars h);
  (* A slower unsampled occupant (trace id 0) leaves no exemplar, so
     the top-exemplar probe falls back downward to the nearest bucket
     that has one. *)
  Obs.Latency.record_ns_traced h 1_000_000 ~trace_id:0;
  (match Obs.Latency.top_exemplar h (Obs.Latency.counts h) with
  | Some (b, id) ->
      check_int "fallback bucket" b_fast b;
      check_int "fallback id" 42 id
  | None -> Alcotest.fail "expected a fallback exemplar");
  (* A slower sampled occupant takes over; a second one overwrites it
     (last writer wins is the wanted semantics). *)
  Obs.Latency.record_ns_traced h 1_000_000 ~trace_id:77;
  Obs.Latency.record_ns_traced h 1_000_000 ~trace_id:78;
  (match Obs.Latency.top_exemplar h (Obs.Latency.counts h) with
  | Some (b, id) ->
      check_int "top bucket" (Obs.Latency.bucket_of_ns 1_000_000) b;
      check_int "most recent occupant wins" 78 id
  | None -> Alcotest.fail "expected a top exemplar");
  Obs.Latency.reset h;
  check_bool "reset clears exemplars" true (Obs.Latency.exemplars h = [])

(* ----------------------- trace context + ring ---------------------- *)

let test_trace_ctx () =
  let module T = Obs.Trace in
  check_bool "none is untraced" true (not (T.is_traced T.none));
  check_int "none has id 0" 0 (T.id T.none);
  let c = T.make ~sampled:true 0xABCDE in
  check_bool "sampled ctx" true (T.sampled c && T.is_traced c);
  check_int "id roundtrips" 0xABCDE (T.id c);
  let u = T.make ~sampled:false 0xABCDE in
  check_bool "unsampled ctx still traced" true
    (T.is_traced u && not (T.sampled u));
  (* Id 0 is coerced away so "untraced" stays unambiguous; ids are
     masked to 62 bits. *)
  check_bool "zero id is coerced nonzero" true (T.id (T.make ~sampled:true 0) <> 0);
  check_bool "id is masked to 62 bits" true
    (T.id (T.make ~sampled:false max_int) <= (1 lsl 62) - 1);
  let wid, s = T.to_wire c in
  check_bool "wire roundtrip" true (T.of_wire ~wire_id:wid ~sampled:s = c);
  check_bool "zero wire id decodes to none" true
    (T.of_wire ~wire_id:0 ~sampled:true = T.none);
  (* Stage indexing is total and stable. *)
  List.iter
    (fun st -> check_bool "stage index roundtrips" true
        (T.stage_of_index (T.stage_index st) = st))
    T.all_stages

let test_trace_ring () =
  let module T = Obs.Trace in
  let tr = T.create ~size:4 () in
  check_int "size rounds to a power of two" 4 (T.size tr);
  let c1 = T.make ~sampled:true 101 and c2 = T.make ~sampled:true 202 in
  T.record tr c1 T.Queue_wait ~start_ns:10 ~dur_ns:5 ~a:0 ~b:0;
  T.record tr c1 T.Exec ~start_ns:15 ~dur_ns:3 ~a:1 ~b:2;
  T.record tr c2 T.Request ~start_ns:10 ~dur_ns:9 ~a:0 ~b:0;
  check_int "recorded counts all spans" 3 (T.recorded tr);
  let spans = T.spans tr in
  check_int "all spans resident" 3 (List.length spans);
  check_bool "spans come out stamp-ordered" true
    (List.map (fun (s : T.span) -> s.T.stamp) spans = [ 0; 1; 2 ]);
  let mine = T.spans_of tr ~id:(T.id c1) in
  check_int "spans_of filters by trace id" 2 (List.length mine);
  check_bool "span fields survive" true
    (match mine with
    | [ q; e ] ->
        q.T.stage = T.Queue_wait && q.T.dur_ns = 5 && e.T.stage = T.Exec
        && e.T.a = 1 && e.T.b = 2
    | _ -> false);
  (* Negative durations (clock steps) clamp to zero. *)
  T.record tr c2 T.Exec ~start_ns:20 ~dur_ns:(-7) ~a:0 ~b:0;
  check_bool "negative duration clamps to 0" true
    (List.exists
       (fun (s : T.span) -> s.T.stage = T.Exec && s.T.dur_ns = 0)
       (T.spans_of tr ~id:(T.id c2)));
  (* Wraparound: the ring keeps the most recent [size] spans per slot
     and the dump stays stamp-ordered. *)
  for i = 1 to 6 do
    T.record tr c1 T.Map_op ~start_ns:(100 + i) ~dur_ns:1 ~a:0 ~b:0
  done;
  let after = T.spans tr in
  check_int "ring kept at most size spans" 4 (List.length after);
  check_bool "wrapped dump still stamp-ordered" true
    (let stamps = List.map (fun (s : T.span) -> s.T.stamp) after in
     List.sort compare stamps = stamps);
  check_int "recorded keeps counting past the wrap" 10 (T.recorded tr);
  (* Stage summary aggregates resident spans in stage order. *)
  check_bool "stage summary names map_op" true
    (List.exists (fun (n, c, _) -> n = "map_op" && c > 0) (T.stage_summary tr));
  T.reset tr;
  check_bool "reset empties the ring" true (T.spans tr = []);
  check_int "reset rewinds the recorded count" 0 (T.recorded tr)

let test_trace_sink_and_ambient () =
  let module T = Obs.Trace in
  let tr = T.create ~size:8 () in
  (* Without a sink, record_sink and timed_ambient are no-ops. *)
  T.record_sink (T.make ~sampled:true 7) T.Wal_fsync ~start_ns:0 ~dur_ns:1 ~a:0
    ~b:0;
  check_int "no sink, no spans" 0 (T.recorded tr);
  T.install tr;
  Fun.protect ~finally:T.uninstall @@ fun () ->
  check_bool "sink is installed" true (T.sink () = Some tr);
  T.record_sink (T.make ~sampled:true 7) T.Wal_fsync ~start_ns:0 ~dur_ns:1 ~a:9
    ~b:0;
  check_int "sink routes to the collector" 1 (T.recorded tr);
  (* Ambient context: default none, scoped by with_ctx (restored on
     raise), and timed_ambient records only when sampled. *)
  check_bool "ambient defaults to none" true (T.current () = T.none);
  let c = T.make ~sampled:true 55 in
  T.with_ctx c (fun () ->
      check_bool "with_ctx installs" true (T.current () = c));
  check_bool "with_ctx restores" true (T.current () = T.none);
  (match T.with_ctx c (fun () -> raise Exit) with
  | _ -> Alcotest.fail "expected Exit"
  | exception Exit -> ());
  check_bool "with_ctx restores on raise" true (T.current () = T.none);
  let before = T.recorded tr in
  ignore (T.timed_ambient T.Cache_lookup (fun () -> 1 + 1));
  check_int "unsampled ambient records nothing" before (T.recorded tr);
  T.with_ctx c (fun () ->
      check_int "timed_ambient returns the result" 3
        (T.timed_ambient T.Cache_lookup (fun () -> 3)));
  check_int "sampled ambient records one span" (before + 1) (T.recorded tr);
  check_bool "ambient span carries the ambient id" true
    (T.spans_of tr ~id:55 <> [])

(* [find_batch] is timed as one whole-batch sample per call into the
   read histogram. *)
let test_timed_batch () =
  let module T = Obs.Timed.Make (CT) in
  let t = T.create () in
  let keys = Array.init 64 (fun i -> i) in
  let vals = Array.init 64 (fun i -> i * 2) in
  Array.iteri (fun i k -> T.insert t k vals.(i)) keys;
  let out = Array.make 64 (-1) in
  let found = T.find_batch t keys ~miss:(-1) out in
  check_int "batch find finds every key" 64 found;
  check_bool "batch find fills the out array" true
    (Array.to_list out = Array.to_list vals);
  check_int "one read sample per find_batch" 1
    (Obs.Latency.total (List.assoc "read" (T.latencies t)))

(* ------------------- watchdog post-mortem wiring ------------------- *)

let test_post_mortem_embeds_flight () =
  let progress = Ct_util.Progress.create ~slots:2 () in
  let flight = Obs.Flight.create ~size:32 () in
  Obs.Flight.install_with_progress flight progress;
  Fun.protect ~finally:Obs.Flight.uninstall @@ fun () ->
  Ct_util.Progress.attach progress 0;
  let t = CT.create () in
  for k = 0 to 31 do
    CT.insert t k k
  done;
  Ct_util.Progress.detach progress;
  check_bool "observer fed both progress and the recorder" true
    (Obs.Flight.recorded flight > 0);
  let wd = Harness.Watchdog.create ~flight progress in
  let pm = Harness.Watchdog.post_mortem wd in
  check_bool "post-mortem has the flight section" true
    (contains pm "flight recorder");
  check_bool "post-mortem shows recorded events" true (contains pm "cachetrie.");
  let wd_bare = Harness.Watchdog.create progress in
  check_bool "post-mortem without a recorder omits the section" true
    (not (contains (Harness.Watchdog.post_mortem wd_bare) "flight recorder"))

(* With a tracer pair wired in, the post-mortem resolves the latency
   histogram's tail exemplar to its resident span tree. *)
let test_post_mortem_tail_exemplar () =
  let module T = Obs.Trace in
  let progress = Ct_util.Progress.create ~slots:2 () in
  let tr = T.create ~size:32 () in
  let lat = Obs.Latency.create ~label:"pm" in
  let ctx = T.make ~sampled:true 0xFACE in
  T.record tr ctx T.Request ~start_ns:100 ~dur_ns:5_000_000 ~a:0 ~b:0;
  Obs.Latency.record_ns_traced lat 5_000_000 ~trace_id:(T.id ctx);
  Obs.Latency.record_ns_traced lat 10 ~trace_id:0;
  let wd = Harness.Watchdog.create ~tracer:(tr, lat) progress in
  let pm = Harness.Watchdog.post_mortem wd in
  check_bool "post-mortem names the tail exemplar" true
    (contains pm "tail exemplar: trace 000000000000face");
  check_bool "post-mortem dumps its span tree" true (contains pm "request");
  (* Exemplar resident in the histogram but already evicted from the
     ring: the dump says so instead of printing nothing. *)
  T.reset tr;
  check_bool "evicted tree is reported as overwritten" true
    (contains (Harness.Watchdog.post_mortem wd) "already overwritten")

(* ----------------------- exact per-domain rows ---------------------- *)

(* Run [body d] on [n] domains that are all live before any starts. *)
let run_live n body =
  let ready = Atomic.make 0 in
  List.init n (fun d ->
      Domain.spawn (fun () ->
          Atomic.incr ready;
          while Atomic.get ready < n do
            Domain.cpu_relax ()
          done;
          body d))
  |> List.iter Domain.join

let bump_both m h n =
  for _ = 1 to n do
    Metrics.incr m Metrics.Helps;
    Obs.Latency.record_ns h 100
  done

(* Domain ids are minted per spawn.  With [capacity - 1] joined domains
   spawned between them, A's and B's ids are congruent modulo the row
   count, so masking the id would put both on one row. *)
let test_exact_aliasing_ids () =
  let n = 1_000_000 in
  let m = Metrics.create ~family:"test-aliasing" in
  let h = Obs.Latency.create ~label:"aliasing" in
  let go = Atomic.make 0 in
  let worker () =
    Atomic.incr go;
    while Atomic.get go < 2 do
      Domain.cpu_relax ()
    done;
    bump_both m h n
  in
  let a = Domain.spawn worker in
  for _ = 2 to Ct_util.Domain_slot.capacity do
    Domain.join (Domain.spawn ignore)
  done;
  let b = Domain.spawn worker in
  Domain.join a;
  Domain.join b;
  check_int "metrics counter exact" (2 * n) (Metrics.get m Metrics.Helps);
  check_int "latency total exact" (2 * n) (Obs.Latency.total h);
  check_int "latency sum exact" (2 * n * 100) (Obs.Latency.sum_ns h)

(* Three times as many live domains as rows: the surplus shares the
   overflow row, which must lose no bump and no span. *)
let test_exact_overflow () =
  let domains = 3 * Ct_util.Domain_slot.capacity in
  let m = Metrics.create ~family:"test-overflow" in
  let h = Obs.Latency.create ~label:"overflow" in
  let tr = Obs.Trace.create ~size:16384 () in
  (* Even one row could hold every domain's spans: nothing wraps. *)
  let per = Obs.Trace.size tr / domains and gap = 64 in
  let key d s = (1 lsl 40) lor (d lsl 20) lor s in
  run_live domains (fun d ->
      for s = 0 to per - 1 do
        bump_both m h gap;
        Obs.Trace.record tr
          (Obs.Trace.make ~sampled:true (key d s))
          Obs.Trace.Exec ~start_ns:(key d s) ~dur_ns:d ~a:s ~b:(-d)
      done);
  let total = domains * per in
  check_int "metrics counter exact" (total * gap) (Metrics.get m Metrics.Helps);
  check_int "latency total exact" (total * gap) (Obs.Latency.total h);
  check_int "trace recorded exact" total (Obs.Trace.recorded tr);
  let spans = Obs.Trace.spans tr in
  check_int "every span resident" total (List.length spans);
  let intact (sp : Obs.Trace.span) =
    let k = key sp.dur_ns sp.a in
    sp.trace_id = k && sp.start_ns = k && sp.b = - sp.dur_ns
    && sp.stage = Obs.Trace.Exec
    && sp.slot >= 0
    && sp.slot <= Ct_util.Domain_slot.capacity
  in
  check_bool "every span intact" true (List.for_all intact spans);
  let keys = List.sort_uniq compare (List.map (fun sp -> sp.Obs.Trace.trace_id) spans) in
  check_int "no span recorded twice or lost" total (List.length keys)

let suite =
  [
    ("percentile_edges", `Quick, test_percentile_edges);
    ("histogram_merge", `Quick, test_histogram_merge);
    ("latency_buckets", `Quick, test_latency_buckets);
    ("latency_merge", `Quick, test_latency_merge);
    ("latency_diff_counts_clamps", `Quick, test_latency_diff_counts_clamps);
    ("flight_wraparound", `Quick, test_flight_wraparound);
    ("flight_concurrent_dump", `Quick, test_flight_concurrent_dump);
    ("uniform_stats", `Quick, test_uniform_stats);
    ("cachetrie_view_agrees", `Quick, test_cachetrie_view_agrees);
    ("enabled_gate", `Quick, test_enabled_gate);
    ("timed_wrapper", `Quick, test_timed_wrapper);
    ("exporters", `Quick, test_exporters);
    ("escape_label", `Quick, test_escape_label);
    ("latency_exemplars", `Quick, test_latency_exemplars);
    ("trace_ctx", `Quick, test_trace_ctx);
    ("trace_ring", `Quick, test_trace_ring);
    ("trace_sink_and_ambient", `Quick, test_trace_sink_and_ambient);
    ("timed_batch", `Quick, test_timed_batch);
    ("post_mortem_embeds_flight", `Quick, test_post_mortem_embeds_flight);
    ("post_mortem_tail_exemplar", `Quick, test_post_mortem_tail_exemplar);
    ("exact_aliasing_ids", `Quick, test_exact_aliasing_ids);
    ("exact_overflow", `Quick, test_exact_overflow);
  ]
