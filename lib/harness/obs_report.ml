module Metrics = Ct_util.Metrics
module Json = Report.Json

let counters_obj counters =
  Json.Obj (List.map (fun (label, n) -> (label, Json.Int n)) counters)

let family_json (family, live, counters) =
  Json.Obj
    [
      ("family", Json.String family);
      ("live_instances", Json.Int live);
      ("counters", counters_obj counters);
      ("derived", counters_obj (Obs.Export.derived counters));
    ]

let metrics_json () =
  Json.Obj [ ("families", Json.List (List.map family_json (Metrics.aggregate ()))) ]

let histogram_json (op, h) =
  let counts = Obs.Latency.counts h in
  let total = Array.fold_left ( + ) 0 counts in
  let buckets = ref [] in
  for b = Array.length counts - 1 downto 0 do
    if counts.(b) > 0 then
      buckets :=
        Json.Obj
          [
            ("le_ns", Json.Float (Obs.Latency.bucket_upper_ns b));
            ("count", Json.Int counts.(b));
          ]
        :: !buckets
  done;
  let pct p =
    if total = 0 then Json.Null
    else Json.Float (Obs.Latency.percentile_of_counts counts p)
  in
  Json.Obj
    [
      ("op", Json.String op);
      ("count", Json.Int total);
      ("sum_ns", Json.Int (Obs.Latency.sum_ns h));
      ("p50_ns", pct 50.0);
      ("p99_ns", pct 99.0);
      ("p999_ns", pct 99.9);
      ("buckets", Json.List !buckets);
    ]

let latency_json histograms =
  Json.Obj [ ("histograms", Json.List (List.map histogram_json histograms)) ]

(* ------------------------------- spans ------------------------------ *)

(* Chrome trace-event JSON (the catapult format Perfetto loads):
   complete events (ph "X") with microsecond ts/dur, one tid per ring
   slot, trace id and stage annotations in args.  Timestamps are
   rebased to the earliest span so the viewport opens on the data
   rather than hours of monotonic-clock offset. *)
let chrome_trace_json tr =
  let spans = Obs.Trace.spans tr in
  let t0 =
    List.fold_left (fun acc (s : Obs.Trace.span) -> min acc s.start_ns) max_int
      spans
  in
  let us ns = float_of_int ns /. 1e3 in
  let event (s : Obs.Trace.span) =
    Json.Obj
      [
        ("name", Json.String (Obs.Trace.stage_name s.stage));
        ("cat", Json.String "request");
        ("ph", Json.String "X");
        ("ts", Json.Float (us (s.start_ns - t0)));
        ("dur", Json.Float (us s.dur_ns));
        ("pid", Json.Int 1);
        ("tid", Json.Int s.slot);
        ( "args",
          Json.Obj
            [
              ("trace_id", Json.Int s.trace_id);
              ("a", Json.Int s.a);
              ("b", Json.Int s.b);
            ] );
      ]
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.map event spans));
      ("displayTimeUnit", Json.String "ns");
    ]

let invariants () =
  let violations = ref [] in
  List.iter
    (fun (family, _, counters) ->
      let get l = match List.assoc_opt l counters with Some n -> n | None -> 0 in
      let attempts = get "cas_attempts" and retries = get "cas_retries" in
      if retries > attempts then
        violations :=
          Printf.sprintf "%s: cas_retries %d > cas_attempts %d" family retries
            attempts
          :: !violations;
      let hits = get "cache_hits" and misses = get "cache_misses" in
      (match List.assoc_opt "cache_lookups" (Obs.Export.derived counters) with
      | Some lookups when hits + misses <> lookups ->
          violations :=
            Printf.sprintf "%s: cache_hits %d + cache_misses %d <> cache_lookups %d"
              family hits misses lookups
            :: !violations
      | _ -> ()))
    (Metrics.aggregate ());
  List.rev !violations
