(** Deterministic JSON exports of the observability layer (the twin of
    the Prometheus text in {!Obs.Export}), built on {!Report.Json} so
    equal counter states serialize byte-identically — no timestamps,
    fixed field order. *)

val metrics_json : unit -> Report.Json.t
(** Every live metrics family ({!Ct_util.Metrics.aggregate}) as
    [{families: [{family; live_instances; counters; derived}]}]. *)

val latency_json : (string * Obs.Latency.t) list -> Report.Json.t
(** Labelled histograms as [{op; count; sum_ns; p50_ns; p99_ns;
    p999_ns; buckets: [{le_ns; count}]}] — percentiles are the
    bucket-interpolated ones, buckets list only non-empty entries. *)

val chrome_trace_json : Obs.Trace.t -> Report.Json.t
(** The same window as Chrome trace-event JSON (complete events,
    [ph = "X"], microsecond [ts]/[dur] rebased to the earliest span,
    one [tid] per ring slot) — load the file in Perfetto or
    [chrome://tracing] to see sampled requests' span trees against the
    WAL's background fsync spans. *)

val invariants : unit -> string list
(** Accounting invariants over the aggregated counters; one message
    per violation, empty when all families are consistent.  Checked:
    [cas_retries <= cas_attempts] (a retry is a failed attempt) and
    [cache_hits + cache_misses = cache_lookups] (every probe is
    classified exactly once). *)
