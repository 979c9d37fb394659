(** Log-scale latency histograms (DESIGN.md §11).

    A [Latency.t] holds 64 power-of-two nanosecond buckets — bucket
    [b] counts samples in [[2^b, 2^(b+1))], bucket 0 absorbs 0 and
    1 ns — in one {!Ct_util.Stripe} row per domain slot, like
    {!Ct_util.Metrics}, so recording is a plain read-add-write of two
    ints in the calling domain's row: no CAS, no allocation, and no
    sample lost to another domain.  Each row also accumulates the raw
    nanosecond sum, so the Prometheus exporter can emit an exact
    [_sum] alongside the bucketed counts.

    Percentiles interpolate linearly inside the winning bucket, which
    bounds the error by the bucket width (a factor of two) — the usual
    HdrHistogram-style trade.  For exact percentiles over a bounded
    run, collect raw samples and use {!Ct_util.Stats.percentile}; the
    trace replayer does both.

    Histograms from different domains/runs merge by bucket-wise sum
    via {!Analysis.Histogram.merge}. *)

type t

val n_buckets : int
(** 64 — enough for [2^63] ns, i.e. any [int] sample. *)

val create : label:string -> t
(** [create ~label] — a zeroed histogram; [label] names the op type
    ("find", "insert", ...) in reports. *)

val label : t -> string

val bucket_of_ns : int -> int
(** Index of the bucket a sample falls in ([floor (log2 ns)], clamped
    to [[0, n_buckets)]). *)

val bucket_upper_ns : int -> float
(** Exclusive upper bound of a bucket, the Prometheus [le] label. *)

val record_ns : t -> int -> unit
(** Record one sample.  Allocation-free; negative samples (a clock
    hiccup) count as 0. *)

val record_span : t -> start:int -> unit
(** [record_span t ~start] records [Clock.monotonic_ns () - start]. *)

val record_ns_traced : t -> int -> trace_id:int -> unit
(** Like {!record_ns} and, when [trace_id <> 0], additionally stamps
    the id as the winning bucket's tail exemplar — the most recent
    sampled occupant of that latency band, whose span tree is then
    retrievable from {!Trace}.  The exemplar cells are unstriped and
    racy: last-writer-wins is the wanted semantics. *)

val exemplar : t -> int -> int
(** [exemplar t b] — the trace id last stamped into bucket [b], or 0.
    @raise Invalid_argument if [b] is outside [[0, n_buckets)]. *)

val exemplars : t -> (int * int) list
(** Every [(bucket, trace_id)] with an exemplar, ascending bucket. *)

val top_exemplar : t -> int array -> (int * int) option
(** [top_exemplar t counts] — the exemplar covering the tail: the id
    stamped in the highest non-empty bucket of [counts], falling back
    to the nearest lower bucket that has one (the top occupant may
    never have been sampled).  [counts] is a {!counts} (or
    {!diff_counts} window) snapshot, passed in so callers choose the
    window. *)

val counts : t -> int array
(** Per-bucket totals summed across rows (racy reads). *)

val diff_counts : prev:int array -> now:int array -> int array
(** [diff_counts ~prev ~now] — per-bucket [now - prev], clamped at 0.
    The window histogram a duty-cycle controller (the server ticker)
    diffs between two {!counts} snapshots: clamping keeps a concurrent
    {!reset} or a torn cross-row read from injecting negative
    bucket counts into the control decision.
    @raise Invalid_argument if the arrays differ in length. *)

val merged_counts : t list -> int array
(** Bucket-wise sum over several histograms
    ({!Analysis.Histogram.merge} folded). *)

val total : t -> int
(** Number of recorded samples. *)

val sum_ns : t -> int
(** Exact sum of all recorded samples in nanoseconds. *)

val percentile_of_counts : int array -> float -> float
(** [percentile_of_counts counts p] with [p] in [[0,100]]: the
    interpolated nanosecond value at cumulative count [p/100 * n]
    (nearest-rank, Prometheus-style — p99 of five samples lands in the
    bucket holding the largest one).
    @raise Invalid_argument on an empty histogram or [p] outside
    [[0,100]]. *)

val percentile : t -> float -> float
(** [percentile t p] over this histogram's merged rows. *)

val reset : t -> unit
(** Zero every bucket and sum (racy against concurrent records). *)
