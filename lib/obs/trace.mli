(** End-to-end request tracing with tail-latency exemplars
    (DESIGN.md §16).

    A {!ctx} is one immediate int carrying a 62-bit trace id and a
    sampled flag; it is minted at the load generator or client, rides a
    trace extension of the protocol frame, and stays with the decoded
    request until the server executes it.  Sampled requests record
    {!stage} spans into per-domain lock-free rings (the {!Ring} that
    {!Flight} also uses: stamp written last, torn rewrites tolerated by
    the dump).  Head-based sampling bounds the recording
    rate; {!Latency} tail exemplars keep the trace id of each bucket's
    most recent occupant so the span tree of a p99+ request is
    retrievable after the fact.

    Overhead budget (enforced by [bench obs] → [BENCH_obs.json]):
    carrying an unsampled context through a find costs ≤1%; a sampled
    request's full span recording amortizes to ≤5%. *)

(** {1 Trace context} *)

type ctx = int
(** Bit 0 = sampled flag, bits 1..62 = trace id, 0 = {!none}.  An
    immediate, so propagation never allocates. *)

val none : ctx
(** The untraced context. *)

val make : sampled:bool -> int -> ctx
(** [make ~sampled id] packs a context.  [id] is masked to 62 bits and
    coerced away from 0 (0 must remain unambiguously "untraced"). *)

val is_traced : ctx -> bool
val sampled : ctx -> bool

val id : ctx -> int
(** The trace id (0 iff untraced). *)

val to_wire : ctx -> int * bool
(** [(raw id, sampled)] — the two fields the protocol serializes. *)

val of_wire : wire_id:int -> sampled:bool -> ctx
(** Inverse of {!to_wire}; a zero wire id decodes to {!none}. *)

(** {1 Stages} *)

(** The pipeline stage a span covers.  [Admission], [Queue_wait],
    [Exec] and [Fsync_wait] partition the request's server-side wall
    time; [Map_op], [Wal_append], [Cache_lookup] and [Cache_load] nest
    inside [Exec]; [Wal_fsync] is a background span (trace id 0)
    covering one group-commit fsync; [Request] is the root span. *)
type stage =
  | Admission
  | Queue_wait
  | Exec
  | Map_op
  | Wal_append
  | Fsync_wait
  | Wal_fsync
  | Cache_lookup
  | Cache_load
  | Request

val all_stages : stage list
val stage_index : stage -> int
val stage_of_index : int -> stage

val stage_name : stage -> string
(** Stable snake_case name used by the exporters ("queue_wait"). *)

(** {1 Span collector} *)

type span = {
  trace_id : int;  (** 0 = background span (e.g. a WAL group fsync) *)
  stage : stage;
  start_ns : int;  (** monotonic ns ({!Ct_util.Clock}) *)
  dur_ns : int;
  a : int;  (** stage-specific annotation — [Map_op]: CAS retries *)
  b : int;  (** stage-specific annotation — [Map_op]: cache misses *)
  slot : int;
      (** the recording domain's {!Ct_util.Domain_slot};
          [Domain_slot.capacity] for the shared overflow ring *)
  stamp : int;  (** global recording order *)
}

type t

val create : ?size:int -> unit -> t
(** [create ~size ()] sizes each per-domain ring to [size] spans
    (rounded up to a power of two; default 512).  With 1-in-N head
    sampling the rings hold the last [size×slots/spans-per-request]
    sampled requests — a window, sized so tail exemplars still
    resolve. *)

val size : t -> int

val record :
  t -> ctx -> stage -> start_ns:int -> dur_ns:int -> a:int -> b:int -> unit
(** Record one span on the calling domain's ring.  Lock-free,
    allocation-free: six int stores plus one fetch-and-add on the
    stamp clock.  Callers guard with [sampled ctx] — [record] itself
    does not check, so background spans (ctx {!none}) can be forced
    in. *)

val recorded : t -> int
(** Total spans ever recorded (including overwritten ones). *)

val spans : t -> span list
(** Every resident span, stamp-ordered.  Safe concurrently with
    recording: a mid-write slot is skipped or read torn, never
    faulted. *)

val spans_of : t -> id:int -> span list
(** The resident span tree of one trace id, stamp-ordered. *)

val stage_summary : t -> (string * int * int) list
(** Per-stage [(name, count, total_ns)] over resident spans, in stage
    order, empty stages omitted — what the exporters serialize. *)

val span_to_string : span -> string
val reset : t -> unit

(** {1 Process-global sink}

    Layers that cannot be handed a collector (the WAL's group-commit
    fsync loop, the cache tier's read-through) record through the
    installed sink.  With none installed, {!record_sink} is one atomic
    load and a branch. *)

val install : t -> unit
val uninstall : unit -> unit
val sink : unit -> t option

val record_sink :
  ctx -> stage -> start_ns:int -> dur_ns:int -> a:int -> b:int -> unit

(** {1 Ambient context}

    The executing request's context, stored domain-locally by the
    serving loop for the duration of one request so nested layers
    (cache tier, WAL append) can attribute their spans without API
    plumbing.  Sound because a serving loop executes one request at a
    time. *)

val current : unit -> ctx
val set_current : ctx -> unit

val with_ctx : ctx -> (unit -> 'a) -> 'a
(** [with_ctx ctx f] runs [f] with [ctx] ambient, restoring the
    previous context on exit (also on raise). *)

val timed_ambient : stage -> (unit -> 'a) -> 'a
(** Time [f] and record a [stage] span against the ambient context via
    the sink — but only when the ambient context is sampled; otherwise
    the cost is a domain-local read and a branch, no clock calls. *)
