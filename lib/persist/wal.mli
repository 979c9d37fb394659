(** Group-commit write-ahead log (DESIGN.md §14).

    Appends are cheap (encode into a buffer, take the next LSN); a
    committer thread turns the buffer into one contiguous write plus
    one fsync every [commit_interval] — the group commit.  Durability
    acks are callbacks ({!subscribe}), fired by the thread whose fsync
    made them durable, as one batch per commit.  A watchdog thread
    sleeps until the earliest pending deadline, so a stalled disk turns
    into typed [Timed_out] acks rather than unbounded latency.  Failed
    fsyncs retry on a budgeted backoff and then trip the log into a
    terminal degraded state. *)

type op = Put of int * string | Remove of int

type ack =
  | Durable  (** the covering fsync completed *)
  | Timed_out  (** the deadline expired before the covering fsync *)
  | Degraded  (** the log tripped read-only before the covering fsync *)
  | Lost  (** simulated process death: no reply at all *)

type config = {
  commit_interval : float;  (** group-commit fsync period, seconds *)
  fsync_retries : int;  (** budgeted retries before degrading *)
}

val default_config : config
(** 2 ms commit interval, 4 fsync retries.  The append that brings
    the buffer to 1 MiB flushes it inline. *)

type t

val open_ :
  ?config:config ->
  ?metrics:Ct_util.Metrics.t ->
  dir:string ->
  next_lsn:int ->
  unit ->
  t
(** Open (creating if needed) segment [wal-<next_lsn>.log] in [dir] and
    start the committer and watchdog threads.  [next_lsn] is 1 for a fresh
    store, or [Recovery] stats' [last_lsn + 1] after a restart. *)

val append : t -> op -> (int, [ `Degraded | `Closed | `Halted ]) result
(** Assign the next LSN and buffer the record.  Returns immediately;
    durability comes later via {!subscribe}.  Values over 1 MiB raise
    [Invalid_argument]. *)

val subscribe : t -> lsn:int -> deadline_ns:int -> (ack -> unit) -> unit
(** Call the callback exactly once when [lsn]'s fate is known:
    [Durable] once a completed fsync covers it, [Timed_out] if the
    absolute {!Ct_util.Clock.monotonic_ns} deadline passes first,
    [Degraded]/[Lost] if the log dies first.  May fire synchronously
    (already-durable LSNs); otherwise fires on the thread that settled
    it: the one whose fsync covered it (the committer, or a caller of
    {!flush}, {!rotate} or a pressured {!append}), or the watchdog for
    [Timed_out], [Degraded] and [Lost].  The callback must not raise
    and must not block. *)

val on_batch : t -> (unit -> unit) -> unit
(** [on_batch t f] makes [f] run after each batch of callbacks that
    one commit or watchdog pass fires, on the same thread, once every
    callback of the batch has returned — the point to write what the
    callbacks buffered.  Not called for synchronous fires inside
    {!subscribe}.  One slot: the last call wins. *)

val watchdog_bound : config -> float
(** The longest the watchdog sleeps, seconds: [50 * commit_interval].
    A subscription whose deadline is earlier than the watchdog's
    planned wake wakes it at once, so [Timed_out] fires at the
    deadline, not up to this bound after it. *)

val when_appended : t -> lsn:int -> (unit -> unit) -> unit
(** [when_appended t ~lsn f] calls [f] once, as soon as an append is
    assigned an LSN [>= lsn] — on the appending thread, outside the
    log's locks — or at once if one already was.  One registration at
    a time: a new one replaces the old.  The checkpointer's wake-up. *)

val flush : t -> (unit, [ `Degraded | `Closed | `Halted ]) result
(** Force a group commit now: everything appended so far is durable on
    [Ok].  Used by graceful drain. *)

val rotate : t -> (int, [ `Degraded | `Closed | `Halted ]) result
(** Seal the current segment (final write + fsync) and switch appends
    to a fresh [wal-<next_lsn>.log].  Returns the boundary — the last
    LSN of the sealed segment; every record [<= boundary] is durable.
    The checkpointer calls this first, then snapshots, so the
    checkpoint covers the whole sealed prefix. *)

val drop_segments_below : t -> lsn:int -> int
(** Unlink every segment whose records are all [<= lsn] (never the
    current one).  Returns the number of segments removed.  Called
    after a checkpoint at [lsn] is published. *)

val last_lsn : t -> int
val durable_lsn : t -> int

val degraded : t -> bool
(** The log has tripped read-only (fsync budget exhausted). *)

val metrics : t -> Ct_util.Metrics.t

val close : t -> (unit, [ `Degraded | `Closed | `Halted ]) result
(** Graceful shutdown: final flush, stop both threads, fire remaining
    subscriptions, close the fds.  [Ok] means everything appended is on
    disk. *)

val abandon : t -> unit
(** Post-crash teardown for tests and harnesses: join the threads and
    drop the fd without flushing or acking — the process "died". *)

(** {2 Record format} (exposed for recovery and for tests) *)

val encode_record : lsn:int -> op -> Bytes.t
(** [u32 len | u32 crc32(payload) | payload]. *)

val decode_payload : Bytes.t -> (int * op, string) result
(** Parse [u64 lsn | u8 tag | i64 key | value]. *)

val seg_name : int -> string
val seg_path : string -> int -> string
val seg_start_of_name : string -> int option
val segment_starts : string -> int list
(** Sorted start-LSNs of the segments present in a directory. *)
