(** Overload-hardened KV server over any [CONCURRENT_MAP]
    (DESIGN.md §12).

    One TCP listener on loopback and [workers] {e domains}, each
    running one run-to-completion loop over the connections it owns.
    A pass [select]s over those connections and the listener (the loop
    that wins an [accept] owns the connection), reads each readable
    one once, executes every frame the read completed inline and in
    order, and writes the pass's replies to each connection in one
    [write].  Requests of one connection therefore run in arrival
    order.  [Unix.select] limits descriptors to FD_SETSIZE (1024): a
    connection accepted above it is closed at once.

    The overload-resilience layer, outside-in:

    - {b admission control}: while the served p99 (over a sliding
      window of the {!Obs.Latency} histogram) exceeds
      [p99_bound_ns], new requests are shed immediately with
      [Overloaded Latency_breach];
    - {b backpressure}: one read of one connection runs at most
      [queue_capacity] frames; the rest of that read are answered
      [Overloaded Queue_full] at decode time, in the same write.
      Every shed is a typed reply — nothing is silently dropped;
    - {b deadlines}: a request's [deadline_ns] budget starts when the
      read that completed its frame returns; one that expired before
      execution (behind a stalled earlier frame) is answered
      [Deadline_exceeded] without touching the map.  Bytes still
      waiting in the socket are not charged;
    - {b slow-peer defence}: a frame left partial for longer than
      [idle_timeout] (slow-loris), or a send timeout against a
      non-reading peer, drops that connection, bounding how long one
      bad client can hold a loop;
    - {b graceful drain}: {!drain} stops accepting, answers new
      requests with [Shutting_down], waits until every read being
      executed and every durable ack is answered, then stops the
      loops, which close their connections.

    Loops cross {!Ct_util.Yieldpoint} sites ([server.worker.exec])
    around every map operation and heartbeat an optional
    {!Ct_util.Progress} on every pass, so the existing chaos
    injectors, flight recorder and {!Harness.Watchdog} see the serving
    path exactly like they see the structures. *)

type config = {
  workers : int;  (** loop domains (default: available cores - 1, min 1) *)
  queue_capacity : int;
      (** frames one read of one connection may run; the rest of the
          read shed [Queue_full] (default 256).  No queue exists: the
          name is left from the queued design, because the stack
          benchmark sets this field, and is due to become
          [frames_per_read] with the next benchmark change. *)
  p99_bound_ns : int;
      (** admission bound on served p99 (default 100ms) *)
  p99_window : int;
      (** min samples per control interval before p99 acts (default 64) *)
  tick_interval : float;
      (** control-loop period and the longest a loop's [select] waits,
          seconds (default 0.02) *)
  idle_timeout : float;
      (** a frame left partial this long drops the peer
          (default 0.25s) *)
  write_timeout : float;
      (** send timeout against non-reading peers (default 0.5s) *)
}

val default_config : unit -> config

(** Durable-mode hooks (DESIGN.md §14), typically built by
    {!Durable.hooks}.  A loop applies a write to the map, then
    [d_append]s it to the write-ahead log and withholds the reply until
    [d_subscribe] reports the covering fsync — or the request deadline,
    a degraded log ([Read_only]) or simulated process death, whichever
    comes first.  The apply-before-append order is load-bearing: a WAL
    rotation boundary then always covers fully-applied state, which is
    what makes background checkpoints consistent.  The loop holds one
    lock per key stripe across a write's apply and append, so writes
    to one key from connections on different loops reach the log in
    the order the map applied them.  An ack callback runs on the thread
    that settled the ack and only buffers the reply; [d_on_batch]
    installs the server's end-of-batch step, which writes each
    connection's buffered acks with one [write]. *)
type durable = {
  d_append :
    Persist.Wal.op -> (int, [ `Degraded | `Closed | `Halted ]) result;
  d_subscribe :
    lsn:int -> deadline_ns:int -> (Persist.Wal.ack -> unit) -> unit;
  d_flush : unit -> unit;
  d_read_only : unit -> bool;
  d_on_batch : (unit -> unit) -> unit;
      (** install the function run after each batch of fired acks, on
          the firing thread ({!Persist.Wal.on_batch}) *)
}

(** The store loops execute Get/Put/Remove on.  Bounded-cache mode
    (DESIGN.md §15) passes ops typically built over a [Cache.Make]
    tier, which makes the server a memcached-shaped bounded store —
    entries carry TTLs and a word budget evicts under pressure;
    without them the server builds the same record over its map.
    Replies mean the same in both modes: [c_get] [None] (absent,
    evicted, expired or negative-cached) → [Nil]; [c_put] → [Stored b]
    with [b] = the key held a binding before ({!Protocol.reply}
    [Stored]); [c_remove] [false] → [Nil].  Exclusive with [durable]:
    a tier evicts entries a WAL already acked, so replaying such a log
    would resurrect them. *)
type cache_ops = {
  c_get : int -> string option;
  c_put : int -> string -> bool;  (** [true] = replaced a binding *)
  c_remove : int -> bool;  (** [true] = removed a binding *)
}

module Make (M : Ct_util.Map_intf.CONCURRENT_MAP with type key = int) : sig
  type t

  val start :
    ?config:config ->
    ?progress:Ct_util.Progress.t ->
    ?durable:durable ->
    ?cache:cache_ops ->
    ?port:int ->
    string M.t ->
    t
  (** Bind 127.0.0.1 (ephemeral port unless [port] given), spawn the
      loop domains and the ticker thread, and serve [map].  With
      [progress], loop [i] attaches slot [i mod slots] and heartbeats
      on every pass, idle or not, so a watchdog over the same
      [progress] flags genuinely stuck loops only.  With
      [durable], write acks are withheld until the WAL's covering
      fsync (see {!durable}); a degraded log turns writes into typed
      [Read_only] refusals while reads keep serving.  With [cache],
      operations route through the bounded tier (see {!cache_ops});
      [map] is then only the identity the server registers metrics
      under — the tier owns the resident data.
      @raise Invalid_argument if both [durable] and [cache] are
      given. *)

  val port : t -> int

  val latency : t -> Obs.Latency.t
  (** Served-request latency, from the read that completed the frame
      to the reply (its fsync ack in durable mode) — executed
      requests only; sheds and deadline misses are excluded so the
      histogram measures what accepted traffic experienced. *)

  val shedding : t -> bool
  (** Is admission control currently shedding on the p99 bound? *)

  val stats : t -> (string * int) list
  (** Serving counters, fixed order: connections, dispatches, typed
      sheds by reason, deadline misses, executed replies, write
      failures, ... *)

  val stat : t -> string -> int
  (** One counter by label; 0 if unknown. *)

  val drain : ?timeout:float -> t -> bool
  (** Graceful shutdown: stop accepting, answer new requests with
      [Shutting_down], wait up to [timeout] (default 10s) until no
      read is being executed and no durable ack is pending, then stop
      the loops — each finishes its pass, so every frame it read is
      answered — and close every connection.  Returns [true] when the
      flush completed inside the timeout ([false] means durable acks
      or a stalled execution were still pending — a connection closed
      under a pending ack is observed as a dropped connection, never
      as a silent non-reply on a live one).
      Idempotent; concurrent calls share one shutdown. *)

  val kill : t -> unit
  (** Crash-simulation teardown: sever every connection immediately
      (peers see EOF — in-flight requests become visible connection
      drops, never silent non-replies on live sockets) and reap the
      loops.  The recovery harness calls this right after
      [Persist.Io.halt]: together they are an in-process [kill -9],
      minus the fd leak.  No flush, no final replies.  Shares the
      drain latch (idempotent against {!drain} and itself). *)
end
