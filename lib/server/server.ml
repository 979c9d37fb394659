(* KV server: [workers] domains, each running one run-to-completion
   loop over the connections it owns (DESIGN.md §12.1).  One pass of a
   loop: [Unix.select] over its connections and the shared listener,
   with timeout [tick_interval]; a non-blocking [accept], whose winner
   owns the new connection; one [read] per readable connection,
   stamped once; every frame that read completed, decoded and executed
   inline in order; then one write of the pass's replies per
   connection.  A request never crosses a thread.  The only other
   writer is whichever thread settles durable acks (the WAL's
   committer after its fsync, or its deadline watchdog): it buffers
   each connection's acks of one batch and writes them with one write
   per connection.

   [Unix.select] only takes descriptors below FD_SETSIZE (1024), so a
   connection accepted on a higher descriptor is closed at once.

   File-descriptor ownership protocol: ONLY a connection's owning loop
   ever [Unix.close]s its fd, under the connection's write mutex.
   Every other party (a thread writing a batch of durable acks, [kill])
   writes or [Unix.shutdown]s it under that mutex while [alive] still
   holds, so a closed fd number is never reused by an unrelated socket
   while someone still pokes at it.  The listener is closed by the
   last loop to stop polling it. *)

module Yp = Ct_util.Yieldpoint
module Clock = Ct_util.Clock
module Metrics = Ct_util.Metrics
module Progress = Ct_util.Progress

type config = {
  workers : int;
  queue_capacity : int;
  p99_bound_ns : int;
  p99_window : int;
  tick_interval : float;
  idle_timeout : float;
  write_timeout : float;
}

let default_config () =
  {
    workers = max 1 (Domain.recommended_domain_count () - 1);
    queue_capacity = 256;
    p99_bound_ns = 100_000_000;
    p99_window = 64;
    tick_interval = 0.02;
    idle_timeout = 0.25;
    write_timeout = 0.5;
  }

let exec_site = Yp.register "server.worker.exec"

(* A peer closing mid-write must surface as EPIPE, not kill the
   process.  Signal dispositions are process-global; set once. *)
let ignore_sigpipe =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ())

(* Serving counters.  Fixed label order so [stats] output is stable
   for reports and CI checks. *)
let stat_labels =
  [|
    "conns_opened";
    "conns_closed";
    "conns_dropped_slow";
    "bad_requests";
    "pings";
    "dispatched";
    "executed";
    "shed_queue_full";
    "shed_latency_breach";
    "shed_shutdown";
    "deadline_expired";
    "server_errors";
    "write_failures";
    "durable_acks";
    "durable_timeouts";
    "read_only";
  |]

let c_conns_opened = 0
let c_conns_closed = 1
let c_conns_dropped_slow = 2
let c_bad_requests = 3
let c_pings = 4
let c_dispatched = 5
let c_executed = 6
let c_shed_queue_full = 7
let c_shed_latency_breach = 8
let c_shed_shutdown = 9
let c_deadline_expired = 10
let c_server_errors = 11
let c_write_failures = 12
let c_durable_acks = 13
let c_durable_timeouts = 14
let c_read_only = 15

(* [Unix.select]'s fd_set holds descriptors below this. *)
let fd_setsize = 1024

(* A [Unix.file_descr] is the descriptor number on Unix. *)
let fd_number (fd : Unix.file_descr) : int = Obj.magic fd

(* Durable mode (DESIGN.md §14), as hooks rather than a hard
   dependency on a concrete store: the loop applies the operation to
   the map, appends it to a write-ahead log, and withholds the reply
   until the covering group-commit fsync — or until the request's own
   deadline expires, whichever comes first.  The apply-before-append
   order is a checkpointing invariant: a WAL rotation boundary then
   always covers fully-applied state.  A write's apply and append run
   under one lock per key stripe, since two loops may write one key
   for two connections and the log must keep the map's order. *)
type durable = {
  d_append :
    Persist.Wal.op -> (int, [ `Degraded | `Closed | `Halted ]) result;
      (* log the (already applied) write; Ok lsn *)
  d_subscribe : lsn:int -> deadline_ns:int -> (Persist.Wal.ack -> unit) -> unit;
      (* fire exactly once with the lsn's fate *)
  d_flush : unit -> unit;  (* graceful drain: force a group commit *)
  d_read_only : unit -> bool;  (* the log degraded; refuse writes *)
  d_on_batch : (unit -> unit) -> unit;
      (* install the function run after each batch of fired acks *)
}

(* The store a loop executes Get/Put/Remove on.  Bounded-cache mode
   (DESIGN.md §15) passes the tier's ops, like [durable] hooks, so
   entries gain TTL, eviction and admission control; otherwise the
   server builds them over its map.  Replies mean the same in both
   modes: [Stored replaced], [Removed] or [Nil], [Value v] or [Nil]. *)
type cache_ops = {
  c_get : int -> string option;  (* tier lookup; negative entries read as None *)
  c_put : int -> string -> bool;  (* true = replaced an existing binding *)
  c_remove : int -> bool;  (* true = a binding was removed *)
}

module Make (M : Ct_util.Map_intf.CONCURRENT_MAP with type key = int) = struct
  type conn = {
    fd : Unix.file_descr;
    wmutex : Mutex.t;
    reader : Protocol.Reader.t;
    mutable out : Bytes.t;  (* this pass's replies; owning loop only *)
    mutable out_len : int;
    mutable partial_since : int;
        (* read stamp since which a partial frame has waited; 0 = none *)
    mutable alive : bool;  (* fd not yet closed by its owning loop *)
    mutable broken : bool;  (* a write failed; stop writing replies *)
    mutable acks : Bytes.t;  (* durable acks fired, not yet written *)
    mutable acks_len : int;
    mutable acks_n : int;  (* replies in [acks] *)
    mutable ack_listed : bool;  (* in the server's [ack_conns] *)
        (* the four [ack*] fields: under [wmutex] *)
  }

  (* 0 = running, 1 = draining, 2 = stopped *)
  type t = {
    cfg : config;
    map : string M.t;
    listen_fd : Unix.file_descr;
    lport : int;
    listening : int Atomic.t;  (* loops still polling the listener *)
    mutable loops : unit Domain.t array;
    mutable ticker_thread : Thread.t option;
    state : int Atomic.t;
    stop : bool Atomic.t;  (* loops and ticker exit *)
    inflight : int Atomic.t;
        (* reads being executed plus durable writes awaiting their ack *)
    shed_p99 : bool Atomic.t;
    lat : Obs.Latency.t;
    counters : int Atomic.t array;
    conns : conn list ref;  (* every open connection, for [kill] *)
    conn_mutex : Mutex.t;
    ack_mu : Mutex.t;
    mutable ack_conns : conn list;  (* connections with buffered acks *)
    key_locks : Mutex.t array;
        (* durable writes: one apply-and-append at a time per stripe *)
    progress : Progress.t option;
    durable : durable option;
    ops : cache_ops;  (* the tier's in cache mode, else the map's *)
    drain_mutex : Mutex.t;
    mutable drain_done : bool;
    mutable drain_flushed : bool;
  }

  let bump t c = Atomic.incr t.counters.(c)

  let port t = t.lport
  let latency t = t.lat
  let shedding t = Atomic.get t.shed_p99

  let stats t =
    Array.to_list
      (Array.mapi (fun i l -> (l, Atomic.get t.counters.(i))) stat_labels)

  let stat t label =
    match List.assoc_opt label (stats t) with Some v -> v | None -> 0

  (* ---------------------------- writing ----------------------------- *)

  let shutdown_conn conn =
    Mutex.lock conn.wmutex;
    if conn.alive then (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with _ -> ());
    Mutex.unlock conn.wmutex

  (* Write [len] bytes of [b], holding [conn.wmutex]. *)
  let write_locked t conn b len =
    if conn.alive && not conn.broken then begin
      let ok =
        try
          let off = ref 0 in
          while !off < len do
            let n = Unix.write conn.fd b !off (len - !off) in
            if n <= 0 then raise Exit;
            off := !off + n
          done;
          true
        with _ -> false
      in
      if not ok then begin
        (* Includes the send-timeout case: a peer that stopped reading
           long enough for SO_SNDTIMEO to fire loses its connection —
           a loop is never parked indefinitely on one bad client. *)
        conn.broken <- true;
        bump t c_write_failures;
        try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with _ -> ()
      end
    end

  (* [buf] holding [len] bytes, with the first [n] bytes of [b]
     appended: the same buffer, or a grown copy. *)
  let append_to buf len b n =
    let buf =
      if len + n <= Bytes.length buf then buf
      else begin
        let grown = Bytes.create (max (2 * Bytes.length buf) (len + n)) in
        Bytes.blit buf 0 grown 0 len;
        grown
      end
    in
    Bytes.blit b 0 buf len n;
    buf

  (* A reply from the owning loop: buffered, written by [flush] with
     the rest of the pass's replies to this connection. *)
  let reply conn ~id r =
    let b = Protocol.encode_reply ~id r in
    conn.out <- append_to conn.out conn.out_len b (Bytes.length b);
    conn.out_len <- conn.out_len + Bytes.length b

  (* A durable ack, on the thread that settled it: buffered on its
     connection, which joins [ack_conns] unless it is there already.
     The end of the batch ([flush_acks]) or the owning loop's next
     [flush], whichever comes first, writes it. *)
  let deliver t conn ~id r =
    let b = Protocol.encode_reply ~id r in
    Mutex.lock conn.wmutex;
    conn.acks <- append_to conn.acks conn.acks_len b (Bytes.length b);
    conn.acks_len <- conn.acks_len + Bytes.length b;
    conn.acks_n <- conn.acks_n + 1;
    let enlist = not conn.ack_listed in
    conn.ack_listed <- true;
    Mutex.unlock conn.wmutex;
    if enlist then begin
      Mutex.lock t.ack_mu;
      t.ack_conns <- conn :: t.ack_conns;
      Mutex.unlock t.ack_mu
    end

  (* Holding [wmutex]: hand the buffered acks to [write]; returns how
     many replies they were. *)
  let take_acks conn write =
    let n = conn.acks_n in
    if n > 0 then begin
      write conn.acks conn.acks_len;
      conn.acks_len <- 0;
      conn.acks_n <- 0
    end;
    n

  (* Count [n] written acks off [inflight] — only once their bytes are
     written, or dropped because the connection is dead or broken, so
     a drain never closes a connection whose acks still wait. *)
  let acked t n = if n > 0 then ignore (Atomic.fetch_and_add t.inflight (-n))

  (* The end of one batch of fired acks: one write per connection that
     gained acks in it. *)
  let flush_acks t =
    Mutex.lock t.ack_mu;
    let conns = t.ack_conns in
    t.ack_conns <- [];
    Mutex.unlock t.ack_mu;
    List.iter
      (fun conn ->
        Mutex.lock conn.wmutex;
        conn.ack_listed <- false;
        let n = take_acks conn (write_locked t conn) in
        Mutex.unlock conn.wmutex;
        acked t n)
      conns

  (* The owning loop's write of one pass: its replies, plus any acks
     buffered for the connection, in one write.  [acks_n] is peeked
     without the mutex: a stale 0 leaves those acks to the batch's
     own [flush_acks], which runs anyway. *)
  let flush t conn =
    if conn.out_len > 0 || conn.acks_n > 0 then begin
      Mutex.lock conn.wmutex;
      let n =
        take_acks conn (fun b len ->
            conn.out <- append_to conn.out conn.out_len b len;
            conn.out_len <- conn.out_len + len)
      in
      if conn.out_len > 0 then write_locked t conn conn.out conn.out_len;
      Mutex.unlock conn.wmutex;
      conn.out_len <- 0;
      acked t n
    end

  (* --------------------------- executing ---------------------------- *)

  let wal_op = function
    | Protocol.Put (k, v) -> Some (Persist.Wal.Put (k, v))
    | Protocol.Remove k -> Some (Persist.Wal.Remove k)
    | Protocol.Get _ | Protocol.Ping -> None

  (* Withhold [reply] until the WAL covers [lsn] with an fsync.  The
     connection reply (and the inflight decrement drain waits on)
     moves to the ack callback, which runs on the thread that settles
     the ack: the one whose fsync covered it, or the WAL's deadline
     watchdog, which runs even when the disk stalls, so the deadline
     still binds.  The callback only buffers the reply ([deliver]);
     the batch's end or the owning loop writes it.  [exec_end] is the
     loop's post-execution timestamp, so the sampled request's
     fsync-wait span starts exactly where its exec span ended and the
     stage durations sum to the recorded end-to-end latency. *)
  let finish_durable t conn ~arrival (req : Protocol.request) d reply lsn
      ~exec_end =
    let tr = req.trace in
    let traced = Obs.Trace.sampled tr in
    let deadline_ns =
      if req.deadline_ns > 0 then arrival + req.deadline_ns else max_int
    in
    Atomic.incr t.inflight;
    d.d_subscribe ~lsn ~deadline_ns (fun ack ->
        match ack with
        | Persist.Wal.Durable ->
            bump t c_durable_acks;
            let fin = Clock.monotonic_ns () in
            let e2e = fin - arrival in
            Obs.Latency.record_ns_traced t.lat e2e
              ~trace_id:(if traced then Obs.Trace.id tr else 0);
            if traced then begin
              Obs.Trace.record_sink tr Obs.Trace.Fsync_wait ~start_ns:exec_end
                ~dur_ns:(fin - exec_end) ~a:lsn ~b:0;
              Obs.Trace.record_sink tr Obs.Trace.Request ~start_ns:arrival
                ~dur_ns:e2e ~a:0 ~b:0
            end;
            deliver t conn ~id:req.id reply
        | Persist.Wal.Timed_out ->
            bump t c_deadline_expired;
            bump t c_durable_timeouts;
            deliver t conn ~id:req.id Protocol.Deadline_exceeded
        | Persist.Wal.Degraded ->
            bump t c_read_only;
            deliver t conn ~id:req.id Protocol.Read_only
        | Persist.Wal.Lost ->
            (* Simulated process death: a dead server sends nothing. *)
            acked t 1)

  let map_ops map =
    {
      c_get = M.lookup map;
      c_put = (fun k v -> Option.is_some (M.add map k v));
      c_remove = (fun k -> Option.is_some (M.remove map k));
    }

  (* Run [req]'s operation on [t.ops], between the exec yield points.
     Raises nothing: a crash inside is a typed [Error]. *)
  let apply t (req : Protocol.request) =
    match
      Yp.here Yp.Before exec_site;
      let r =
        match req.op with
        | Protocol.Get k -> (
            match t.ops.c_get k with
            | Some v -> Protocol.Value v
            | None -> Protocol.Nil)
        | Protocol.Put (k, v) -> Protocol.Stored (t.ops.c_put k v)
        | Protocol.Remove k ->
            if t.ops.c_remove k then Protocol.Removed else Protocol.Nil
        | Protocol.Ping -> Protocol.Pong
      in
      Yp.here Yp.After exec_site;
      r
    with
    | r ->
        bump t c_executed;
        Ok r
    | exception e ->
        (* An injected crash (or a real bug) abandoned the
           operation mid-flight.  The residue is the scrubber's
           problem; the client still gets a typed answer. *)
        bump t c_server_errors;
        Error (Protocol.Server_error (Printexc.to_string e))

  (* A sampled request's map-op span, from [now] to here, annotated
     with the CAS retries and cache misses this domain's counter cells
     gained since [retries0] and [misses0]. *)
  let map_op_span tr mtr mcur ~now ~retries0 ~misses0 =
    Obs.Trace.set_current Obs.Trace.none;
    Obs.Trace.record_sink tr Obs.Trace.Map_op ~start_ns:now
      ~dur_ns:(Clock.monotonic_ns () - now)
      ~a:(Metrics.get_at mtr mcur Metrics.Cas_retries - retries0)
      ~b:(Metrics.get_at mtr mcur Metrics.Cache_misses - misses0)

  (* Execute one admitted request inline.  [arrival] is the stamp of
     the read that completed its frame: deadlines and the latency
     histogram start there. *)
  let serve t conn ~arrival (req : Protocol.request) =
    let tr = req.trace in
    let traced = Obs.Trace.sampled tr in
    let now = Clock.monotonic_ns () in
    if traced then
      Obs.Trace.record_sink tr Obs.Trace.Queue_wait ~start_ns:arrival
        ~dur_ns:(now - arrival) ~a:0 ~b:0;
    if req.deadline_ns > 0 && now - arrival > req.deadline_ns then begin
      bump t c_deadline_expired;
      reply conn ~id:req.id Protocol.Deadline_exceeded
    end
    else begin
      (* Sampled requests snapshot this domain's own counter cells
         around the operation: the get_at deltas are the CAS retries
         and cache misses this request alone burned, which is what the
         map-op span carries as annotations. *)
      let mtr = M.metrics t.map in
      let mcur = if traced then Metrics.cursor mtr else -1 in
      let retries0 = Metrics.get_at mtr mcur Metrics.Cas_retries in
      let misses0 = Metrics.get_at mtr mcur Metrics.Cache_misses in
      if traced then Obs.Trace.set_current tr;
      (* Finish paths share one [fin] capture, so the exec span, the
         request root span and the latency histogram sample agree to
         the nanosecond — the 5% span-sum acceptance check in
         [repro trace] leans on this. *)
      let finish r =
        let fin = Clock.monotonic_ns () in
        let e2e = fin - arrival in
        Obs.Latency.record_ns_traced t.lat e2e
          ~trace_id:(if traced then Obs.Trace.id tr else 0);
        if traced then begin
          Obs.Trace.record_sink tr Obs.Trace.Exec ~start_ns:now
            ~dur_ns:(fin - now) ~a:0 ~b:0;
          Obs.Trace.record_sink tr Obs.Trace.Request ~start_ns:arrival
            ~dur_ns:e2e ~a:0 ~b:0
        end;
        reply conn ~id:req.id r
      in
      match (t.durable, wal_op req.op) with
      | Some d, Some w -> (
          (* A durable write applies and appends under its key's lock:
             two loops may write one key at once, and the log must
             replay that key's writes in the order the map applied
             them.  Apply-before-append is what lets a rotation
             boundary checkpoint fully-applied state. *)
          let (Persist.Wal.Put (k, _) | Persist.Wal.Remove k) = w in
          let lock = t.key_locks.(k land (Array.length t.key_locks - 1)) in
          Mutex.lock lock;
          let logged =
            Fun.protect
              ~finally:(fun () -> Mutex.unlock lock)
              (fun () ->
                let result = apply t req in
                if traced then
                  map_op_span tr mtr mcur ~now ~retries0 ~misses0;
                match result with
                | Error r -> Error r
                | Ok r ->
                    let a0 = if traced then Clock.monotonic_ns () else 0 in
                    let appended = d.d_append w in
                    let a1 = if traced then Clock.monotonic_ns () else 0 in
                    Ok (r, appended, a0, a1))
          in
          match logged with
          | Ok (r, Ok lsn, a0, a1) ->
              if traced then begin
                Obs.Trace.record_sink tr Obs.Trace.Wal_append ~start_ns:a0
                  ~dur_ns:(a1 - a0) ~a:lsn ~b:0;
                Obs.Trace.record_sink tr Obs.Trace.Exec ~start_ns:now
                  ~dur_ns:(a1 - now) ~a:0 ~b:0
              end;
              finish_durable t conn ~arrival req d r lsn ~exec_end:a1
          | Ok (_, Error `Halted, _, _) ->
              (* Dead processes send nothing. *) ()
          | Ok (_, Error (`Degraded | `Closed), _, _) ->
              bump t c_read_only;
              reply conn ~id:req.id Protocol.Read_only
          | Error r -> reply conn ~id:req.id r)
      | _ -> (
          let result = apply t req in
          if traced then map_op_span tr mtr mcur ~now ~retries0 ~misses0;
          match result with
          | Ok r -> finish r
          | Error r -> reply conn ~id:req.id r)
    end

  let shed t conn (req : Protocol.request) c r =
    bump t c;
    reply conn ~id:req.id r

  (* Admission, outside-in: drain, degraded log, p99 breach, then the
     per-read bound — [admitted] frames of this read already run.
     Every refusal is a typed reply.  Returns the new [admitted]. *)
  let admit t conn ~arrival ~admitted (req : Protocol.request) =
    let tr = req.trace in
    let traced = Obs.Trace.sampled tr in
    let adm0 = if traced then Clock.monotonic_ns () else 0 in
    if Atomic.get t.state > 0 then begin
      shed t conn req c_shed_shutdown Protocol.Shutting_down;
      admitted
    end
    else if
      (* Degraded log: refuse writes at admission rather than ack data
         that can no longer be made durable.  Reads keep flowing. *)
      match t.durable with
      | Some d -> wal_op req.op <> None && d.d_read_only ()
      | None -> false
    then begin
      shed t conn req c_read_only Protocol.Read_only;
      admitted
    end
    else if Atomic.get t.shed_p99 then begin
      shed t conn req c_shed_latency_breach
        (Protocol.Overloaded Protocol.Latency_breach);
      admitted
    end
    else if admitted >= t.cfg.queue_capacity then begin
      shed t conn req c_shed_queue_full (Protocol.Overloaded Protocol.Queue_full);
      admitted
    end
    else begin
      (* The admission span covers the shed checks above; it nests in
         the queue wait, which runs from the read's stamp to exec. *)
      if traced then
        Obs.Trace.record_sink tr Obs.Trace.Admission ~start_ns:adm0
          ~dur_ns:(Clock.monotonic_ns () - adm0) ~a:0 ~b:0;
      bump t c_dispatched;
      serve t conn ~arrival req;
      admitted + 1
    end

  (* Decode and run every complete frame in the buffer, in order.
     Returns whether any frame completed. *)
  let rec run_frames t conn ~arrival ~admitted completed =
    match Protocol.Reader.next_frame conn.reader with
    | None -> completed
    | Some payload ->
        let admitted =
          match Protocol.decode_request payload with
          | Error msg ->
              bump t c_bad_requests;
              reply conn ~id:0 (Protocol.Bad_request msg);
              admitted
          | Ok { Protocol.op = Protocol.Ping; id; _ } ->
              bump t c_pings;
              reply conn ~id Protocol.Pong;
              admitted
          | Ok req -> admit t conn ~arrival ~admitted req
        in
        run_frames t conn ~arrival ~admitted true

  (* One readable connection: one read, stamped once; the frames it
     completed run inline; one write of their replies.  The read
     counts as in flight until that write is done, so [drain] never
     sees a half-answered read as flushed.  Returns false once the
     connection is finished (EOF, read error, bad stream, failed
     write). *)
  let service t conn =
    match Protocol.Reader.fill conn.reader conn.fd with
    | 0 ->
        (* EOF; the bytes of a frame left behind are a truncated
           stream. *)
        if Protocol.Reader.pending conn.reader then bump t c_bad_requests;
        false
    | _ ->
        let arrival = Clock.monotonic_ns () in
        Atomic.incr t.inflight;
        let ok =
          match run_frames t conn ~arrival ~admitted:0 false with
          | completed ->
              if not (Protocol.Reader.pending conn.reader) then
                conn.partial_since <- 0
              else if completed || conn.partial_since = 0 then
                conn.partial_since <- arrival;
              true
          | exception Protocol.Protocol_error _ ->
              bump t c_bad_requests;
              false
        in
        flush t conn;
        Atomic.decr t.inflight;
        ok && not conn.broken
    | exception Unix.Unix_error (EINTR, _, _) -> true
    | exception Unix.Unix_error _ -> false

  (* ------------------------------ loops ----------------------------- *)

  let accept t =
    match Unix.accept t.listen_fd with
    | fd, _ when fd_number fd >= fd_setsize ->
        (try Unix.close fd with _ -> ());
        None
    | fd, _ ->
        (try
           (* Blocking: reads follow [select]'s report, and a write
              blocks at most SO_SNDTIMEO. *)
           Unix.clear_nonblock fd;
           Unix.setsockopt fd Unix.TCP_NODELAY true;
           Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.cfg.write_timeout
         with _ -> ());
        let conn =
          {
            fd;
            wmutex = Mutex.create ();
            reader = Protocol.Reader.create ();
            out = Bytes.create 4096;
            out_len = 0;
            partial_since = 0;
            alive = true;
            broken = false;
            acks = Bytes.empty;
            acks_len = 0;
            acks_n = 0;
            ack_listed = false;
          }
        in
        bump t c_conns_opened;
        Mutex.lock t.conn_mutex;
        t.conns := conn :: !(t.conns);
        Mutex.unlock t.conn_mutex;
        Some conn
    | exception Unix.Unix_error _ -> None

  let retire t conn =
    Mutex.lock conn.wmutex;
    conn.alive <- false;
    (try Unix.close conn.fd with _ -> ());
    Mutex.unlock conn.wmutex;
    bump t c_conns_closed;
    Mutex.lock t.conn_mutex;
    t.conns := List.filter (fun c -> c != conn) !(t.conns);
    Mutex.unlock t.conn_mutex

  let leave_listener t =
    if Atomic.fetch_and_add t.listening (-1) = 1 then
      try Unix.close t.listen_fd with _ -> ()

  (* A loop beats [progress] on every pass, idle or not — the select
     timeout bounds a pass — so a watchdog over the same [progress]
     flags only a loop stuck inside one. *)
  let run_loop t w_idx =
    (match t.progress with
    | Some p -> Progress.attach p (w_idx mod Progress.slots p)
    | None -> ());
    let idle_ns = int_of_float (t.cfg.idle_timeout *. 1e9) in
    let owned = ref [] and listening = ref true in
    while not (Atomic.get t.stop) do
      (match t.progress with Some p -> Progress.beat p | None -> ());
      if !listening && Atomic.get t.state > 0 then begin
        listening := false;
        leave_listener t
      end;
      let fds = List.map (fun c -> c.fd) !owned in
      let ready =
        match
          Unix.select
            (if !listening then t.listen_fd :: fds else fds)
            [] [] t.cfg.tick_interval
        with
        | r, _, _ -> r
        | exception Unix.Unix_error (EINTR, _, _) -> []
      in
      let now = Clock.monotonic_ns () in
      owned :=
        List.filter
          (fun c ->
            if List.memq c.fd ready && not (service t c) then begin
              retire t c;
              false
            end
            else if c.partial_since > 0 && now - c.partial_since > idle_ns
            then begin
              (* Slow-loris: a frame left partial past the idle
                 timeout.  Cut the peer loose. *)
              bump t c_conns_dropped_slow;
              retire t c;
              false
            end
            else true)
          !owned;
      if !listening && List.memq t.listen_fd ready then
        match accept t with Some c -> owned := c :: !owned | None -> ()
    done;
    if !listening then leave_listener t;
    List.iter (retire t) !owned;
    match t.progress with Some p -> Progress.detach p | None -> ()

  (* ------------------------------ ticker ---------------------------- *)

  (* Control loop: run the p99 admission check over the latest
     histogram window.  When the window is too thin to judge (often
     because admission is already shedding everything), shedding turns
     back off — the duty-cycle probe that lets the server discover the
     episode is over. *)
  let ticker t =
    let prev = ref (Obs.Latency.counts t.lat) in
    while not (Atomic.get t.stop) do
      Unix.sleepf t.cfg.tick_interval;
      let now = Obs.Latency.counts t.lat in
      (* Clamped per-bucket diff: [counts] sums per-stripe cells with
         racy reads, so a concurrent [reset] (benches do this between
         phases) or a torn read straddling two ticks can yield
         now < prev for a bucket.  A negative bucket count poisons both
         the window total and the p99 — admission would then shed (or
         un-shed) on garbage.  Clamping loses at most one interval's
         samples for that bucket, which just delays the duty cycle by a
         tick. *)
      let diff = Obs.Latency.diff_counts ~prev:!prev ~now in
      let total = Array.fold_left ( + ) 0 diff in
      if total >= t.cfg.p99_window then begin
        let p99 = Obs.Latency.percentile_of_counts diff 99.0 in
        Atomic.set t.shed_p99 (p99 > float_of_int t.cfg.p99_bound_ns);
        prev := now
      end
      else begin
        Atomic.set t.shed_p99 false;
        if total > 0 then prev := now
      end
    done

  (* ------------------------------ lifecycle ------------------------- *)

  let start ?(config = default_config ()) ?progress ?durable ?cache ?(port = 0)
      map =
    if
      config.workers < 1 || config.queue_capacity < 1 || config.p99_window < 1
      || config.tick_interval <= 0.0
    then invalid_arg "Server.start: bad config";
    (* A tier evicts entries the WAL already acked — replaying such a
       log would resurrect them.  Bounded-cache serving is volatile by
       contract; refuse the combination instead of corrupting either. *)
    if durable <> None && cache <> None then
      invalid_arg "Server.start: durable and cache modes are exclusive";
    Lazy.force ignore_sigpipe;
    let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    let t =
      try
        Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
        Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.listen listen_fd 128;
        (* Every loop polls the listener; the losers of an accept race
           get EAGAIN instead of blocking. *)
        Unix.set_nonblock listen_fd;
        let lport =
          match Unix.getsockname listen_fd with
          | Unix.ADDR_INET (_, p) -> p
          | _ -> assert false
        in
        {
          cfg = config;
          map;
          listen_fd;
          lport;
          listening = Atomic.make config.workers;
          loops = [||];
          ticker_thread = None;
          state = Atomic.make 0;
          stop = Atomic.make false;
          inflight = Atomic.make 0;
          shed_p99 = Atomic.make false;
          lat = Obs.Latency.create ~label:"server-request";
          counters =
            Array.init (Array.length stat_labels) (fun _ -> Atomic.make 0);
          conns = ref [];
          conn_mutex = Mutex.create ();
          ack_mu = Mutex.create ();
          ack_conns = [];
          key_locks = Array.init 64 (fun _ -> Mutex.create ());
          progress;
          durable;
          ops = (match cache with Some c -> c | None -> map_ops map);
          drain_mutex = Mutex.create ();
          drain_done = false;
          drain_flushed = false;
        }
      with e ->
        (try Unix.close listen_fd with _ -> ());
        raise e
    in
    Option.iter (fun d -> d.d_on_batch (fun () -> flush_acks t)) durable;
    t.loops <-
      Array.init config.workers (fun i -> Domain.spawn (fun () -> run_loop t i));
    t.ticker_thread <- Some (Thread.create (fun () -> ticker t) ());
    t

  (* Stop the loops and the ticker.  Each loop finishes its pass, so
     every frame it read is answered, then closes its connections. *)
  let stop_all t =
    Atomic.set t.stop true;
    Array.iter Domain.join t.loops;
    match t.ticker_thread with Some th -> Thread.join th | None -> ()

  let drain ?(timeout = 10.0) t =
    Mutex.lock t.drain_mutex;
    if t.drain_done then begin
      let r = t.drain_flushed in
      Mutex.unlock t.drain_mutex;
      r
    end
    else begin
      (* Loops now answer every new request [Shutting_down] and stop
         polling the listener; the last of them closes it. *)
      Atomic.set t.state 1;
      (* Durable mode: force a group commit so already-appended writes
         ack on the flush instead of waiting out a commit interval.
         Later appends ride the committer's normal cadence; the
         inflight wait below covers their acks too. *)
      (match t.durable with Some d -> d.d_flush () | None -> ());
      (* Monotonic deadline (Clock.now_ns, mockable in tests): with
         wall-clock time a backwards NTP step made this loop spin past
         its timeout and a forward step truncated the flush window. *)
      let deadline = Clock.now_ns () + int_of_float (timeout *. 1e9) in
      let flushed () = Atomic.get t.inflight = 0 in
      while (not (flushed ())) && Clock.now_ns () < deadline do
        Unix.sleepf 0.002
      done;
      let ok = flushed () in
      stop_all t;
      Atomic.set t.state 2;
      t.drain_done <- true;
      t.drain_flushed <- ok;
      Mutex.unlock t.drain_mutex;
      ok
    end

  (* Crash-simulation teardown: sever every connection NOW (peers see
     EOF, so in-flight requests become visible connection drops, never
     silent non-replies on a live socket), then reap the loops.  Used
     by the recovery harness right after [Persist.Io.halt]: writes
     reach a halted WAL, which refuses instantly, and [Lost] acks send
     nothing — exactly a killed process, minus the fd leak. *)
  let kill t =
    Mutex.lock t.drain_mutex;
    if t.drain_done then Mutex.unlock t.drain_mutex
    else begin
      Atomic.set t.state 1;
      Mutex.lock t.conn_mutex;
      let conns = !(t.conns) in
      Mutex.unlock t.conn_mutex;
      List.iter shutdown_conn conns;
      stop_all t;
      Atomic.set t.state 2;
      t.drain_done <- true;
      t.drain_flushed <- false;
      Mutex.unlock t.drain_mutex
    end
end
