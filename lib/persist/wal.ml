(* Group-commit write-ahead log (DESIGN.md §14).

   Record framing reuses the Protocol idiom — a length prefix and
   fixed big-endian header fields — plus a CRC32 so recovery can tell
   a torn tail from good data:

     u32 payload_len | u32 crc32(payload) | payload
     payload = u64 lsn | u8 op (0 Put, 1 Remove) | i64 key | value

   LSNs are assigned contiguously under the data mutex, so a gap in a
   recovered log can only mean corruption.  [append] is cheap: encode
   into an in-memory buffer and return the LSN.  Durability is batched:
   a committer thread wakes every [commit_interval], writes the
   buffered records in one contiguous write and fsyncs once — the
   group commit that lets thousands of acks share one disk flush.
   Callers that need the ack register a callback with {!subscribe}.
   The thread whose fsync covered a subscription fires it, in one batch
   per commit followed by the {!on_batch} hook, so a server can write
   a batch's replies with one [write] per connection.  A watchdog
   thread sleeps until the earliest pending deadline and fires
   [Timed_out] for what no fsync covered by then (a stalled disk
   degrades to a typed timeout, never unbounded latency), and fires
   [Degraded]/[Lost] once the log dies.  Nothing polls: the watchdog's
   sleep is bounded by {!watchdog_bound}, and a subscription with an
   earlier deadline wakes it through a pipe.

   Failure ladder: a failed fsync retries on a budgeted {!Backoff}
   (counted as [wal_retries]); when the budget burns out the log trips
   into a terminal [`Degraded] state — appends refuse, pending acks
   fire [Degraded], reads (recovery) remain possible.  A simulated
   kill -9 ({!Io.Halted}) stops both threads where they stand, leaving
   whatever prefix reached the disk — recovery's problem, by design.

   Segments: the log is a sequence of [wal-<start_lsn>.log] files.
   {!rotate} (the checkpointer's hook) seals the current segment with
   a final write+fsync and opens the next; fully-checkpointed segments
   are unlinked by {!drop_segments_below}. *)

module Metrics = Ct_util.Metrics
module Backoff = Ct_util.Backoff
module Clock = Ct_util.Clock

type op = Put of int * string | Remove of int

type ack =
  | Durable  (* the covering fsync completed *)
  | Timed_out  (* deadline expired before the covering fsync *)
  | Degraded  (* the log tripped read-only before the covering fsync *)
  | Lost  (* the process "died" (simulated kill): no reply at all *)

type config = {
  commit_interval : float;  (* group-commit fsync period, seconds *)
  fsync_retries : int;  (* budgeted retries before degrading *)
}

let default_config = { commit_interval = 0.002; fsync_retries = 4 }

(* Bytes buffered before an inline flush. *)
let max_buffer = 1 lsl 20

let max_value = 1 lsl 20

type pending = { p_lsn : int; p_deadline : int; p_cb : ack -> unit }

type state = Running | Degraded_s | Closed

type t = {
  dir : string;
  cfg : config;
  metrics : Metrics.t;
  mu : Mutex.t;  (* data: buffer, lsns, state, pending, fd identity *)
  io_mu : Mutex.t;  (* serializes segment I/O (flush, rotate) *)
  bo : Backoff.t;
  mutable fd : Unix.file_descr;
  mutable path : string;
  mutable next_lsn : int;
  mutable buffered_to : int;  (* last lsn encoded into [buf] *)
  mutable durable : int;  (* last lsn covered by a completed fsync *)
  buf : Buffer.t;
  mutable pending : pending list;
  mutable state : state;
  mutable committer : Thread.t option;
  mutable watchdog : Thread.t option;
  mutable wd_wake : int;  (* the watchdog's next planned wake, ns *)
  kick_r : Unix.file_descr;  (* a byte here wakes the watchdog early *)
  kick_w : Unix.file_descr;
  mutable on_batch : unit -> unit;  (* after each fired batch of acks *)
  mutable trigger_lsn : int;  (* [when_appended]: the LSN to reach ... *)
  mutable trigger : unit -> unit;  (* ... and what to call then *)
}

let kick_byte = Bytes.make 1 '!'

(* ------------------------------ encoding ---------------------------- *)

let payload_fixed = 8 + 1 + 8 (* lsn, op tag, key *)

let encode_payload ~lsn op =
  let key, value, tag =
    match op with Put (k, v) -> (k, v, 0) | Remove k -> (k, "", 1)
  in
  if String.length value > max_value then invalid_arg "Wal: oversized value";
  let n = payload_fixed + String.length value in
  let p = Bytes.create n in
  Bytes.set_int64_be p 0 (Int64.of_int lsn);
  Bytes.set_uint8 p 8 tag;
  Bytes.set_int64_be p 9 (Int64.of_int key);
  Bytes.blit_string value 0 p payload_fixed (String.length value);
  p

let encode_record ~lsn op =
  let p = encode_payload ~lsn op in
  let n = Bytes.length p in
  let b = Bytes.create (8 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.set_int32_be b 4 (Int32.of_int (Crc32.bytes p 0 n));
  Bytes.blit p 0 b 8 n;
  b

let decode_payload p =
  let n = Bytes.length p in
  if n < payload_fixed then Error "short record payload"
  else
    let lsn = Int64.to_int (Bytes.get_int64_be p 0) in
    let key = Int64.to_int (Bytes.get_int64_be p 9) in
    match Bytes.get_uint8 p 8 with
    | 0 -> Ok (lsn, Put (key, Bytes.sub_string p payload_fixed (n - payload_fixed)))
    | 1 -> Ok (lsn, Remove key)
    | tag -> Error (Printf.sprintf "unknown op tag %d" tag)

(* ------------------------------ segments ---------------------------- *)

let seg_name start = Printf.sprintf "wal-%016d.log" start

let seg_path dir start = Filename.concat dir (seg_name start)

let seg_start_of_name name =
  if
    String.length name = 24
    && String.sub name 0 4 = "wal-"
    && String.sub name 20 4 = ".log"
  then int_of_string_opt (String.sub name 4 16)
  else None

let segment_starts dir =
  match Sys.readdir dir with
  | entries ->
      Array.to_list entries
      |> List.filter_map seg_start_of_name
      |> List.sort compare
  | exception _ -> []

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ------------------------------- flush ------------------------------ *)

let degrade_locked t = if t.state = Running then t.state <- Degraded_s

(* Under [mu]: take every subscription whose fate is now known.  A
   halted process loses all of them; otherwise the durable LSN, a dead
   log and the deadline decide, in that order. *)
let settle_locked t ~now =
  match t.pending with
  | [] -> []
  | pending ->
      let halted = Io.is_halted () in
      let fired, keep =
        List.partition_map
          (fun p ->
            if halted then Either.Left (p, Lost)
            else if p.p_lsn <= t.durable then Either.Left (p, Durable)
            else if t.state <> Running then Either.Left (p, Degraded)
            else if now > p.p_deadline then Either.Left (p, Timed_out)
            else Either.Right p)
          pending
      in
      t.pending <- keep;
      fired

(* Run a settled batch's callbacks, oldest subscription first, then the
   batch hook — on the calling thread, holding neither mutex. *)
let fire t = function
  | [] -> ()
  | fired ->
      List.iter (fun (p, o) -> try p.p_cb o with _ -> ()) (List.rev fired);
      (try t.on_batch () with _ -> ())

(* Wake the watchdog before its planned time.  The pipe is
   non-blocking: a full pipe already holds a wake-up. *)
let kick t = try ignore (Unix.single_write t.kick_w kick_byte 0 1) with _ -> ()

(* After a write + fsync meant to cover [target]: advance the durable
   LSN or degrade, then settle — one pass under [mu]. *)
let conclude t ~target outcome =
  Mutex.lock t.mu;
  (match outcome with
  | Ok _ -> if target > t.durable then t.durable <- target
  | Error `Degraded -> degrade_locked t
  | Error `Halted -> ());
  let fired = settle_locked t ~now:(Clock.monotonic_ns ()) in
  Mutex.unlock t.mu;
  fired

let sealed_error t =
  match t.state with Degraded_s -> Error `Degraded | _ -> Error `Closed

(* One group commit, holding [io_mu]: swap the buffer out under [mu],
   then write + fsync under [io_mu] only — appends proceed while the
   disk works.  Returns the outcome and the subscriptions it settled,
   which the caller fires once it has released [io_mu]. *)
let commit_locked t =
  Mutex.lock t.mu;
  if t.state <> Running then begin
    let r = sealed_error t in
    Mutex.unlock t.mu;
    (r, [])
  end
  else begin
    let data = Buffer.to_bytes t.buf in
    Buffer.clear t.buf;
    let target = t.buffered_to in
    let fd = t.fd and path = t.path in
    Mutex.unlock t.mu;
    let len = Bytes.length data in
    (* Background span covering the write + fsync of one group
       commit.  Trace id 0 (no single request owns it); [a] carries
       the byte count so a Perfetto view shows which fsync a traced
       request's fsync-wait overlapped.  One atomic load when no
       tracer is installed. *)
    let io0 = Clock.monotonic_ns () in
    let outcome =
      match
        if len > 0 then Io.write_all fd ~path data 0 len;
        let rec sync attempt =
          match Io.fsync fd ~path with
          | () -> Ok ()
          | exception Io.Halted -> Error `Halted
          | exception Unix.Unix_error _ ->
              Metrics.incr t.metrics Metrics.Wal_retries;
              if attempt >= t.cfg.fsync_retries then Error `Degraded
              else begin
                Backoff.once t.bo;
                sync (attempt + 1)
              end
        in
        sync 0
      with
      | Ok () ->
          Metrics.incr t.metrics Metrics.Wal_fsyncs;
          Obs.Trace.record_sink Obs.Trace.none Obs.Trace.Wal_fsync
            ~start_ns:io0
            ~dur_ns:(Clock.monotonic_ns () - io0)
            ~a:len ~b:0;
          Backoff.reset t.bo;
          Ok ()
      | Error _ as e -> e
      | exception Io.Halted -> Error `Halted
      | exception Unix.Unix_error _ ->
          (* A failed or torn data write: the segment tail is suspect,
             and the cleared buffer cannot be replayed without risking
             duplicate bytes.  Terminal; nothing in it was acked. *)
          Error `Degraded
    in
    let fired = conclude t ~target outcome in
    ((outcome :> (unit, [ `Degraded | `Closed | `Halted ]) result), fired)
  end

let flush t =
  Mutex.lock t.io_mu;
  let r, fired = commit_locked t in
  Mutex.unlock t.io_mu;
  fire t fired;
  r

(* ------------------------------ threads ----------------------------- *)

let running t =
  Mutex.lock t.mu;
  let r = t.state = Running in
  Mutex.unlock t.mu;
  r

(* The group commit: every [commit_interval], one write + fsync, and
   the acks it covered fired from here.  On exit (halted, degraded or
   closed) it wakes the watchdog, which settles whatever is left. *)
let committer t () =
  let rec loop () =
    Unix.sleepf t.cfg.commit_interval;
    if (not (Io.is_halted ())) && running t then
      match flush t with Ok () -> loop () | Error _ -> ()
  in
  loop ();
  kick t

let watchdog_bound cfg = 50. *. cfg.commit_interval

(* Deadlines: sleep until the earliest pending deadline (at most
   [watchdog_bound]), then fire [Timed_out] for every subscription the
   committer has not covered by then — a stalled fsync cannot hold an
   ack past its deadline.  [subscribe] kicks the pipe when a new
   deadline is earlier than the planned wake.  Once the log is halted
   or no longer running, it fires everything left and stops. *)
let watchdog t () =
  let max_sleep = int_of_float (watchdog_bound t.cfg *. 1e9) in
  let scratch = Bytes.create 64 in
  let rec loop () =
    Mutex.lock t.mu;
    let now = Clock.monotonic_ns () in
    let fired = settle_locked t ~now in
    let stop = Io.is_halted () || t.state <> Running in
    let wake =
      List.fold_left (fun w p -> min w p.p_deadline) (now + max_sleep) t.pending
    in
    t.wd_wake <- wake;
    Mutex.unlock t.mu;
    fire t fired;
    if not stop then begin
      (match
         Unix.select [ t.kick_r ] [] [] (float_of_int (wake - now) /. 1e9)
       with
      | [], _, _ -> ()
      | _ -> ( try ignore (Unix.read t.kick_r scratch 0 64) with _ -> ())
      | exception Unix.Unix_error (EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

(* ----------------------------- lifecycle ---------------------------- *)

let open_ ?(config = default_config) ?metrics ~dir ~next_lsn () =
  if config.commit_interval <= 0.0 || config.fsync_retries < 0 || next_lsn < 1
  then invalid_arg "Wal.open_";
  mkdir_p dir;
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ~family:"persist"
  in
  let path = seg_path dir next_lsn in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let kick_r, kick_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock kick_r;
  Unix.set_nonblock kick_w;
  let t =
    {
      dir;
      cfg = config;
      metrics;
      mu = Mutex.create ();
      io_mu = Mutex.create ();
      bo = Backoff.create ~min_wait:64 ~max_wait:8192 ();
      fd;
      path;
      next_lsn;
      buffered_to = next_lsn - 1;
      durable = next_lsn - 1;
      buf = Buffer.create 8192;
      pending = [];
      state = Running;
      committer = None;
      watchdog = None;
      wd_wake = max_int;
      kick_r;
      kick_w;
      on_batch = ignore;
      trigger_lsn = max_int;
      trigger = ignore;
    }
  in
  t.committer <- Some (Thread.create (committer t) ());
  t.watchdog <- Some (Thread.create (watchdog t) ());
  t

let append t op =
  if Io.is_halted () then Error `Halted
  else begin
    Mutex.lock t.mu;
    match t.state with
    | Degraded_s ->
        Mutex.unlock t.mu;
        Error `Degraded
    | Closed ->
        Mutex.unlock t.mu;
        Error `Closed
    | Running ->
        let lsn = t.next_lsn in
        t.next_lsn <- lsn + 1;
        Buffer.add_bytes t.buf (encode_record ~lsn op);
        t.buffered_to <- lsn;
        Metrics.incr t.metrics Metrics.Wal_appends;
        let pressure = Buffer.length t.buf >= max_buffer in
        let trigger =
          if lsn < t.trigger_lsn then ignore
          else begin
            let f = t.trigger in
            t.trigger_lsn <- max_int;
            t.trigger <- ignore;
            f
          end
        in
        Mutex.unlock t.mu;
        trigger ();
        if pressure then ignore (flush t);
        Ok lsn
  end

let subscribe t ~lsn ~deadline_ns cb =
  Mutex.lock t.mu;
  let wake_watchdog = ref false in
  let immediate =
    if Io.is_halted () then Some Lost
    else if lsn <= t.durable then Some Durable
    else if t.state <> Running then Some Degraded
    else begin
      t.pending <- { p_lsn = lsn; p_deadline = deadline_ns; p_cb = cb } :: t.pending;
      if deadline_ns < t.wd_wake then begin
        t.wd_wake <- deadline_ns;
        wake_watchdog := true
      end;
      None
    end
  in
  Mutex.unlock t.mu;
  if !wake_watchdog then kick t;
  match immediate with Some o -> cb o | None -> ()

let on_batch t f = t.on_batch <- f

let when_appended t ~lsn f =
  Mutex.lock t.mu;
  let reached = t.next_lsn > lsn in
  if reached then begin
    t.trigger_lsn <- max_int;
    t.trigger <- ignore
  end
  else begin
    t.trigger_lsn <- lsn;
    t.trigger <- f
  end;
  Mutex.unlock t.mu;
  if reached then f ()

let rotate t =
  Mutex.lock t.io_mu;
  Mutex.lock t.mu;
  if t.state <> Running then begin
    let r = sealed_error t in
    Mutex.unlock t.mu;
    Mutex.unlock t.io_mu;
    r
  end
  else begin
    let data = Buffer.to_bytes t.buf in
    Buffer.clear t.buf;
    let boundary = t.next_lsn - 1 in
    let old_fd = t.fd and old_path = t.path in
    match
      Unix.openfile (seg_path t.dir t.next_lsn)
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
        0o644
    with
    | exception _ ->
        (* Could not open the next segment: keep writing the old one.
           The unwritten records go back in front of the buffer — no
           appends happened since the swap (we hold [mu]). *)
        let tail = Buffer.to_bytes t.buf in
        Buffer.clear t.buf;
        Buffer.add_bytes t.buf data;
        Buffer.add_bytes t.buf tail;
        Mutex.unlock t.mu;
        Mutex.unlock t.io_mu;
        Error `Degraded
    | new_fd ->
        t.fd <- new_fd;
        t.path <- seg_path t.dir t.next_lsn;
        Mutex.unlock t.mu;
        (* Seal the old segment: its records must be durable before the
           checkpoint that supersedes them can unlink it. *)
        let sealed =
          match
            let len = Bytes.length data in
            if len > 0 then Io.write_all old_fd ~path:old_path data 0 len;
            Io.fsync old_fd ~path:old_path
          with
          | () ->
              Metrics.incr t.metrics Metrics.Wal_fsyncs;
              Ok boundary
          | exception Io.Halted -> Error `Halted
          | exception Unix.Unix_error _ -> Error `Degraded
        in
        (try Unix.close old_fd with _ -> ());
        let fired = conclude t ~target:boundary sealed in
        Mutex.unlock t.io_mu;
        fire t fired;
        (sealed :> (int, [ `Degraded | `Closed | `Halted ]) result)
  end

(* Unlink every segment all of whose records are <= [lsn].  A segment's
   records end where the next segment starts, so segment [s_i] is dead
   iff [s_{i+1} <= lsn + 1]; the current (last) segment never dies. *)
let drop_segments_below t ~lsn =
  let starts = segment_starts t.dir in
  let dropped = ref 0 in
  let rec go = function
    | s :: (s' :: _ as rest) ->
        if s' <= lsn + 1 then begin
          (try
             Sys.remove (seg_path t.dir s);
             incr dropped
           with _ -> ());
          go rest
        end
        else go rest
    | _ -> ()
  in
  go starts;
  !dropped

let last_lsn t =
  Mutex.lock t.mu;
  let l = t.next_lsn - 1 in
  Mutex.unlock t.mu;
  l

let durable_lsn t =
  Mutex.lock t.mu;
  let l = t.durable in
  Mutex.unlock t.mu;
  l

let degraded t =
  Mutex.lock t.mu;
  let d = t.state = Degraded_s in
  Mutex.unlock t.mu;
  d

let metrics t = t.metrics

let join_threads t =
  kick t;
  (match t.committer with Some th -> Thread.join th | None -> ());
  (match t.watchdog with Some th -> Thread.join th | None -> ());
  t.committer <- None;
  t.watchdog <- None

let close_fds t =
  List.iter (fun fd -> try Unix.close fd with _ -> ()) [ t.fd; t.kick_r; t.kick_w ]

let close t =
  let r = flush t in
  Mutex.lock t.mu;
  if t.state = Running then t.state <- Closed;
  Mutex.unlock t.mu;
  join_threads t;
  (* The watchdog settles everything before it stops; this catches a
     subscription that raced its last pass. *)
  Mutex.lock t.mu;
  let left = t.pending in
  t.pending <- [];
  let durable = t.durable in
  Mutex.unlock t.mu;
  List.iter
    (fun p ->
      try p.p_cb (if p.p_lsn <= durable then Durable else Lost) with _ -> ())
    left;
  close_fds t;
  r

(* Post-crash teardown: no flush, no final acks — the process "died".
   Joins the threads (they exit on the halted flag or the closed
   state) and drops the fds. *)
let abandon t =
  Mutex.lock t.mu;
  if t.state = Running then t.state <- Closed;
  t.pending <- [];
  Mutex.unlock t.mu;
  join_threads t;
  close_fds t
