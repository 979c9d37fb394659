(* End-to-end request tracing (DESIGN.md §16).

   A trace context is one OCaml int: bit 0 is the sampled flag, bits
   1..62 the trace id, and 0 means "untraced".  Packing the whole
   context into an immediate keeps every propagation step — through
   the protocol frame, the dispatch queue item, the ambient
   domain-local — allocation-free, and makes the hot-path guard a
   single register test ([ctx land 1]).

   Spans land in the per-domain lock-free {!Ring} that {!Flight} also
   records into: recording a span is a handful of unboxed int stores
   plus one fetch-and-add on the global stamp clock, and a concurrent
   dump at worst sees an entry mid-rewrite (stamp written last).  The
   rings are a window, not a log: sampling keeps the recording rate
   low enough that a request's spans are still resident when a tail
   exemplar points at them. *)

module Clock = Ct_util.Clock

(* ------------------------------ context ----------------------------- *)

type ctx = int

let none = 0

let max_id = (1 lsl 62) - 1

let make ~sampled id =
  let id = id land max_id in
  let id = if id = 0 then 1 else id in
  (id lsl 1) lor (if sampled then 1 else 0)

let is_traced ctx = ctx <> 0
let sampled ctx = ctx land 1 = 1
let id ctx = ctx lsr 1

(* Wire form: the id and the sampled flag travel separately (u64 +
   flags-byte bit 0), so the protocol layer never needs to know the
   packing. *)
let to_wire ctx = (id ctx, sampled ctx)

let of_wire ~wire_id ~sampled:s =
  let wid = wire_id land max_id in
  if wid = 0 then none else (wid lsl 1) lor (if s then 1 else 0)

(* ------------------------------- stages ----------------------------- *)

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

let n_stages = 10

let stage_index = function
  | Admission -> 0
  | Queue_wait -> 1
  | Exec -> 2
  | Map_op -> 3
  | Wal_append -> 4
  | Fsync_wait -> 5
  | Wal_fsync -> 6
  | Cache_lookup -> 7
  | Cache_load -> 8
  | Request -> 9

let all_stages =
  [
    Admission; Queue_wait; Exec; Map_op; Wal_append; Fsync_wait; Wal_fsync;
    Cache_lookup; Cache_load; Request;
  ]

let stage_of_index = function
  | 0 -> Admission
  | 1 -> Queue_wait
  | 2 -> Exec
  | 3 -> Map_op
  | 4 -> Wal_append
  | 5 -> Fsync_wait
  | 6 -> Wal_fsync
  | 7 -> Cache_lookup
  | 8 -> Cache_load
  | _ -> Request

let stage_name = function
  | Admission -> "admission"
  | Queue_wait -> "queue_wait"
  | Exec -> "exec"
  | Map_op -> "map_op"
  | Wal_append -> "wal_append"
  | Fsync_wait -> "fsync_wait"
  | Wal_fsync -> "wal_fsync"
  | Cache_lookup -> "cache_lookup"
  | Cache_load -> "cache_load"
  | Request -> "request"

(* ------------------------------- rings ------------------------------ *)

type span = {
  trace_id : int;  (* 0 = a background span (WAL group fsync) *)
  stage : stage;
  start_ns : int;
  dur_ns : int;
  a : int;  (* stage-specific annotation (map_op: CAS retries) *)
  b : int;  (* stage-specific annotation (map_op: cache misses) *)
  slot : int;  (* recording domain's ring slot *)
  stamp : int;  (* global recording order *)
}

(* One Ring entry per span: id, stage, start, duration, a, b. *)
type t = Ring.t

let create ?(size = 512) () =
  if size < 1 then invalid_arg "Trace.create: size < 1";
  Ring.create ~cols:6 ~size

let size = Ring.size

let record t ctx stage ~start_ns ~dur_ns ~a ~b =
  let e = Ring.claim t in
  Ring.put t e 0 (id ctx);
  Ring.put t e 1 (stage_index stage);
  Ring.put t e 2 start_ns;
  Ring.put t e 3 (if dur_ns < 0 then 0 else dur_ns);
  Ring.put t e 4 a;
  Ring.put t e 5 b;
  Ring.publish t e

let recorded = Ring.recorded

let spans t =
  List.map
    (fun (slot, stamp, p) ->
      {
        trace_id = p.(0);
        stage = stage_of_index p.(1);
        start_ns = p.(2);
        dur_ns = p.(3);
        a = p.(4);
        b = p.(5);
        slot;
        stamp;
      })
    (Ring.entries t)

let spans_of t ~id:want = List.filter (fun s -> s.trace_id = want) (spans t)

(* Per-stage (count, total ns) over everything still resident — the
   summary the exporters serialize. *)
let stage_summary t =
  let counts = Array.make n_stages 0 and sums = Array.make n_stages 0 in
  List.iter
    (fun s ->
      let i = stage_index s.stage in
      counts.(i) <- counts.(i) + 1;
      sums.(i) <- sums.(i) + s.dur_ns)
    (spans t);
  List.filter_map
    (fun st ->
      let i = stage_index st in
      if counts.(i) = 0 then None
      else Some (stage_name st, counts.(i), sums.(i)))
    all_stages

let span_to_string s =
  Printf.sprintf "[%8d] d%-2d trace=%016x %-12s start=%d dur=%dns a=%d b=%d"
    s.stamp s.slot s.trace_id (stage_name s.stage) s.start_ns s.dur_ns s.a s.b

let reset = Ring.reset

(* ------------------------------- sink ------------------------------- *)

(* The process-global collector.  Layers that record spans without
   plumbing (the WAL's group commit, the cache tier) reach it here;
   with no sink installed a record is one atomic load and a branch. *)
let sink_slot : t option Atomic.t = Atomic.make None

let install t = Atomic.set sink_slot (Some t)
let uninstall () = Atomic.set sink_slot None
let sink () = Atomic.get sink_slot

let record_sink ctx stage ~start_ns ~dur_ns ~a ~b =
  match Atomic.get sink_slot with
  | None -> ()
  | Some t -> record t ctx stage ~start_ns ~dur_ns ~a ~b

(* --------------------------- ambient context ------------------------ *)

(* The current request's context, per domain.  The server worker sets
   it for the duration of one request's execution so layers it calls
   into (the cache tier's read-through, principally) can attribute
   their own spans without an API change.  Domain-local, not
   thread-local: a worker domain runs exactly one executing request at
   a time, which is the invariant that makes this sound. *)
let current_key : ctx Domain.DLS.key = Domain.DLS.new_key (fun () -> none)

let current () = Domain.DLS.get current_key
let set_current ctx = Domain.DLS.set current_key ctx

let with_ctx ctx f =
  let prev = current () in
  set_current ctx;
  Fun.protect ~finally:(fun () -> set_current prev) f

(* Convenience used by instrumented layers: time [f] and record the
   span against the ambient context when it is sampled.  The unsampled
   path is the DLS read plus one branch — no clock calls. *)
let timed_ambient stage f =
  let ctx = current () in
  if sampled ctx then begin
    let t0 = Clock.monotonic_ns () in
    let finish () =
      record_sink ctx stage ~start_ns:t0
        ~dur_ns:(Clock.monotonic_ns () - t0)
        ~a:0 ~b:0
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end
  else f ()
