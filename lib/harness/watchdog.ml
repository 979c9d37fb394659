(* Progress watchdog: detects domains that have stopped publishing.

   The watchdog owns no clock of its own — it compares successive
   {!Ct_util.Progress} heartbeat snapshots.  A slot that is attached
   (its domain has reached at least one yield point) but whose beat
   counter has not moved for [stall_epochs] consecutive epochs is
   reported as stalled, together with the last yield-point site the
   domain was observed at.  Because [Progress] listens on the
   yield-point *observer* slot, the site record survives even when the
   chaos stall injector has parked the domain inside the main hook —
   the observer fires first.

   Epochs advance either by explicit [step] calls (deterministic, used
   by the tests) or by a background monitor domain ([start]/[stop])
   that steps every [interval] seconds and runs the [on_stall]
   escalation callback — typically a structure scrub — once per slot
   per stall episode. *)

module Progress = Ct_util.Progress
module Yieldpoint = Ct_util.Yieldpoint

type report = {
  slot : int;
  beats : int;  (* heartbeat count frozen since the stall began *)
  epochs_stalled : int;
  site : Yieldpoint.site option;  (* last yield point reached, if any *)
  phase : Yieldpoint.phase option;
}

type t = {
  progress : Progress.t;
  stall_epochs : int;
  on_stall : report -> unit;
  flight : Obs.Flight.t option;  (* embedded in post-mortem dumps *)
  tracer : (Obs.Trace.t * Obs.Latency.t) option;
      (* tail-exemplar source: the latency histogram names the slowest
         sampled request, the tracer resolves its span tree *)
  prev : int array;
  stalled_for : int array;
  escalated : bool array;  (* on_stall already ran for this episode *)
  mutable epoch : int;
  mutable monitor : Thread.t option;
  stop_requested : bool Atomic.t;
}

let create ?(stall_epochs = 3) ?(on_stall = fun _ -> ()) ?flight ?tracer
    progress =
  if stall_epochs < 1 then invalid_arg "Watchdog.create: stall_epochs < 1";
  let n = Progress.slots progress in
  {
    progress;
    stall_epochs;
    on_stall;
    flight;
    tracer;
    prev = Progress.snapshot progress;
    stalled_for = Array.make n 0;
    escalated = Array.make n false;
    epoch = 0;
    monitor = None;
    stop_requested = Atomic.make false;
  }

let report_of t slot =
  let site, phase =
    match Progress.last t.progress slot with
    | Some (s, p) -> (Some s, Some p)
    | None -> (None, None)
  in
  {
    slot;
    beats = t.prev.(slot);
    epochs_stalled = t.stalled_for.(slot);
    site;
    phase;
  }

let step t =
  t.epoch <- t.epoch + 1;
  let now = Progress.snapshot t.progress in
  let stalled = ref [] in
  for slot = Array.length now - 1 downto 0 do
    if now.(slot) <> t.prev.(slot) then begin
      (* The domain published: episode over, re-arm escalation. *)
      t.prev.(slot) <- now.(slot);
      t.stalled_for.(slot) <- 0;
      t.escalated.(slot) <- false
    end
    else if Progress.last t.progress slot <> None then begin
      (* Attached but silent.  A slot never attached stays ignored —
         idle workers are not stalls. *)
      t.stalled_for.(slot) <- t.stalled_for.(slot) + 1;
      if t.stalled_for.(slot) >= t.stall_epochs then
        stalled := report_of t slot :: !stalled
    end
    else begin
      (* Vacated (the domain detached cleanly): drop any stale episode. *)
      t.stalled_for.(slot) <- 0;
      t.escalated.(slot) <- false
    end
  done;
  let fresh =
    List.filter (fun r -> not t.escalated.(r.slot)) !stalled
  in
  List.iter (fun r -> t.escalated.(r.slot) <- true; t.on_stall r) fresh;
  !stalled

let stalled t =
  let out = ref [] in
  for slot = Array.length t.prev - 1 downto 0 do
    if t.stalled_for.(slot) >= t.stall_epochs then out := report_of t slot :: !out
  done;
  !out

let report_to_string r =
  Printf.sprintf "slot %d stalled for %d epochs at %s (%d beats)" r.slot
    r.epochs_stalled
    (match (r.site, r.phase) with
    | Some s, Some p ->
        Printf.sprintf "%s/%s" (Yieldpoint.name s)
          (match p with Yieldpoint.Before -> "before" | After -> "after")
    | _ -> "<no yield point observed>")
    r.beats

(* Post-mortem: everything the watchdog knows, in one string — the
   per-slot heartbeat ages, the stall reports, and (when a flight
   recorder was wired in at [create]) the stamp-ordered event dump.
   Safe to call while workers are still running or parked: every input
   is a racy-but-safe snapshot. *)
let post_mortem ?(flight_limit = 64) t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "== watchdog post-mortem (epoch %d) ==\n" t.epoch);
  let now = Progress.snapshot t.progress in
  for slot = 0 to Array.length now - 1 do
    match Progress.last t.progress slot with
    | None -> ()  (* never attached: not a worker *)
    | Some (site, phase) ->
        Buffer.add_string buf
          (Printf.sprintf "slot %d: %d beats, silent for %d epochs, last %s/%s\n"
             slot now.(slot) t.stalled_for.(slot) (Yieldpoint.name site)
             (match phase with Yieldpoint.Before -> "before" | After -> "after"))
  done;
  (match stalled t with
  | [] -> Buffer.add_string buf "no slots currently stalled\n"
  | rs ->
      List.iter
        (fun r -> Buffer.add_string buf (report_to_string r ^ "\n"))
        rs);
  (match t.flight with
  | None -> ()
  | Some f ->
      Buffer.add_string buf
        (Printf.sprintf "-- flight recorder (most recent %d of %d events) --\n"
           (min flight_limit (Obs.Flight.recorded f))
           (Obs.Flight.recorded f));
      Buffer.add_string buf (Obs.Flight.dump_to_string ~limit:flight_limit f);
      Buffer.add_char buf '\n');
  (match t.tracer with
  | None -> ()
  | Some (tr, lat) -> (
      match Obs.Latency.top_exemplar lat (Obs.Latency.counts lat) with
      | None -> Buffer.add_string buf "-- no tail exemplar recorded --\n"
      | Some (bucket, id) -> (
          Buffer.add_string buf
            (Printf.sprintf
               "-- tail exemplar: trace %016x (latency bucket %d, <%.0fns) --\n"
               id bucket
               (Obs.Latency.bucket_upper_ns bucket));
          match Obs.Trace.spans_of tr ~id with
          | [] ->
              Buffer.add_string buf
                "spans already overwritten (ring wrapped)\n"
          | spans ->
              List.iter
                (fun s ->
                  Buffer.add_string buf (Obs.Trace.span_to_string s);
                  Buffer.add_char buf '\n')
                spans)));
  Buffer.contents buf

(* The monitor runs on a Thread, not a Domain: it spends its life in
   [Unix.sleepf] and must not steal a core from the workers it is
   watching. *)
let start t ~interval =
  if t.monitor <> None then invalid_arg "Watchdog.start: already running";
  Atomic.set t.stop_requested false;
  t.monitor <-
    Some
      (Thread.create
         (fun () ->
           while not (Atomic.get t.stop_requested) do
             Unix.sleepf interval;
             if not (Atomic.get t.stop_requested) then ignore (step t)
           done)
         ())

let stop t =
  match t.monitor with
  | None -> ()
  | Some th ->
      Atomic.set t.stop_requested true;
      Thread.join th;
      t.monitor <- None
