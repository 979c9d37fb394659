module Trace = Harness.Trace
module Net = Chaos.Net
module Clock = Ct_util.Clock
module Stats = Ct_util.Stats

type plan = {
  seed : int;
  n : int;
  conns : int;
  rate : float;
  profile : Trace.profile;
  deadline_ns : int;
  value_bytes : int;
  partition : bool;
  net : Net.plan;
  trace_one_in : int;
}

let default_plan =
  {
    seed = 0xC0FFEE;
    n = 20_000;
    conns = 8;
    rate = 20_000.0;
    profile = Trace.read_mostly;
    deadline_ns = 250_000_000;
    value_bytes = 32;
    partition = false;
    net = Net.quiet;
    trace_one_in = 0;
  }

(* Deterministic trace context for request [i]: with tracing on every
   request carries an id (so the ledger row ↔ span tree correlation
   never depends on timing), and every [trace_one_in]-th is sampled —
   head-based sampling decided at mint time.  The id packs the seed
   above the request index, so two plans' ids don't collide and a
   replay regenerates the same ids. *)
let ctx_for p i =
  if p.trace_one_in <= 0 then Obs.Trace.none
  else
    let id = ((p.seed land 0x3FFF_FFFF) lsl 30) lor ((i + 1) land 0x3FFF_FFFF) in
    Obs.Trace.make ~sampled:(i mod p.trace_one_in = 0) id

let trace_id_for p i = Obs.Trace.id (ctx_for p i)

(* ------------------------------ trace text -------------------------- *)

let header = "kvload-trace v1"

let to_string p =
  let b = Buffer.create 256 in
  let line fmt = Printf.bprintf b fmt in
  line "%s\n" header;
  line "seed=%d\n" p.seed;
  line "n=%d\n" p.n;
  line "conns=%d\n" p.conns;
  line "rate=%.17g\n" p.rate;
  line "reads=%d\n" p.profile.Trace.reads;
  line "inserts=%d\n" p.profile.Trace.inserts;
  line "removes=%d\n" p.profile.Trace.removes;
  line "universe=%d\n" p.profile.Trace.universe;
  line "skew=%.17g\n" p.profile.Trace.skew;
  line "deadline_ns=%d\n" p.deadline_ns;
  line "value_bytes=%d\n" p.value_bytes;
  line "partition=%d\n" (if p.partition then 1 else 0);
  line "net.seed=%d\n" p.net.Net.seed;
  line "net.drop_one_in=%d\n" p.net.Net.drop_one_in;
  line "net.loris_one_in=%d\n" p.net.Net.loris_one_in;
  line "net.loris_chunk=%d\n" p.net.Net.loris_chunk;
  line "net.loris_delay=%.17g\n" p.net.Net.loris_delay;
  line "net.pause_reads_one_in=%d\n" p.net.Net.pause_reads_one_in;
  line "net.pause_reads_s=%.17g\n" p.net.Net.pause_reads_s;
  line "trace_one_in=%d\n" p.trace_one_in;
  Buffer.contents b

let of_string s =
  match String.split_on_char '\n' (String.trim s) with
  | [] -> Error "empty trace"
  | hd :: rest when String.trim hd = header -> (
      let p = ref default_plan in
      let err = ref None in
      let seti f v = match int_of_string_opt (String.trim v) with
        | Some i -> f i
        | None -> err := Some (Printf.sprintf "bad int %S" v)
      and setf f v = match float_of_string_opt (String.trim v) with
        | Some x -> f x
        | None -> err := Some (Printf.sprintf "bad float %S" v)
      in
      List.iter
        (fun raw ->
          let l = String.trim raw in
          if l <> "" && !err = None then
            match String.index_opt l '=' with
            | None -> err := Some (Printf.sprintf "bad line %S" l)
            | Some i -> (
                let k = String.sub l 0 i
                and v = String.sub l (i + 1) (String.length l - i - 1) in
                let prof f = p := { !p with profile = f !p.profile }
                and net f = p := { !p with net = f !p.net } in
                match k with
                | "seed" -> seti (fun x -> p := { !p with seed = x }) v
                | "n" -> seti (fun x -> p := { !p with n = x }) v
                | "conns" -> seti (fun x -> p := { !p with conns = x }) v
                | "rate" -> setf (fun x -> p := { !p with rate = x }) v
                | "reads" -> seti (fun x -> prof (fun pr -> { pr with Trace.reads = x })) v
                | "inserts" -> seti (fun x -> prof (fun pr -> { pr with Trace.inserts = x })) v
                | "removes" -> seti (fun x -> prof (fun pr -> { pr with Trace.removes = x })) v
                | "universe" -> seti (fun x -> prof (fun pr -> { pr with Trace.universe = x })) v
                | "skew" -> setf (fun x -> prof (fun pr -> { pr with Trace.skew = x })) v
                | "deadline_ns" -> seti (fun x -> p := { !p with deadline_ns = x }) v
                | "value_bytes" -> seti (fun x -> p := { !p with value_bytes = x }) v
                | "partition" ->
                    seti (fun x -> p := { !p with partition = x <> 0 }) v
                | "net.seed" -> seti (fun x -> net (fun np -> { np with Net.seed = x })) v
                | "net.drop_one_in" -> seti (fun x -> net (fun np -> { np with Net.drop_one_in = x })) v
                | "net.loris_one_in" -> seti (fun x -> net (fun np -> { np with Net.loris_one_in = x })) v
                | "net.loris_chunk" -> seti (fun x -> net (fun np -> { np with Net.loris_chunk = x })) v
                | "net.loris_delay" -> setf (fun x -> net (fun np -> { np with Net.loris_delay = x })) v
                | "net.pause_reads_one_in" ->
                    seti (fun x -> net (fun np -> { np with Net.pause_reads_one_in = x })) v
                | "net.pause_reads_s" -> setf (fun x -> net (fun np -> { np with Net.pause_reads_s = x })) v
                | "trace_one_in" ->
                    seti (fun x -> p := { !p with trace_one_in = x }) v
                | _ -> err := Some (Printf.sprintf "unknown key %S" k)))
        rest;
      match !err with Some e -> Error e | None -> Ok !p)
  | hd :: _ -> Error (Printf.sprintf "bad header %S (want %S)" (String.trim hd) header)

(* ------------------------------ summary ----------------------------- *)

(* The ledger: one slot per scheduled request.  In durable mode, an ok
   [Replied] on a write IS the durable-ack column — the server only
   sends it after the covering WAL fsync — which is what
   {!verify_recovered} keys on. *)
type outcome = Pending | Dropped | Replied of Protocol.reply

type summary = {
  plan : plan;
  elapsed : float;
  sent : int;
  ok : int;
  shed_queue_full : int;
  shed_latency_breach : int;
  deadline_exceeded : int;
  shutting_down : int;
  read_only : int;
  rejected : int;
  dropped : int;
  pending : int;
  reconnects : int;
  fault_drops : int;
  fault_lorises : int;
  fault_pauses : int;
  offered_rate : float;
  achieved_rate : float;
  ok_rate : float;
  client_p50_ns : float;
  client_p99_ns : float;
  outcomes : outcome array;  (* the full ledger, one slot per request *)
  trace_ids : int array;
      (* trace id carried by request i (0 = untraced), regenerated
         deterministically from the plan so a --replay correlates the
         same ledger row with the same exported span tree *)
}

let shed s =
  s.shed_queue_full + s.shed_latency_breach + s.deadline_exceeded
  + s.shutting_down + s.read_only

let accounted s = s.ok + shed s + s.rejected + s.dropped

let verify s =
  if s.pending > 0 then
    Error
      (Printf.sprintf
         "%d silent drop(s): requests sent on live connections were never \
          answered"
         s.pending)
  else if accounted s <> s.plan.n then
    Error
      (Printf.sprintf "ledger does not add up: %d accounted of %d requests"
         (accounted s) s.plan.n)
  else Ok ()

let pp_summary fmt s =
  Format.fprintf fmt
    "@[<v>offered %.0f req/s, achieved %.0f req/s, goodput %.0f req/s \
     (%.2fs)@,\
     sent %d: ok %d, shed %d (queue_full %d, latency_breach %d, deadline %d, \
     shutting_down %d, read_only %d), rejected %d, dropped %d, pending %d@,\
     reconnects %d; faults: drops %d, lorises %d, read-pauses %d@,\
     client latency ok-replies: p50 %.0fus p99 %.0fus@]"
    s.offered_rate s.achieved_rate s.ok_rate s.elapsed s.sent s.ok (shed s)
    s.shed_queue_full s.shed_latency_breach s.deadline_exceeded
    s.shutting_down s.read_only s.rejected s.dropped s.pending s.reconnects
    s.fault_drops s.fault_lorises s.fault_pauses
    (s.client_p50_ns /. 1e3)
    (s.client_p99_ns /. 1e3)

(* ------------------------------- engine ----------------------------- *)

type conn_state = {
  idx : int;
  mutex : Mutex.t;  (* guards inflight + this conn's ledger/sample slots *)
  inflight : (int, unit) Hashtbl.t;
  mutable alive : bool;  (* receiver clears on EOF / read error *)
  mutable sent : int;
  mutable reconnects : int;
  samples : float array;  (* client-observed ns, ok replies only *)
  mutable nsamples : int;
  net : Net.t;
}

let value_for bytes v =
  let s = string_of_int v in
  let bytes = max 1 bytes in
  if String.length s >= bytes then String.sub s 0 bytes
  else s ^ String.make (bytes - String.length s) '.'

(* [partition] remaps request [i]'s key so each final key is only ever
   touched by one connection ([k * conns + i mod conns]).  Replies on
   one connection preserve per-key send order (one conn → one serving
   loop, frames run in order), which gives every key a total operation
   order — the precondition for {!verify_recovered}'s windowed check. *)
let key_for p i k = if p.partition then (k * p.conns) + (i mod p.conns) else k

let op_for p (trace : Trace.op array) i =
  match trace.(i) with
  | Trace.Lookup k -> Protocol.Get (key_for p i k)
  | Trace.Insert (k, v) ->
      Protocol.Put (key_for p i k, value_for p.value_bytes v)
  | Trace.Remove k -> Protocol.Remove (key_for p i k)

let requests p =
  let trace = Trace.generate ~seed:p.seed p.profile p.n in
  Array.init p.n (fun i -> op_for p trace i)

let is_ok = function
  | Protocol.Value _ | Protocol.Nil | Protocol.Stored _ | Protocol.Removed
  | Protocol.Pong ->
      true
  | Protocol.Overloaded _ | Protocol.Deadline_exceeded
  | Protocol.Shutting_down | Protocol.Bad_request _ | Protocol.Server_error _
  | Protocol.Read_only ->
      false

(* Receiver thread: one per connection incarnation.  Marks ledger
   entries under the connection mutex; exits (clearing [alive]) on EOF
   or any read error — the sender owns recovery. *)
let receiver cs (ledger : outcome array) (send_ns : int array) fd () =
  let reader = Protocol.Reader.create () in
  let rec loop () =
    Net.maybe_pause_read cs.net;
    match Protocol.Reader.read_frame reader fd with
    | None -> ()
    | Some payload -> (
        match Protocol.decode_reply payload with
        | Error _ -> ()  (* undecodable reply: treat as connection failure *)
        | Ok (id, reply) ->
            Mutex.lock cs.mutex;
            if id >= 1 && id <= Array.length ledger && Hashtbl.mem cs.inflight id
            then begin
              Hashtbl.remove cs.inflight id;
              ledger.(id - 1) <- Replied reply;
              if is_ok reply && cs.nsamples < Array.length cs.samples then begin
                cs.samples.(cs.nsamples) <-
                  float_of_int (Clock.monotonic_ns () - send_ns.(id - 1));
                cs.nsamples <- cs.nsamples + 1
              end
            end;
            Mutex.unlock cs.mutex;
            loop ())
    | exception _ -> ()
  in
  loop ();
  cs.alive <- false

(* Mark everything still in flight on this connection as dropped.
   Call only with the receiver joined (no concurrent marker). *)
let drop_inflight cs ledger =
  Mutex.lock cs.mutex;
  Hashtbl.iter (fun id () -> ledger.(id - 1) <- Dropped) cs.inflight;
  Hashtbl.reset cs.inflight;
  Mutex.unlock cs.mutex

let connect_fd port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () ->
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
      Some fd
  | exception _ ->
      (try Unix.close fd with _ -> ());
      None

let rec connect_retry port tries =
  match connect_fd port with
  | Some fd -> Some fd
  | None ->
      if tries <= 1 then None
      else begin
        Unix.sleepf 0.05;
        connect_retry port (tries - 1)
      end

(* Sender thread for one connection: paces its share of the schedule
   (requests [k] with [k mod conns = idx]) against the global clock,
   owns the connection lifecycle, and accounts every request it could
   not deliver. *)
let sender plan cs ledger send_ns (trace : Trace.op array) ~port ~t0 () =
  let rate = plan.rate in
  let fd = ref (connect_retry port 5) in
  let rthread = ref None in
  let spawn_receiver () =
    match !fd with
    | None -> ()
    | Some d -> rthread := Some (Thread.create (receiver cs ledger send_ns d) ())
  in
  let kill_conn () =
    (match !fd with
    | None -> ()
    | Some d -> ( try Unix.shutdown d Unix.SHUTDOWN_ALL with _ -> ()));
    (match !rthread with None -> () | Some t -> Thread.join t);
    rthread := None;
    (match !fd with
    | None -> ()
    | Some d -> ( try Unix.close d with _ -> ()));
    fd := None;
    cs.alive <- false
  in
  let dead = ref false in
  let reconnect () =
    kill_conn ();
    drop_inflight cs ledger;
    (match connect_retry port 3 with
    | Some d ->
        fd := Some d;
        cs.alive <- true;
        cs.reconnects <- cs.reconnects + 1;
        spawn_receiver ()
    | None ->
        fd := None;
        (* Server unreachable: stop burning reconnect timeouts and
           fast-account the rest of the schedule as drops. *)
        dead := true)
  in
  cs.alive <- !fd <> None;
  if !fd = None then dead := true;
  spawn_receiver ();
  let k = ref cs.idx in
  while !k < plan.n do
    let id = !k + 1 in
    (* Open loop: request k fires at t0 + k/rate, ready or not. *)
    if not !dead then begin
      let target = t0 + int_of_float (float_of_int !k /. rate *. 1e9) in
      let delay = target - Clock.monotonic_ns () in
      if delay > 10_000 then Unix.sleepf (float_of_int delay /. 1e9)
    end;
    if !fd = None && not !dead then reconnect ();
    (match !fd with
    | None ->
        (* Server unreachable: the request cannot even be offered.
           Account it as a connection-level drop, never leave it
           pending. *)
        Mutex.lock cs.mutex;
        ledger.(id - 1) <- Dropped;
        Mutex.unlock cs.mutex
    | Some d ->
        let req =
          {
            Protocol.id;
            deadline_ns = plan.deadline_ns;
            op = op_for plan trace !k;
            trace = ctx_for plan !k;
          }
        in
        let frame = Protocol.encode_request req in
        Mutex.lock cs.mutex;
        send_ns.(id - 1) <- Clock.monotonic_ns ();
        Hashtbl.replace cs.inflight id ();
        Mutex.unlock cs.mutex;
        cs.sent <- cs.sent + 1;
        let delivered = Net.send cs.net d frame in
        if (not delivered) || not cs.alive then reconnect ());
    k := !k + plan.conns
  done;
  (* Linger for stragglers: bounded by the deadline budget plus slack,
     so a wedged server cannot hang the generator. *)
  let linger_s = (float_of_int plan.deadline_ns /. 1e9) +. 2.0 in
  let stop_at = Clock.monotonic_ns () + int_of_float (linger_s *. 1e9) in
  let inflight_left () =
    Mutex.lock cs.mutex;
    let n = Hashtbl.length cs.inflight in
    Mutex.unlock cs.mutex;
    n
  in
  while inflight_left () > 0 && cs.alive && Clock.monotonic_ns () < stop_at do
    Unix.sleepf 0.01
  done;
  let was_alive = cs.alive in
  kill_conn ();
  (* A dead connection accounts its stragglers as drops; a live one
     leaves them pending — that is the silent-drop signal {!verify}
     exists to catch. *)
  if not was_alive then drop_inflight cs ledger

let run ~port plan =
  if plan.n <= 0 || plan.conns <= 0 || plan.rate <= 0.0 then
    invalid_arg "Loadgen.run: n, conns and rate must be positive";
  let trace = Trace.generate ~seed:plan.seed plan.profile plan.n in
  let ledger = Array.make plan.n Pending in
  let send_ns = Array.make plan.n 0 in
  let states =
    Array.init plan.conns (fun idx ->
        {
          idx;
          mutex = Mutex.create ();
          inflight = Hashtbl.create 64;
          alive = false;
          sent = 0;
          reconnects = 0;
          samples = Array.make ((plan.n / plan.conns) + 1) 0.0;
          nsamples = 0;
          net = Net.create ~salt:idx plan.net;
        })
  in
  let t0 = Clock.monotonic_ns () in
  let threads =
    Array.map
      (fun cs ->
        Thread.create (sender plan cs ledger send_ns trace ~port ~t0) ())
      states
  in
  Array.iter Thread.join threads;
  let elapsed = float_of_int (Clock.monotonic_ns () - t0) /. 1e9 in
  let ok = ref 0
  and qf = ref 0
  and lb = ref 0
  and dl = ref 0
  and sd = ref 0
  and ro = ref 0
  and rej = ref 0
  and dropped = ref 0
  and pending = ref 0 in
  Array.iter
    (function
      | Pending -> incr pending
      | Dropped -> incr dropped
      | Replied r -> (
          match r with
          | Protocol.Value _ | Protocol.Nil | Protocol.Stored _
          | Protocol.Removed | Protocol.Pong ->
              incr ok
          | Protocol.Overloaded Protocol.Queue_full -> incr qf
          | Protocol.Overloaded Protocol.Latency_breach -> incr lb
          | Protocol.Deadline_exceeded -> incr dl
          | Protocol.Shutting_down -> incr sd
          | Protocol.Read_only -> incr ro
          | Protocol.Bad_request _ | Protocol.Server_error _ -> incr rej))
    ledger;
  let nsamples = Array.fold_left (fun a cs -> a + cs.nsamples) 0 states in
  let samples = Array.make (max 1 nsamples) 0.0 in
  let off = ref 0 in
  Array.iter
    (fun cs ->
      Array.blit cs.samples 0 samples !off cs.nsamples;
      off := !off + cs.nsamples)
    states;
  let p50, p99 =
    if nsamples = 0 then (0.0, 0.0)
    else (Stats.percentile samples 50.0, Stats.percentile samples 99.0)
  in
  let sent = Array.fold_left (fun a cs -> a + cs.sent) 0 states in
  {
    plan;
    elapsed;
    sent;
    ok = !ok;
    shed_queue_full = !qf;
    shed_latency_breach = !lb;
    deadline_exceeded = !dl;
    shutting_down = !sd;
    read_only = !ro;
    rejected = !rej;
    dropped = !dropped;
    pending = !pending;
    reconnects = Array.fold_left (fun a cs -> a + cs.reconnects) 0 states;
    fault_drops = Array.fold_left (fun a cs -> a + Net.drops cs.net) 0 states;
    fault_lorises =
      Array.fold_left (fun a cs -> a + Net.lorises cs.net) 0 states;
    fault_pauses =
      Array.fold_left (fun a cs -> a + Net.pauses cs.net) 0 states;
    offered_rate = plan.rate;
    achieved_rate = (if elapsed > 0.0 then float_of_int sent /. elapsed else 0.0);
    ok_rate = (if elapsed > 0.0 then float_of_int !ok /. elapsed else 0.0);
    client_p50_ns = p50;
    client_p99_ns = p99;
    outcomes = ledger;
    trace_ids = Array.init plan.n (fun i -> trace_id_for plan i);
  }

(* ------------------------- recovery verification --------------------- *)

(* The windowed per-key check behind the crash-recovery acceptance:
   with [partition] on, every key has a total operation order, so after
   a crash + recovery the recovered binding must be the effect of SOME
   suffix position at or after the last durably-acked operation:

   - the last acked op (ack = ok reply = the WAL fsync covered it) is
     certainly in the recovered log — "every durably-acked op
     survives";
   - unacked ops after it may or may not have reached the disk before
     the kill — each is an admissible final state;
   - nothing else is: a recovered value outside the window means the
     store either lost an acked write or invented one that was never
     sent ("no unacked op invented" for untouched keys: they must
     carry their [base] binding exactly).

   [base] is the store's content when this incarnation started (what
   recovery loaded last time); [bindings] is its content after this
   crash + recovery. *)
let verify_recovered s ~base ~bindings =
  if not s.plan.partition then
    Error "verify_recovered requires plan.partition = true"
  else begin
    let ops = requests s.plan in
    let tbl n l =
      let t = Hashtbl.create (max 16 n) in
      List.iter (fun (k, v) -> Hashtbl.replace t k v) l;
      t
    in
    let base_t = tbl (List.length base) base in
    let bind_t = tbl (List.length bindings) bindings in
    (* Per-key history, oldest first: (effect, durably_acked). *)
    let hist : (int, (string option * bool) list) Hashtbl.t =
      Hashtbl.create 1024
    in
    for i = 0 to s.plan.n - 1 do
      let entry =
        match ops.(i) with
        | Protocol.Put (k, v) -> Some (k, Some v)
        | Protocol.Remove k -> Some (k, None)
        | Protocol.Get _ | Protocol.Ping -> None
      in
      match entry with
      | None -> ()
      | Some (k, eff) ->
          let acked =
            match s.outcomes.(i) with Replied r -> is_ok r | _ -> false
          in
          Hashtbl.replace hist k
            ((eff, acked) :: (try Hashtbl.find hist k with Not_found -> []))
    done;
    let keys = Hashtbl.create 1024 in
    Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) base_t;
    Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) bind_t;
    Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) hist;
    let describe = function
      | Some v -> Printf.sprintf "%S" v
      | None -> "absent"
    in
    let failure = ref None in
    Hashtbl.iter
      (fun k () ->
        if !failure = None then begin
          let actual = Hashtbl.find_opt bind_t k in
          let seq =
            List.rev (try Hashtbl.find hist k with Not_found -> [])
          in
          let admissible =
            if seq = [] then [ Hashtbl.find_opt base_t k ]
            else begin
              (* Effects from the last acked position onward; the base
                 binding joins the window only when nothing was acked. *)
              let effs = List.map fst seq in
              let last_ack = ref (-1) in
              List.iteri
                (fun i (_, acked) -> if acked then last_ack := i)
                seq;
              if !last_ack >= 0 then
                List.filteri (fun i _ -> i >= !last_ack) effs
              else Hashtbl.find_opt base_t k :: effs
            end
          in
          if not (List.mem actual admissible) then
            failure :=
              Some
                (Printf.sprintf
                   "key %d: recovered %s is outside the admissible window \
                    (%d state op(s), %d durably acked, window %s)"
                   k (describe actual) (List.length seq)
                   (List.length
                      (List.filter (fun (_, acked) -> acked) seq))
                   (String.concat ", " (List.map describe admissible)))
        end)
      keys;
    match !failure with Some msg -> Error msg | None -> Ok ()
  end
