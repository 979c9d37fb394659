(* The server child of the kv-* workloads: builds and preloads a store,
   serves it with one worker domain, and on [STOP] drains, measures
   and reports on stdout (see [Proc] for the line protocol).

   Untraced, the server runs the store exactly as the program ships
   it.  Traced, the map is wrapped in [Obs.Timed] (mean cost per call)
   and in [Spanned] (one span per call of a sampled request, keyed by
   the request's trace id), the durable hooks are wrapped to time WAL
   appends and durability-ack waits, and an [Obs.Trace] sink collects
   the server's own stage spans.  Spans stay in memory until [STOP]. *)

module Clock = Ct_util.Clock
module CT = Cachetrie.Make (Ct_util.Hashing.Int_key)
module Trace = Obs.Trace

type store = Map | Durable

type opts = { store : store; seed : int; traced : bool; dir : string }

(* ------------------------- benchmark spans -------------------------- *)

(* A span the benchmark records around a call into a layer: [key] is
   the trace id for map calls and the LSN for WAL calls (the server
   clears the ambient trace context before it appends to the log). *)
type span = { key : int; layer : string; dur_ns : int }

let log_mu = Mutex.create ()
let log : span list ref = ref []

let record key layer dur_ns =
  Mutex.lock log_mu;
  log := { key; layer; dur_ns } :: !log;
  Mutex.unlock log_mu

(* The calls [Kv.Server] makes on its map, each with a span when the
   executing request is sampled. *)
module Spanned (M : Ct_util.Map_intf.CONCURRENT_MAP with type key = int) = struct
  include M

  let[@inline] spanned f =
    let ctx = Trace.current () in
    if Trace.sampled ctx then begin
      let t0 = Clock.monotonic_ns () in
      let r = f () in
      record (Trace.id ctx) "map" (Clock.monotonic_ns () - t0);
      r
    end
    else f ()

  let lookup t k = spanned (fun () -> M.lookup t k)
  let add t k v = spanned (fun () -> M.add t k v)
  let remove t k = spanned (fun () -> M.remove t k)
end

(* Mean nanoseconds per call of the WAL append hook, and every
   subscribe-to-callback wait, in traced runs. *)
let append_sum = Atomic.make 0
let append_n = Atomic.make 0
let ack_waits = Pctl.buf ()

let traced_hooks (h : Kv.Server.durable) =
  {
    h with
    Kv.Server.d_append =
      (fun op ->
        let t0 = Clock.monotonic_ns () in
        let r = h.Kv.Server.d_append op in
        let dt = Clock.monotonic_ns () - t0 in
        ignore (Atomic.fetch_and_add append_sum dt);
        Atomic.incr append_n;
        (match r with Ok lsn -> record lsn "wal" dt | Error _ -> ());
        r);
    d_subscribe =
      (fun ~lsn ~deadline_ns cb ->
        let t0 = Clock.monotonic_ns () in
        h.Kv.Server.d_subscribe ~lsn ~deadline_ns (fun ack ->
            let dt = Clock.monotonic_ns () - t0 in
            Mutex.lock log_mu;
            Pctl.push ack_waits dt;
            Mutex.unlock log_mu;
            cb ack));
  }

(* ------------------------------ serving ----------------------------- *)

module type SERVED = sig
  module M : Ct_util.Map_intf.CONCURRENT_MAP with type key = int

  val map : string M.t
end

type running = {
  port : int;
  drain : unit -> bool;
  latency : Obs.Latency.t;
  stats : unit -> (string * int) list;
}

(* Every [Kv.Server.Make ... start] of the benchmark goes through here. *)
let serve ?durable (module X : SERVED) =
  let module S = Kv.Server.Make (X.M) in
  let s = S.start ~config:(Kvplan.server_config ()) ?durable X.map in
  {
    port = S.port s;
    drain = (fun () -> S.drain ~timeout:30.0 s);
    latency = S.latency s;
    stats = (fun () -> S.stats s);
  }

(* What a store reports after the drain: (name, value) pairs. *)
type store_handle = {
  served : (module SERVED);
  durable : Kv.Server.durable option;
  timed : (string * Obs.Latency.t) list;  (** [Obs.Timed] histograms *)
  metrics : unit -> Ct_util.Metrics.t;
  finish : unit -> (string * float) list;
  extra : (string * float) list;  (** set-up facts, e.g. recovery time *)
}

(* The map as served: plain, or wrapped for a traced run. *)
module Served_of (M : Ct_util.Map_intf.CONCURRENT_MAP with type key = int) = struct
  let make ~traced (map : string M.t) =
    if traced then begin
      let module T = Obs.Timed.Make (M) in
      let tm = T.of_map map in
      ( (module struct
          module M = Spanned (T)

          let map = tm
        end : SERVED),
        T.latencies tm )
    end
    else
      ( (module struct
          module M = M

          let map = map
        end : SERVED),
        [] )
end

let preload ~seed insert =
  for k = 0 to Kvplan.keys - 1 do
    insert k (Kvplan.value_of ~seed k 0)
  done

let map_store o =
  let m = CT.create () in
  preload ~seed:o.seed (CT.insert m);
  let module F = Served_of (CT) in
  let served, timed = F.make ~traced:o.traced m in
  let finish () =
    let live = CT.size m in
    let user = Disk.user_bytes CT.fold m in
    let value_words = CT.fold (fun acc _ v -> acc + Obj.reachable_words (Obj.repr v)) 0 m in
    let fp = CT.footprint_words m in
    [
      ("live", float_of_int live);
      ("user_bytes", float_of_int user);
      ("stored_bytes", float_of_int (8 * (fp + value_words)));
      ("footprint_bytes", float_of_int (8 * fp));
    ]
  in
  { served; durable = None; timed; metrics = (fun () -> CT.metrics m); finish; extra = [] }

let ok_or_fail what = function
  | Ok x -> x
  | Error _ -> failwith (what ^ " failed")

let open_store dir =
  match Kv.Durable.open_ ~dir () with
  | Ok (st, _) -> st
  | Error e -> failwith ("open: " ^ Persist.Recovery.error_to_string e)

let durable_store o =
  (* Preload through the log exactly as the server writes (apply, then
     append), close, and recover: set-up includes the store's own
     recovery path. *)
  let st = open_store o.dir in
  let m = Kv.Durable.map st and wal = Kv.Durable.wal st in
  preload ~seed:o.seed (fun k v ->
      Kv.Durable.Map.insert m k v;
      ignore (ok_or_fail "append" (Persist.Wal.append wal (Persist.Wal.Put (k, v)))));
  ok_or_fail "flush" (Persist.Wal.flush wal);
  ok_or_fail "close" (Kv.Durable.close st);
  let t0 = Clock.monotonic_ns () in
  let st = open_store o.dir in
  let recovery_s = float_of_int (Clock.monotonic_ns () - t0) /. 1e9 in
  let m = Kv.Durable.map st in
  let module F = Served_of (Kv.Durable.Map) in
  let served, timed = F.make ~traced:o.traced m in
  let hooks = Kv.Durable.hooks st in
  let finish () =
    let live = Kv.Durable.Map.size m in
    let user = Disk.user_bytes Kv.Durable.Map.fold m in
    ok_or_fail "close" (Kv.Durable.close st);
    let d = Disk.measure o.dir in
    [
      ("live", float_of_int live);
      ("user_bytes", float_of_int user);
      ("stored_bytes", float_of_int (Disk.total d));
      ("wal_bytes", float_of_int d.Disk.wal_bytes);
      ("ckpt_bytes", float_of_int d.Disk.ckpt_bytes);
    ]
  in
  {
    served;
    durable = Some (if o.traced then traced_hooks hooks else hooks);
    timed;
    metrics = (fun () -> Kv.Durable.metrics st);
    finish;
    extra = [ ("recovery_s", recovery_s) ];
  }

(* ------------------------------ reporting --------------------------- *)

let counters =
  Ct_util.Metrics.
    [ Cas_retries; Cache_hits; Cache_misses; Wal_appends; Wal_fsyncs; Checkpoints ]

let counter_values m = List.map (fun c -> (c, Ct_util.Metrics.get m c)) counters

let stage_durs spans stage =
  List.filter_map
    (fun (s : Trace.span) -> if s.Trace.stage = stage then Some s.Trace.dur_ns else None)
    spans

(* One [SPAN] line per sampled request whose root span survived:
   the server's stage durations and the benchmark's own spans, joined
   on trace id (map) and LSN (WAL), all in ns, 0 when absent. *)
let span_lines sink =
  let by_key layer =
    let h = Hashtbl.create 1024 in
    List.iter (fun s -> if s.layer = layer then Hashtbl.replace h s.key s.dur_ns) !log;
    h
  in
  let map_spans = by_key "map" and wal_spans = by_key "wal" in
  let trees = Hashtbl.create 1024 in
  List.iter
    (fun (s : Trace.span) ->
      if s.Trace.trace_id <> 0 then
        Hashtbl.replace trees s.Trace.trace_id
          (s :: Option.value ~default:[] (Hashtbl.find_opt trees s.Trace.trace_id)))
    (Trace.spans sink);
  Hashtbl.fold
    (fun id spans acc ->
      let get stage =
        match List.find_opt (fun (s : Trace.span) -> s.Trace.stage = stage) spans with
        | Some s -> s
        | None -> { (List.hd spans) with Trace.dur_ns = 0; a = 0 }
      in
      let req = get Trace.Request in
      if req.Trace.dur_ns = 0 then acc
      else
        let wal_append = get Trace.Wal_append in
        let find h k = Option.value ~default:0 (Hashtbl.find_opt h k) in
        let wal = if wal_append.Trace.dur_ns > 0 then find wal_spans wal_append.Trace.a else 0 in
        Printf.sprintf "SPAN %d %d %d %d %d %d %d %d %d %d" id
          (get Trace.Admission).Trace.dur_ns req.Trace.dur_ns
          (get Trace.Queue_wait).Trace.dur_ns (get Trace.Exec).Trace.dur_ns
          (get Trace.Map_op).Trace.dur_ns wal_append.Trace.dur_ns
          (get Trace.Fsync_wait).Trace.dur_ns (find map_spans id) wal
        :: acc)
    trees []

let p50_us l = Pctl.us_of_sorted (Pctl.sorted_copy (Array.of_list l)) 50.0

let main o =
  let sink = if o.traced then Some (Trace.create ~size:(1 lsl 16) ()) else None in
  Option.iter Trace.install sink;
  let h = match o.store with Map -> map_store o | Durable -> durable_store o in
  let srv = serve ?durable:h.durable h.served in
  let m = h.metrics () in
  let c0 = counter_values m in
  let gc0 = Gc.quick_stat () in
  let cpu0 = Proc.own_cpu () in
  Printf.printf "READY %d\n%!" srv.port;
  (try ignore (input_line stdin) with End_of_file -> ());
  let cpu1 = Proc.own_cpu () in
  let gc1 = Gc.quick_stat () in
  let c1 = counter_values m in
  let flushed = srv.drain () in
  let out name v = Printf.printf "STAT %s %.17g\n" name v in
  out "cpu_s" (cpu1 -. cpu0);
  out "cpu_total_s" cpu1;
  (let t = Unix.times () in
   out "utime_s" t.Unix.tms_utime;
   out "stime_s" t.Unix.tms_stime);
  out "flushed" (if flushed then 1.0 else 0.0);
  out "minor_words" (gc1.Gc.minor_words -. gc0.Gc.minor_words);
  out "minor_collections" (float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
  out "major_collections" (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
  List.iter2
    (fun (c, a) (_, b) -> out ("ctr." ^ Ct_util.Metrics.label c) (float_of_int (b - a)))
    c0 c1;
  List.iter (fun (l, v) -> out ("srv." ^ l) (float_of_int v)) (srv.stats ());
  out "accepted_p50_us"
    (if Obs.Latency.total srv.latency = 0 then 0.0
     else Obs.Latency.percentile srv.latency 50.0 /. 1e3);
  List.iter
    (fun (l, lat) ->
      out ("timed." ^ l ^ ".n") (float_of_int (Obs.Latency.total lat));
      out ("timed." ^ l ^ ".sum_ns") (float_of_int (Obs.Latency.sum_ns lat)))
    h.timed;
  (match sink with
  | Some sink ->
      let spans = Trace.spans sink in
      out "queue_wait_p50_us" (p50_us (stage_durs spans Trace.Queue_wait));
      out "exec_p50_us" (p50_us (stage_durs spans Trace.Exec));
      out "fsync_p50_us" (p50_us (stage_durs spans Trace.Wal_fsync));
      let n = Atomic.get append_n in
      out "wal_append_ns"
        (if n = 0 then 0.0 else float_of_int (Atomic.get append_sum) /. float_of_int n);
      out "ack_wait_p50_us" (Pctl.us_of_sorted (Pctl.concat [ ack_waits ]) 50.0);
      List.iter print_endline (span_lines sink)
  | None -> ());
  List.iter (fun (k, v) -> out k v) h.extra;
  List.iter (fun (k, v) -> out k v) (h.finish ());
  print_endline "END";
  flush stdout

let run args =
  let o = ref { store = Map; seed = 1; traced = false; dir = "" } in
  let rec parse = function
    | "--store" :: "map" :: r -> o := { !o with store = Map }; parse r
    | "--store" :: "durable" :: r -> o := { !o with store = Durable }; parse r
    | "--seed" :: s :: r -> o := { !o with seed = int_of_string s }; parse r
    | "--traced" :: s :: r -> o := { !o with traced = s = "1" }; parse r
    | "--dir" :: d :: r -> o := { !o with dir = d }; parse r
    | [] -> ()
    | a :: _ -> failwith ("serve: bad argument " ^ a)
  in
  parse args;
  main !o
