(* Entry point of the stack benchmark.

     main.exe run --workload W --seed N --seconds S --trace 0|1
     main.exe serve ...            (the server child of kv-* workloads)

   An untraced run sets the workload up several times (reporting the
   median set-up time), measures for S seconds and prints the
   end-to-end metrics.  A traced run measures S/2 seconds untraced and
   then S/2 seconds with the benchmark's timers and wrappers on, each
   on a fresh set-up, and prints the per-layer metrics, the layers'
   self times and the tracing overhead.  Every run checks the outputs;
   a failed check prints "correct": false and exits 1. *)

open Pbench
module Clock = Ct_util.Clock
module CT = Inproc.CT
module M = Ct_util.Metrics

let now_s () = float_of_int (Clock.monotonic_ns ()) /. 1e9

(* Set-ups per untraced run; the median is reported. *)
let setups = 9

(* Every run first idles this long.  Right after a run that kept both
   vCPUs busy, kv-read's server CPU per op read 22-23 us; after a 5 s
   pause it read 12-15 us, as after a kv-read run. *)
let settle_s = 5.0

let median l = Ct_util.Stats.percentile (Array.of_list l) 50.0

(* Set up [n] times, timing each and keeping only the last; the
   previous set-up is released and collected before the next starts. *)
let repeat_setup n f =
  let times = ref [] and last = ref None in
  for _ = 1 to n do
    last := None;
    Gc.compact ();
    let t0 = now_s () in
    let x = f () in
    times := (now_s () -. t0) :: !times;
    last := Some x
  done;
  Out.info "setup_s %s" (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !times));
  (List.rev !times, Option.get !last)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

let p_us sorted p = Pctl.us_of_sorted sorted p

let print_tail ~what sorted =
  let n = Array.length sorted in
  Out.info "%s p50_us=%.3f p90_us=%.3f p99_us=%.3f p999_us=%.3f n=%d%s" what (p_us sorted 50.0)
    (p_us sorted 90.0) (p_us sorted 99.0) (p_us sorted 99.9) n
    (if n >= 10_000 then "" else if n >= 1000 then " (p999: fewer than 10 samples beyond)"
     else " (p99, p999: fewer than 10 samples beyond)")

let print_self rows =
  List.iter (fun (layer, v, unit) -> Out.info "self %-14s %10.3f %s" layer v unit) rows

(* --------------------------- in-process ---------------------------- *)

let lat_mean lats label =
  match List.assoc_opt label lats with
  | Some l -> Out.ratio (float_of_int (Obs.Latency.sum_ns l)) (float_of_int (Obs.Latency.total l))
  | None -> 0.0

let gc_values ~ops ~minor_words ~minor ~major =
  [
    ("gc.minor_words_per_op", Out.ratio minor_words (float_of_int ops));
    ("gc.minor_collections_per_kop", Out.per_kop (float_of_int minor) ops);
    ("gc.major_collections_per_kop", Out.per_kop (float_of_int major) ops);
  ]

let inproc_common (ph : Inproc.phase) =
  let st = ph.Inproc.states in
  let ops = Inproc.total (fun s -> s.Inproc.ops) st in
  let reads = Pctl.concat (Array.to_list (Array.map (fun s -> s.Inproc.read_ns) st)) in
  let writes = Pctl.concat (Array.to_list (Array.map (fun s -> s.Inproc.write_ns) st)) in
  let wrong = Inproc.total (fun s -> s.Inproc.wrong) st in
  let minor_words = Array.fold_left (fun a s -> a +. s.Inproc.minor_words) 0.0 st in
  Out.info "ops=%d wall_s=%.3f cpu_s=%.3f wrong=%d" ops
    (float_of_int ph.Inproc.wall_ns /. 1e9) ph.Inproc.cpu_s wrong;
  print_tail ~what:"read" reads;
  print_tail ~what:"write" writes;
  (ops, reads, writes, wrong, minor_words)

let inproc_e2e ~setup_s ~ph ~hit_frac ~stored ~checks_ok =
  let ops, _, _, wrong, _ = inproc_common ph in
  {
    correct = checks_ok && wrong = 0;
    attempted = ops;
    failed = wrong;
    values =
      [
        ("setup_s", setup_s);
        ("ok_frac", float_of_int (ops - wrong) /. float_of_int ops);
        ("cpu_us_per_op", ph.Inproc.cpu_s *. 1e6 /. float_of_int ops);
        ("hit_frac", hit_frac);
        ("stored_bytes_per_user_byte", stored);
      ];
  }

(* In-process workloads have no open-loop driver; their client tail is
   the tail of their own sampled op latencies. *)
let inproc_tail reads writes =
  [
    ("client.read_p50_us", p_us reads 50.0);
    ("client.write_p50_us", p_us writes 50.0);
    ("client.read_p90_us", p_us reads 90.0);
    ("client.read_p99_us", p_us reads 99.0);
    ("client.read_p999_us", p_us reads 99.9);
  ]

let check what = function
  | Ok () -> true
  | Error msg ->
      Out.info "CHECK FAILED %s: %s" what msg;
      false

let check_count what n =
  if n <> 0 then Out.info "CHECK FAILED %s: %d" what n;
  n = 0

let mm_stored m = float_of_int (8 * CT.footprint_words m) /. float_of_int (16 * CT.size m)

let mm_hit_frac ph =
  let st = ph.Inproc.states in
  Out.ratio
    (float_of_int (Inproc.total (fun s -> s.Inproc.hits) st))
    (float_of_int (Inproc.total (fun s -> s.Inproc.reads) st))

let mm_checks ~seed m ph =
  let v = check "validate" (CT.validate m) in
  v && check_count "map-mixed keys differing from the replayed writes" (Inproc.mm_check ~seed m ph.Inproc.states)

let map_mixed ~seed ~seconds =
  let times, m = repeat_setup setups (fun () -> Inproc.mm_setup ~seed) in
  let states = Array.init Inproc.domains (Inproc.dstate ~seed) in
  let ph = Inproc.Mixed_plain.run m states ~seconds in
  Out.info "live_keys=%d" (CT.size m);
  inproc_e2e ~setup_s:(median times) ~ph ~hit_frac:(mm_hit_frac ph) ~stored:(mm_stored m)
    ~checks_ok:(mm_checks ~seed m ph)

let cpu_per_op (ph : Inproc.phase) =
  ph.Inproc.cpu_s *. 1e6 /. float_of_int (Inproc.total (fun s -> s.Inproc.ops) ph.Inproc.states)

let map_mixed_traced ~seed ~seconds =
  let half = seconds /. 2.0 in
  let m = Inproc.mm_setup ~seed in
  let a = Inproc.Mixed_plain.run m (Array.init Inproc.domains (Inproc.dstate ~seed)) ~seconds:half in
  let ok_a = mm_checks ~seed m a in
  let m = Inproc.mm_setup ~seed in
  let module TT = Obs.Timed.Make (CT) in
  let module MT = Inproc.Mixed (TT) in
  let tm = TT.of_map m in
  let c0 = CT.stats m in
  let b = MT.run tm (Array.init Inproc.domains (Inproc.dstate ~seed)) ~seconds:half in
  let c1 = CT.stats m in
  let ok_b = mm_checks ~seed m b in
  let ops, reads, writes, wrong, minor_words = inproc_common b in
  let ctr k = float_of_int (List.assoc k c1 - List.assoc k c0) in
  let lats = TT.latencies tm in
  let map_ns =
    List.fold_left (fun a (_, l) -> a +. float_of_int (Obs.Latency.sum_ns l)) 0.0 lats
    /. float_of_int ops
  in
  let busy_ns =
    float_of_int (Inproc.total (fun s -> s.Inproc.t_end - s.Inproc.t_start) b.Inproc.states)
    /. float_of_int ops
  in
  print_self [ ("cachetrie", map_ns, "ns/op"); ("loop", busy_ns -. map_ns, "ns/op") ];
  let overhead = (cpu_per_op b /. cpu_per_op a) -. 1.0 in
  Out.info "trace_overhead_frac=%.4f (untraced %.4f us/op, traced %.4f us/op)" overhead
    (cpu_per_op a) (cpu_per_op b);
  {
    correct = ok_a && ok_b && wrong = 0;
    attempted = ops + Inproc.total (fun s -> s.Inproc.ops) a.Inproc.states;
    failed = wrong + Inproc.total (fun s -> s.Inproc.wrong) a.Inproc.states;
    values =
      [
        ("cachetrie.find_ns", lat_mean lats "read");
        ("cachetrie.insert_ns", lat_mean lats "insert");
        ("cachetrie.remove_ns", lat_mean lats "remove");
        ("cachetrie.cas_retries_per_kop", Out.per_kop (ctr "cas_retries") ops);
        ( "cachetrie.cache_miss_frac",
          Out.ratio (ctr "cache_misses") (ctr "cache_misses" +. ctr "cache_hits") );
        ( "cachetrie.footprint_bytes_per_key",
          float_of_int (8 * CT.footprint_words m) /. float_of_int (CT.size m) );
        ("trace_overhead_frac", overhead);
      ]
      @ inproc_tail reads writes
      @ gc_values ~ops ~minor_words ~minor:b.Inproc.minor_collections
          ~major:b.Inproc.major_collections;
  }

let cz_checks (stats : Cache.stats) validate =
  let v = check "cache validate" validate in
  let b =
    check "used_words <= budget"
      (if stats.Cache.used_words <= Inproc.cz_budget then Ok ()
       else Error (Printf.sprintf "%d > %d" stats.Cache.used_words Inproc.cz_budget))
  in
  v && b

let cz_hit_frac (s0 : Cache.stats) (s1 : Cache.stats) =
  let h = float_of_int (s1.Cache.hits - s0.Cache.hits)
  and m = float_of_int (s1.Cache.misses - s0.Cache.misses) in
  Out.ratio h (h +. m)

let cz_stored (s : Cache.stats) =
  float_of_int (8 * s.Cache.used_words)
  /. float_of_int (s.Cache.resident * (8 + Inproc.cz_value_bytes))

let cache_zipf ~seed ~seconds =
  let module Z = Inproc.Zipf_plain in
  let times, (data, tier) =
    repeat_setup setups (fun () ->
        let data = Inproc.cz_data ~seed in
        (data, Z.setup data))
  in
  let states = Array.init Inproc.domains (Inproc.dstate ~seed) in
  let s0 = Z.stats tier in
  let ph = Z.run ~traced:false data tier states ~seconds in
  let s1 = Z.stats tier in
  Out.info "resident=%d used_words=%d evictions=%d" s1.Cache.resident s1.Cache.used_words
    (s1.Cache.evictions - s0.Cache.evictions);
  inproc_e2e ~setup_s:(median times) ~ph ~hit_frac:(cz_hit_frac s0 s1) ~stored:(cz_stored s1)
    ~checks_ok:(cz_checks s1 (Z.validate tier))

let cache_zipf_traced ~seed ~seconds =
  let half = seconds /. 2.0 in
  let data = Inproc.cz_data ~seed in
  let module Z = Inproc.Zipf_plain in
  let tier = Z.setup data in
  let a = Z.run ~traced:false data tier (Array.init Inproc.domains (Inproc.dstate ~seed)) ~seconds:half in
  let ok_a = cz_checks (Z.stats tier) (Z.validate tier) in
  let module ZT = Inproc.Zipf_timed in
  let data = Inproc.cz_data ~seed in
  Inproc.Timed_ct.made := [];
  let tier = ZT.setup data in
  let inner = List.hd !Inproc.Timed_ct.made in
  let s0 = ZT.stats tier and m0 = M.snapshot inner.Inproc.metrics in
  let b = ZT.run ~traced:true data tier (Array.init Inproc.domains (Inproc.dstate ~seed)) ~seconds:half in
  let s1 = ZT.stats tier and m1 = M.snapshot inner.Inproc.metrics in
  let ok_b = cz_checks s1 (ZT.validate tier) in
  let ops, reads, writes, wrong, minor_words = inproc_common b in
  let st = b.Inproc.states in
  let sum f = float_of_int (Inproc.total f st) in
  let ctr k = float_of_int (List.assoc k m1 - List.assoc k m0) in
  let lats = inner.Inproc.lats in
  let inner_ns = List.fold_left (fun a (_, l) -> a +. float_of_int (Obs.Latency.sum_ns l)) 0.0 lats in
  let tier_ns = sum (fun s -> s.Inproc.tier_ns) +. sum (fun s -> s.Inproc.put_ns) in
  let load_ns = sum (fun s -> s.Inproc.load_ns) in
  let busy_ns = sum (fun s -> s.Inproc.t_end - s.Inproc.t_start) in
  let per_op x = x /. float_of_int ops in
  print_self
    [
      ("cache", per_op (tier_ns -. load_ns -. inner_ns), "ns/op");
      ("cachetrie", per_op inner_ns, "ns/op");
      ("load", per_op load_ns, "ns/op");
      ("loop", per_op (busy_ns -. tier_ns), "ns/op");
    ];
  let overhead = (cpu_per_op b /. cpu_per_op a) -. 1.0 in
  Out.info "trace_overhead_frac=%.4f (untraced %.4f us/op, traced %.4f us/op)" overhead
    (cpu_per_op a) (cpu_per_op b);
  {
    correct = ok_a && ok_b && wrong = 0;
    attempted = ops + Inproc.total (fun s -> s.Inproc.ops) a.Inproc.states;
    failed = wrong + Inproc.total (fun s -> s.Inproc.wrong) a.Inproc.states;
    values =
      [
        ("cachetrie.find_ns", lat_mean lats "read");
        ("cachetrie.insert_ns", lat_mean lats "insert");
        ("cachetrie.remove_ns", lat_mean lats "remove");
        ("cachetrie.cas_retries_per_kop", Out.per_kop (ctr "cas_retries") ops);
        ( "cachetrie.cache_miss_frac",
          Out.ratio (ctr "cache_misses") (ctr "cache_misses" +. ctr "cache_hits") );
        ( "cachetrie.footprint_bytes_per_key",
          Out.ratio (float_of_int (8 * inner.Inproc.footprint_words ())) (float_of_int s1.Cache.resident) );
        ("cache.get_or_load_ns", Out.ratio (sum (fun s -> s.Inproc.tier_ns)) (sum (fun s -> s.Inproc.tier_calls)));
        ("cache.put_ns", Out.ratio (sum (fun s -> s.Inproc.put_ns)) (sum (fun s -> s.Inproc.put_calls)));
        ("cache.evictions_per_kop", Out.per_kop (float_of_int (s1.Cache.evictions - s0.Cache.evictions)) ops);
        ("cache.rejections_per_kop", Out.per_kop (float_of_int (s1.Cache.rejections - s0.Cache.rejections)) ops);
        ("cache.used_frac", float_of_int s1.Cache.used_words /. float_of_int Inproc.cz_budget);
        ("trace_overhead_frac", overhead);
      ]
      @ inproc_tail reads writes
      @ gc_values ~ops ~minor_words ~minor:b.Inproc.minor_collections
          ~major:b.Inproc.major_collections;
  }

(* ------------------------------ server ------------------------------ *)

let tmp_root = ".perfbench_tmp"
let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Filename.concat tmp_root (Printf.sprintf "%d-%d" (Unix.getpid ()) !dir_counter)

let print_counts (p : Kvrun.phase) =
  Out.info "replies %s"
    (String.concat " "
       (Array.to_list (Array.mapi (fun i l -> Printf.sprintf "%s=%d" l p.Kvrun.counts.(i)) Kvrun.labels)))

let late_us (p : Kvrun.phase) q = p_us p.Kvrun.late_ns q

let quiet_us samples p = float_of_int (Pctl.quiet samples p) /. 1e3

let print_kv (p : Kvrun.phase) =
  print_counts p;
  print_tail ~what:"read" p.Kvrun.read_ns;
  print_tail ~what:"write" p.Kvrun.write_ns;
  Out.info "quiet windows: read p50_us=%.3f p90_us=%.3f write p50_us=%.3f"
    (quiet_us p.Kvrun.read_at 50.0) (quiet_us p.Kvrun.read_at 90.0) (quiet_us p.Kvrun.write_at 50.0);
  Out.info "driver late p50_us=%.1f p99_us=%.1f max_us=%.1f n=%d" (late_us p 50.0) (late_us p 99.0)
    (late_us p 100.0) (Array.length p.Kvrun.late_ns);
  if late_us p 99.0 > 1000.0 || late_us p 100.0 > 50_000.0 then
    Out.info "FLAG driver fell behind its schedule (host stall?): p99 %.0f us, max %.0f us"
      (late_us p 99.0) (late_us p 100.0);
  Out.info "server cpu_s=%.3f (reaped child total %.3f s, user %.3f s, system %.3f s) flushed=%g"
    (Kvrun.stat p "cpu_s") p.Kvrun.child_cpu_s (Kvrun.stat p "utime_s") (Kvrun.stat p "stime_s")
    (Kvrun.stat p "flushed")

let kv_ok (p : Kvrun.phase) =
  let c = p.Kvrun.counts in
  check_count "wrong replies" c.(Kvrun.l_wrong)
  && check_count "acked writes missing after reopen" p.Kvrun.store_bad
  && check "server child exit" (if p.Kvrun.child_ok then Ok () else Error "nonzero exit")
  && check "server drain" (if Kvrun.stat p "flushed" = 1.0 then Ok () else Error "not flushed")

let kv_cpu_per_op (p : Kvrun.phase) = Kvrun.stat p "cpu_s" *. 1e6 /. float_of_int p.Kvrun.attempted

let kv ~exe ~workload ~seed ~seconds =
  let pre = List.init (setups - 1) (fun _ -> Kvrun.setup_only ~exe ~workload ~seed ~dir:(fresh_dir ())) in
  let p = Kvrun.phase ~exe ~workload ~seed ~traced:false ~seconds ~dir:(fresh_dir ()) in
  let times = pre @ [ p.Kvrun.setup_s ] in
  Out.info "setup_s %s" (String.concat " " (List.map (Printf.sprintf "%.3f") times));
  print_kv p;
  let ok = p.Kvrun.counts.(0) in
  let gets_ok = Array.length p.Kvrun.read_ns in
  {
    correct = kv_ok p;
    attempted = p.Kvrun.attempted;
    failed = p.Kvrun.attempted - ok;
    values =
      [
        ("setup_s", median times);
        ("ok_frac", float_of_int ok /. float_of_int p.Kvrun.attempted);
        ("cpu_us_per_op", kv_cpu_per_op p);
        ("hit_frac", Out.ratio (float_of_int p.Kvrun.value_replies) (float_of_int gets_ok));
        ("stored_bytes_per_user_byte", Kvrun.stat p "stored_bytes" /. Kvrun.stat p "user_bytes");
      ];
  }

(* Per-request self times from the sampled span trees: each layer's
   span minus the spans nested in it, joined with the driver's own
   due-to-reply latency for the part outside the server. *)
let kv_self (p : Kvrun.phase) =
  let cols = [| "admission"; "request"; "queue_wait"; "exec"; "map_op"; "wal_append"; "fsync_wait"; "map"; "wal" |] in
  let col name = let rec f i = if cols.(i) = name then i else f (i + 1) in f 0 in
  let rows = ref [] in
  let add layer f =
    let xs =
      List.filter_map
        (fun (id, a) ->
          match f id a with Some v -> Some (float_of_int v /. 1e3) | None -> None)
        p.Kvrun.spans
    in
    if xs <> [] then rows := (layer, median xs, Printf.sprintf "us p50 (n=%d)" (List.length xs)) :: !rows
  in
  let g a name = a.(col name) in
  add "outside" (fun id a ->
      Option.map (fun c -> c - g a "request" - g a "admission") (Hashtbl.find_opt p.Kvrun.client_ns id));
  add "admission" (fun _ a -> Some (g a "admission"));
  add "queue_wait" (fun _ a -> Some (g a "queue_wait"));
  add "exec" (fun _ a -> Some (g a "exec" - g a "map_op" - g a "wal_append"));
  add "map_op" (fun _ a -> if g a "map" > 0 then Some (g a "map_op" - g a "map") else None);
  add "map" (fun _ a -> if g a "map" > 0 then Some (g a "map") else None);
  add "wal_append" (fun _ a -> if g a "wal" > 0 then Some (g a "wal_append" - g a "wal") else None);
  add "wal" (fun _ a -> if g a "wal" > 0 then Some (g a "wal") else None);
  add "fsync_wait" (fun _ a -> if g a "fsync_wait" > 0 then Some (g a "fsync_wait") else None);
  let rows = List.rev !rows in
  print_self rows;
  rows

let kv_traced ~exe ~workload ~seed ~seconds =
  let half = seconds /. 2.0 in
  let a = Kvrun.phase ~exe ~workload ~seed ~traced:false ~seconds:half ~dir:(fresh_dir ()) in
  let b = Kvrun.phase ~exe ~workload ~seed ~traced:true ~seconds:half ~dir:(fresh_dir ()) in
  print_kv b;
  let self = kv_self b in
  let st = Kvrun.stat b in
  let ops = b.Kvrun.attempted in
  let timed label = Out.ratio (st ("timed." ^ label ^ ".sum_ns")) (st ("timed." ^ label ^ ".n")) in
  let map_read = timed "read" in
  let map_write =
    Out.ratio
      (st "timed.insert.sum_ns" +. st "timed.remove.sum_ns")
      (st "timed.insert.n" +. st "timed.remove.n")
  in
  let is_read = workload = Kvrun.Read in
  let only c v = if c then v else 0.0 in
  let r = b.Kvrun.run in
  let dec_req, enc_rep = Kvrun.replay_codec r in
  let overhead = (kv_cpu_per_op b /. kv_cpu_per_op a) -. 1.0 in
  Out.info "trace_overhead_frac=%.4f (untraced %.3f us/op, traced %.3f us/op)" overhead
    (kv_cpu_per_op a) (kv_cpu_per_op b);
  let accepted = st "accepted_p50_us" in
  let ok = b.Kvrun.counts.(0) + a.Kvrun.counts.(0) in
  let attempted = a.Kvrun.attempted + b.Kvrun.attempted in
  let user = st "user_bytes" in
  {
    correct = kv_ok a && kv_ok b;
    attempted;
    failed = attempted - ok;
    values =
      [
        ("cachetrie.find_ns", only is_read map_read);
        ("cachetrie.insert_ns", only is_read (timed "insert"));
        ("cachetrie.remove_ns", only is_read (timed "remove"));
        ("cachetrie.cas_retries_per_kop", only is_read (Out.per_kop (st "ctr.cas_retries") ops));
        ( "cachetrie.cache_miss_frac",
          only is_read
            (Out.ratio (st "ctr.cache_misses") (st "ctr.cache_misses" +. st "ctr.cache_hits")) );
        ("cachetrie.footprint_bytes_per_key", only is_read (Out.ratio (st "footprint_bytes") (st "live")));
        ("protocol.encode_request_ns", Out.ratio (float_of_int r.Kvrun.enc_ns) (float_of_int r.Kvrun.ol.Openloop.sent));
        ("protocol.decode_reply_ns", Out.ratio (float_of_int r.Kvrun.dec_ns) (float_of_int r.Kvrun.decoded));
        ("protocol.decode_request_ns", dec_req);
        ("protocol.encode_reply_ns", enc_rep);
        ("protocol.bytes_per_op", float_of_int (r.Kvrun.bytes_out + r.Kvrun.bytes_in) /. float_of_int ops);
        ("server.accepted_p50_us", accepted);
        ("server.queue_wait_p50_us", st "queue_wait_p50_us");
        ("server.exec_p50_us", st "exec_p50_us");
        ("server.map_read_ns", map_read);
        ("server.map_write_ns", map_write);
        ( "server.sheds_per_kop",
          Out.per_kop (st "srv.shed_queue_full" +. st "srv.shed_latency_breach" +. st "srv.shed_shutdown") ops );
        ( "server.outside_p50_us",
          match List.find_opt (fun (l, _, _) -> l = "outside") self with
          | Some (_, v, _) -> v
          | None -> 0.0 );
        ("wal.append_ns", st "wal_append_ns");
        ("wal.ack_wait_p50_us", st "ack_wait_p50_us");
        ("wal.fsync_p50_us", st "fsync_p50_us");
        ("wal.appends_per_fsync", Out.ratio (st "ctr.wal_appends") (st "ctr.wal_fsyncs"));
        ("wal.bytes_per_user_byte", only (not is_read) (Out.ratio (st "wal_bytes") user));
        ("checkpoint.per_kop", Out.per_kop (st "ctr.checkpoints") ops);
        ("checkpoint.bytes_per_user_byte", only (not is_read) (Out.ratio (st "ckpt_bytes") user));
        ("recovery_s", st "recovery_s");
        ("ctrie_snap.read_ns", only (not is_read) map_read);
        ("ctrie_snap.write_ns", only (not is_read) map_write);
        ("gen.late_p99_us", late_us b 99.0);
        ("gen.late_max_us", late_us b 100.0);
        ("client.read_p50_us", quiet_us b.Kvrun.read_at 50.0);
        ("client.write_p50_us", quiet_us b.Kvrun.write_at 50.0);
        ("client.read_p90_us", quiet_us b.Kvrun.read_at 90.0);
        ("client.read_p99_us", p_us b.Kvrun.read_ns 99.0);
        ("client.read_p999_us", p_us b.Kvrun.read_ns 99.9);
        ("trace_overhead_frac", overhead);
      ]
      @ gc_values ~ops ~minor_words:(st "minor_words")
          ~minor:(int_of_float (st "minor_collections"))
          ~major:(int_of_float (st "major_collections"));
  }

(* ------------------------------- main ------------------------------- *)

let fill_per_layer values =
  List.map
    (fun (n, _) -> (n, Option.value ~default:0.0 (List.assoc_opt n values)))
    Out.per_layer

let run ~workload ~seed ~seconds ~trace =
  let exe = Sys.executable_name in
  Out.info "workload=%s seed=%d seconds=%g trace=%d" workload seed seconds (if trace then 1 else 0);
  Unix.sleepf settle_s;
  let o =
    match (workload, trace) with
    | "map-mixed", false -> map_mixed ~seed ~seconds
    | "map-mixed", true -> map_mixed_traced ~seed ~seconds
    | "cache-zipf", false -> cache_zipf ~seed ~seconds
    | "cache-zipf", true -> cache_zipf_traced ~seed ~seconds
    | "kv-read", false -> kv ~exe ~workload:Kvrun.Read ~seed ~seconds
    | "kv-read", true -> kv_traced ~exe ~workload:Kvrun.Read ~seed ~seconds
    | "kv-durable", false -> kv ~exe ~workload:Kvrun.Durable ~seed ~seconds
    | "kv-durable", true -> kv_traced ~exe ~workload:Kvrun.Durable ~seed ~seconds
    | w, _ -> failwith ("unknown workload " ^ w)
  in
  (try Unix.rmdir tmp_root with Unix.Unix_error _ -> ());
  let names, values =
    if trace then (Out.per_layer, fill_per_layer o.values) else (Out.end_to_end, o.values)
  in
  List.iter (fun (n, v) -> Out.info "%s %s" n (Out.number v)) values;
  Out.result ~names ~correct:o.correct ~attempted:o.attempted ~failed:o.failed values;
  if not o.correct then exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "serve" :: args -> Child.run args
  | _ :: "run" :: args ->
      let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
      let rec parse = function
        | "--workload" :: w :: r -> workload := w; parse r
        | "--seed" :: s :: r -> seed := int_of_string s; parse r
        | "--seconds" :: s :: r -> seconds := float_of_string s; parse r
        | "--trace" :: t :: r -> trace := t = "1"; parse r
        | [] -> ()
        | a :: _ -> failwith ("bad argument " ^ a)
      in
      parse args;
      run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace
  | _ ->
      prerr_endline "usage: main.exe run --workload W --seed N --seconds S --trace 0|1";
      exit 2
