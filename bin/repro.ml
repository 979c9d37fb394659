(* repro — command-line front end for the paper's experiments.

   Each subcommand regenerates one table/figure of the evaluation:

     repro fig9 [--full]     memory footprint (Figure 9)
     repro fig10 [--full]    single-threaded lookup/insert (Figure 10)
     repro fig11 [--full]    contended parallel insert (Figure 11)
     repro fig12 [--full]    disjoint parallel insert (Figure 12)
     repro fig13 [--full]    parallel lookup (Figure 13)
     repro hist [--full]     level-occupancy histograms (Artifact A.5.1)
     repro theory [--full]   Theorems 4.1-4.4 vs a real trie
     repro ablation [--full] cache on/off and max_misses sweep
     repro obs [--full|--demo] observability exports / flight-recorder demo
     repro cache [--full]    bounded cache tier self-check (budget, TTL,
                             negative caching, serving-layer cache mode)
     repro recover [--crashes N] durable-mode crash-recovery storm
     repro trace [--out F]   end-to-end tracing self-check (span trees,
                             tail exemplars, Chrome trace export)
     repro all [--full]      everything above *)

open Cmdliner

let scale_term =
  let doc = "Run at paper-like sizes (minutes) instead of quick smoke sizes." in
  let full = Arg.(value & flag & info [ "full" ] ~doc) in
  Term.(const (fun f -> if f then Harness.Suites.Full else Harness.Suites.Quick) $ full)

let timeout_term =
  let doc =
    "Kill the run after $(docv) seconds with exit status 124 — the hard \
     deadline CI relies on when an experiment wedges instead of failing."
  in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)

(* A detached watchdog thread, not an alarm: bechamel and the domains
   it spawns must keep their signal dispositions untouched. *)
let arm_timeout = function
  | None -> ()
  | Some seconds ->
      if seconds <= 0.0 then begin
        prerr_endline "repro: --timeout must be positive";
        exit 2
      end;
      ignore
        (Thread.create
           (fun () ->
             Unix.sleepf seconds;
             Printf.eprintf "repro: timeout of %gs exceeded\n%!" seconds;
             exit 124)
           ())

(* Nonzero exit on any experiment failure, so CI and scripts can trust
   the status code instead of scraping output. *)
let guarded timeout f scale =
  arm_timeout timeout;
  match f scale with
  | () -> 0
  | exception e ->
      Printf.eprintf "repro: experiment failed: %s\n%!" (Printexc.to_string e);
      1

let experiment name doc f =
  let run timeout scale = guarded timeout f scale in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ timeout_term $ scale_term)

let all_experiments =
  [
    ("fig9", "Memory footprint comparison (Figure 9, Artifact A.5.2).",
     Harness.Suites.fig9_footprint);
    ("fig10", "Single-threaded lookup and insert (Figure 10).",
     Harness.Suites.fig10_single_threaded);
    ("fig11", "Multi-threaded insert, high contention (Figure 11).",
     Harness.Suites.fig11_insert_high_contention);
    ("fig12", "Multi-threaded insert, low contention (Figure 12).",
     Harness.Suites.fig12_insert_low_contention);
    ("fig13", "Multi-threaded lookup (Figure 13).",
     Harness.Suites.fig13_parallel_lookup);
    ("hist", "Level-occupancy histograms (Artifact A.5.1).",
     Harness.Suites.histograms);
    ("theory", "Depth-distribution theory, Theorems 4.1-4.4 (Section 4.1).",
     Harness.Suites.theory);
    ("ablation", "Cache ablation: on/off and max_misses sweep.",
     Harness.Suites.ablation_cache);
    ("ablation-narrow", "Narrow-node (4-slot) ablation: insert time and footprint.",
     Harness.Suites.ablation_narrow);
    ("mixed", "Extension: YCSB-style mixed workloads across structures.",
     Harness.Suites.mixed_workload);
    ("zipf", "Extension: Zipf-skewed lookup throughput.",
     Harness.Suites.zipf_lookup);
    ("remove", "Extension: remove throughput and compression behaviour.",
     Harness.Suites.remove_throughput);
    ("replay", "Extension: production-style trace replay across structures.",
     Harness.Suites.trace_replay);
  ]

(* --------------------------- obs subcommand ------------------------- *)

(* repro obs [--full]        traced workload with metrics + latency +
                             exports; exits nonzero if the counter
                             invariants fail or an export is empty
   repro obs --demo          chaos crash-storm with the flight recorder
                             installed; prints the watchdog post-mortem
                             and exits nonzero if the flight dump is
                             empty or out of stamp order *)

module Yp = Ct_util.Yieldpoint
module Rng = Ct_util.Rng
module Progress = Ct_util.Progress
module Json = Harness.Report.Json
module Obs_map = Cachetrie.Make (Ct_util.Hashing.Int_key)
module Obs_replay = Harness.Trace.Replay (Obs_map)

let obs_await what f =
  (* Monotonic deadline: a wall-clock step must not stretch or cut
     the wait window (same rule as Server.drain). *)
  let deadline = Ct_util.Clock.now_ns () + 10_000_000_000 in
  while (not (f ())) && Ct_util.Clock.now_ns () < deadline do
    Unix.sleepf 1e-4
  done;
  if not (f ()) then failwith ("repro obs: timed out waiting for " ^ what)

(* Traced workload: a single-domain replay whose lookup count the
   structure's own cache counters must reproduce exactly (every probe
   classified once), then a multi-domain timed replay feeding the
   latency histogram, then both exports. *)
let obs_export scale =
  let failures = ref [] in
  let check what ok =
    if not ok then failures := what :: !failures;
    Printf.printf "%-52s %s\n" what (if ok then "ok" else "FAIL")
  in
  let n =
    match scale with Harness.Suites.Quick -> 100_000 | Full -> 2_000_000
  in
  let trace = Harness.Trace.generate Harness.Trace.churn n in
  (* Phase 1 — accounting, one domain so no retry can re-probe. *)
  let t = Obs_map.create () in
  let prefill = Harness.Trace.churn.Harness.Trace.universe / 2 in
  let o1 =
    Obs_replay.replay ~prefill t
      (Array.sub trace 0 (min n 50_000))
  in
  let stats = Obs_map.stats t in
  let stat l = match List.assoc_opt l stats with Some v -> v | None -> 0 in
  check "cache_hits + cache_misses = lookups issued"
    (stat "cache_hits" + stat "cache_misses" = o1.Harness.Trace.hits + o1.Harness.Trace.misses);
  check "cas_retries <= cas_attempts (all families)"
    (Harness.Obs_report.invariants () = []);
  List.iter print_endline (Harness.Obs_report.invariants ());
  (* Phase 2 — timed parallel replay into the histogram. *)
  let t2 = Obs_map.create () in
  let hist = Obs.Latency.create ~label:"trace-op" in
  let domains = min 4 (Harness.Parallel.available_domains ()) in
  let o2 = Obs_replay.replay_parallel ~prefill ~latency:hist t2 ~domains trace in
  (match o2.Harness.Trace.latency with
  | None -> check "timed replay produced a latency summary" false
  | Some l ->
      Printf.printf
        "%d ops over %d domains: p50 %.0f ns, p99 %.0f ns, p99.9 %.0f ns\n"
        l.Harness.Trace.timed_ops domains l.Harness.Trace.p50_ns
        l.Harness.Trace.p99_ns l.Harness.Trace.p999_ns;
      check "histogram count matches timed ops"
        (Obs.Latency.total hist = l.Harness.Trace.timed_ops));
  (* Exports: deterministic JSON and Prometheus text. *)
  let json =
    Json.Obj
      [
        ("metrics", Harness.Obs_report.metrics_json ());
        ("latency", Harness.Obs_report.latency_json [ ("trace-op", hist) ]);
      ]
  in
  Json.write_file "obs_metrics.json" json;
  let prom = Obs.Export.prometheus ~histograms:[ ("trace-op", hist) ] () in
  let oc = open_out "obs_metrics.prom" in
  output_string oc prom;
  close_out oc;
  print_endline "wrote obs_metrics.prom";
  check "prometheus export has counter samples"
    (String.length prom > 0
    && String.split_on_char '\n' prom
       |> List.exists (fun l ->
              String.length l > 0 && l.[0] <> '#'));
  check "json export is non-trivial" (String.length (Json.to_string json) > 64);
  !failures

(* Crash-storm demo: flight recorder + progress share the observer
   slot; a parked victim makes the watchdog stall report fire, and the
   post-mortem embeds the stamp-ordered event dump. *)
let obs_demo () =
  let failures = ref [] in
  let check what ok =
    if not ok then failures := what :: !failures;
    Printf.printf "%-52s %s\n" what (if ok then "ok" else "FAIL")
  in
  let progress = Progress.create ~slots:4 () in
  let flight = Obs.Flight.create ~size:512 () in
  Obs.Flight.install_with_progress flight progress;
  let finally () =
    Chaos.clear ();
    Obs.Flight.uninstall ()
  in
  Fun.protect ~finally @@ fun () ->
  let t = Obs_map.create () in
  for k = 0 to 63 do
    Obs_map.insert t (1_000_000 + k) k
  done;
  (* Storm: crash victims mid-operation at random yield points. *)
  let sites = Array.of_list (Yp.with_prefix "cachetrie.") in
  let rng = Rng.create 0xD00D in
  let crashes = ref 0 in
  for k = 1 to 100 do
    let s = sites.(Rng.next_int rng (Array.length sites)) in
    let phase = if Rng.next_int rng 2 = 0 then Yp.Before else Yp.After in
    let inj = Chaos.crash ~phase ~skip:(Rng.next_int rng 2) s in
    let crashed =
      Domain.join
        (Domain.spawn (fun () ->
             Progress.attach progress 0;
             let r =
               Chaos.as_victim inj (fun () ->
                   try
                     (if Rng.next_int rng 2 = 0 then Obs_map.insert t k k
                      else ignore (Obs_map.remove t k));
                     false
                   with Chaos.Injected_crash _ -> true)
             in
             Progress.detach progress;
             r))
    in
    Chaos.clear ();
    if crashed then incr crashes
  done;
  Printf.printf "storm: %d/100 operations crashed mid-flight\n" !crashes;
  check "storm fired crashes" (!crashes > 0);
  (* Park one victim so the watchdog has a live stall to report. *)
  let announce =
    List.find (fun s -> Yp.name s = "cachetrie.txn.announce") (Yp.all ())
  in
  let inj = Chaos.stall ~phase:Yp.After announce in
  Obs_map.insert t 7 1;
  let victim =
    Domain.spawn (fun () ->
        Progress.attach progress 0;
        Chaos.as_victim inj (fun () -> Obs_map.insert t 7 2);
        Progress.detach progress)
  in
  obs_await "victim parked mid-transaction" (fun () -> Chaos.stalled inj);
  let wd = Harness.Watchdog.create ~stall_epochs:2 ~flight progress in
  for _ = 1 to 3 do
    ignore (Harness.Watchdog.step wd)
  done;
  let pm = Harness.Watchdog.post_mortem wd in
  print_newline ();
  print_string pm;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check "watchdog reports the parked victim"
    (Harness.Watchdog.stalled wd <> []);
  check "post-mortem embeds the flight dump" (contains pm "flight recorder");
  (* Honest flight-dump checks: nonempty and strictly stamp-ordered. *)
  let dump = Obs.Flight.dump flight in
  check "flight dump is non-empty" (dump <> []);
  let rec ordered = function
    | a :: (b :: _ as rest) ->
        a.Obs.Flight.stamp < b.Obs.Flight.stamp && ordered rest
    | _ -> true
  in
  check "flight dump is strictly stamp-ordered" (ordered dump);
  check "recorder saw the storm's yield points"
    (Obs.Flight.recorded flight > 0);
  (* Heal and release. *)
  let repairs = Obs_map.scrub t in
  check "scrub committed the parked transaction"
    (repairs >= 1 && Obs_map.lookup t 7 = Some 2);
  Chaos.release inj;
  Domain.join victim;
  check "structure validates after the storm"
    (Obs_map.validate t = Ok ());
  !failures

let obs_run timeout demo scale =
  arm_timeout timeout;
  match if demo then obs_demo () else obs_export scale with
  | [] -> 0
  | failures ->
      List.iter
        (fun f -> Printf.eprintf "repro obs: FAILED: %s\n%!" f)
        (List.rev failures);
      1
  | exception e ->
      Printf.eprintf "repro obs: failed: %s\n%!" (Printexc.to_string e);
      1

let obs_cmd =
  let demo_term =
    Arg.(
      value & flag
      & info [ "demo" ]
          ~doc:
            "Run the chaos crash-storm demo with the flight recorder and \
             print the watchdog post-mortem, instead of the export flow.")
  in
  Cmd.v
    (Cmd.info "obs"
       ~doc:
         "Observability: replay a traced workload with metrics and latency \
          histograms, check the counter invariants, and export JSON + \
          Prometheus text; or (--demo) run a crash storm with the flight \
          recorder and print a stamp-ordered post-mortem.")
    Term.(const obs_run $ timeout_term $ demo_term $ scale_term)

(* --------------------------- mc subcommand -------------------------- *)

(* repro mc                          explore the whole catalogue
   repro mc --scenario NAME          explore one scenario
   repro mc --trace FILE             replay a recorded counterexample

   Replay exits 0 only when the trace reproduces its failure exactly;
   a schedule that diverges (the structure's yield sequence changed) or
   no longer fails (the bug is gone — update the pinned trace) exits
   nonzero, so CI can keep minimized counterexamples honest. *)

let mc_explore_one sc =
  match Mc.explore ~preemption_bound:3 ~max_schedules:60_000 sc with
  | Mc.Pass { executions; complete } ->
      Printf.printf "%-40s pass (%d schedules%s)\n%!" sc.Mc.sname executions
        (if complete then ", complete" else ", budget exhausted");
      true
  | Mc.Fail c ->
      Printf.printf "%-40s FAIL: %s\n%s%!" sc.Mc.sname
        (Mc.pp_failure c.Mc.c_failure)
        (Mc.trace_to_string c);
      false

let mc_run timeout scenario trace =
  arm_timeout timeout;
  match trace with
  | Some file -> (
      let contents =
        let ic = open_in file in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
      in
      match Mc.trace_of_string contents with
      | Error e ->
          Printf.eprintf "repro mc: cannot parse %s: %s\n%!" file e;
          2
      | Ok t -> (
          match Mc.Scenarios.find t.Mc.t_scenario with
          | None ->
              Printf.eprintf "repro mc: unknown scenario %s\n%!" t.Mc.t_scenario;
              2
          | Some sc -> (
              match Mc.replay sc t with
              | Mc.Reproduced f ->
                  Printf.printf "reproduced: %s\n%!" (Mc.pp_failure f);
                  0
              | Mc.Vanished ->
                  Printf.eprintf
                    "repro mc: schedule replays cleanly — failure vanished\n%!";
                  1
              | Mc.Diverged m ->
                  Printf.eprintf "repro mc: replay diverged: %s\n%!" m;
                  1)))
  | None -> (
      let scenarios =
        match scenario with
        | None -> Mc.Scenarios.all
        | Some name -> (
            match Mc.Scenarios.find name with
            | Some sc -> [ sc ]
            | None ->
                Printf.eprintf "repro mc: unknown scenario %s\n%!" name;
                exit 2)
      in
      let ok = List.for_all mc_explore_one scenarios in
      if ok then 0 else 1)

let mc_cmd =
  let scenario_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ] ~docv:"NAME" ~doc:"Explore a single scenario.")
  in
  let trace_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Replay a recorded counterexample trace instead of exploring.")
  in
  Cmd.v
    (Cmd.info "mc"
       ~doc:
         "Deterministic schedule exploration: enumerate fiber interleavings \
          over the structures' yield points, or replay a minimized \
          counterexample trace.")
    Term.(const mc_run $ timeout_term $ scenario_term $ trace_term)

(* -------------------------- serve subcommand ------------------------ *)

(* repro serve                  overload soak: calibrate capacity on a
                                quiet run, then offer 2x with the
                                traffic-path chaos plan and bounded
                                worker stalls; verifies the load
                                generator ledger (zero silent drops),
                                the accepted-p99 bound, and that the
                                watchdog emitted a post-mortem for any
                                injected stall; ends with a drain
                                under live traffic
   repro serve --trace-out F    also save the soak's kvload trace
   repro serve --replay F       replay a saved kvload trace against a
                                fresh server and verify its ledger *)

module Loadgen = Kv.Loadgen

let serve_config ~workers =
  {
    Kv.Server.workers;
    queue_capacity = 64;
    p99_bound_ns = 150_000_000;
    p99_window = 32;
    tick_interval = 0.01;
    idle_timeout = 0.15;
    write_timeout = 0.5;
  }

(* Mild ambient hostility for the soak: rare connection severs and
   read pauses, plus an occasional slow-loris that the 0.15s idle
   timeout is expected to cut off mid-frame. *)
let serve_chaos_plan =
  {
    Chaos.Net.seed = 0xBAD5EED;
    drop_one_in = 400;
    loris_one_in = 2000;
    loris_chunk = 8;
    loris_delay = 0.2;
    pause_reads_one_in = 300;
    pause_reads_s = 0.05;
  }

let serve_deadline_ns = 80_000_000

let serve_workers () = max 2 (min 4 (Domain.recommended_domain_count () - 2))

(* The serving soak is generic over the map it fronts: [--map] picks
   the structure, running the same overload/chaos/drain gauntlet
   against the trie or the flat open-addressing contender. *)
module Serve (M : Ct_util.Map_intf.CONCURRENT_MAP with type key = int) = struct
  module Srv = Kv.Server.Make (M)

  let serve_soak scale trace_out =
  let failures = ref [] in
  let check what ok =
    if not ok then failures := what :: !failures;
    Printf.printf "%-56s %s\n%!" what (if ok then "ok" else "FAIL")
  in
  let duration, cal_n, soak_cap =
    match scale with
    | Harness.Suites.Quick -> (2.0, 20_000, 150_000)
    | Full -> (8.0, 60_000, 600_000)
  in
  let workers = serve_workers () in
  let progress = Progress.create ~slots:workers () in
  let flight = Obs.Flight.create ~size:1024 () in
  Obs.Flight.install_with_progress flight progress;
  Fun.protect
    ~finally:(fun () ->
      Chaos.clear ();
      Obs.Flight.uninstall ())
  @@ fun () ->
  let map = M.create () in
  let srv = Srv.start ~config:(serve_config ~workers) ~progress map in
  let port = Srv.port srv in
  (* Watchdog over the worker heartbeats; any stall episode prints a
     post-mortem with the flight dump. *)
  let stall_reports = Atomic.make 0 in
  let pm_emitted = ref "" in
  let wd = ref None in
  let on_stall r =
    Atomic.incr stall_reports;
    Printf.printf "watchdog: %s\n%!" (Harness.Watchdog.report_to_string r);
    match !wd with
    | Some w when !pm_emitted = "" ->
        let pm = Harness.Watchdog.post_mortem w in
        pm_emitted := pm;
        print_string pm;
        print_newline ()
    | _ -> ()
  in
  let w = Harness.Watchdog.create ~stall_epochs:3 ~on_stall ~flight progress in
  wd := Some w;
  Harness.Watchdog.start w ~interval:0.05;
  (* Phase 1 — calibrate: quiet network, saturating offered rate; the
     measured goodput is the capacity the soak doubles. *)
  let cal_plan =
    {
      Loadgen.default_plan with
      Loadgen.n = cal_n;
      conns = 8;
      rate = 60_000.0;
      deadline_ns = serve_deadline_ns;
      net = Chaos.Net.quiet;
    }
  in
  let cal = Loadgen.run ~port cal_plan in
  Printf.printf "calibration: %!";
  Format.printf "%a@." Loadgen.pp_summary cal;
  check "calibration ledger verifies" (Loadgen.verify cal = Ok ());
  let capacity = max 2_000.0 cal.Loadgen.ok_rate in
  (* Phase 2 — the soak: 2x measured capacity, chaos on, bounded
     worker stalls injected at the server's own yield points. *)
  let offered = 2.0 *. capacity in
  let n = min soak_cap (int_of_float (offered *. duration)) in
  let soak_plan =
    {
      Loadgen.default_plan with
      Loadgen.seed = 0x50AC;
      n;
      conns = 8;
      rate = offered;
      deadline_ns = serve_deadline_ns;
      net = serve_chaos_plan;
    }
  in
  (match trace_out with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      output_string oc (Loadgen.to_string soak_plan);
      close_out oc;
      Printf.printf "wrote %s\n%!" file);
  let stall =
    Chaos.Net.stall_sites ~seed:41 ~one_in:5_000 ~max_stalls:3 ~duration:0.3
      "server.worker."
  in
  Printf.printf "soak: offering %.0f req/s (2x measured capacity) for %d requests, chaos on\n%!"
    offered n;
  let s = Loadgen.run ~port soak_plan in
  Chaos.clear ();
  Format.printf "%a@." Loadgen.pp_summary s;
  check "soak ledger verifies (zero silent drops)" (Loadgen.verify s = Ok ());
  check "typed sheds observed under 2x overload" (Loadgen.shed s >= 1);
  let p99 = Obs.Latency.percentile (Srv.latency srv) 99.0 in
  Printf.printf "accepted-request p99 (server histogram): %.1f ms\n%!"
    (p99 /. 1e6);
  check "accepted p99 under the configured bound"
    (p99 <= float_of_int (serve_config ~workers).Kv.Server.p99_bound_ns);
  let server_sheds =
    Srv.stat srv "shed_queue_full"
    + Srv.stat srv "shed_latency_breach"
    + Srv.stat srv "shed_shutdown"
    + Srv.stat srv "deadline_expired"
  in
  (* The generator can only ever see a subset of the server's typed
     sheds (replies on connections that died in flight are lost). *)
  check "server accounted at least the client-observed sheds"
    (server_sheds >= Loadgen.shed s);
  Printf.printf "worker stalls injected: %d, watchdog stall reports: %d\n%!"
    (Chaos.Net.stalls_fired stall)
    (Atomic.get stall_reports);
  check "watchdog caught every injected stall episode"
    (Chaos.Net.stalls_fired stall = 0 || Atomic.get stall_reports >= 1);
  check "stall post-mortem embeds the flight dump"
    (Atomic.get stall_reports = 0
    ||
    let pm = !pm_emitted in
    String.length pm > 0
    &&
    let nn = String.length "flight recorder" in
    let rec go i =
      i + nn <= String.length pm
      && (String.sub pm i nn = "flight recorder" || go (i + 1))
    in
    go 0);
  (* Phase 3 — graceful drain under live traffic. *)
  let drain_plan =
    {
      soak_plan with
      Loadgen.seed = 0xD7A1;
      n = min 40_000 (int_of_float capacity);
      rate = capacity;
      net = Chaos.Net.quiet;
    }
  in
  let drain_result = ref None in
  let gen =
    Thread.create
      (fun () -> drain_result := Some (Loadgen.run ~port drain_plan))
      ()
  in
  Unix.sleepf 0.1;
  check "drain flushed every queued request" (Srv.drain ~timeout:10.0 srv);
  Thread.join gen;
  (match !drain_result with
  | None -> check "drain-phase load generator finished" false
  | Some d ->
      Format.printf "%a@." Loadgen.pp_summary d;
      check "drain-phase ledger verifies" (Loadgen.verify d = Ok ());
      check "drain produced typed shutdown replies or accounted drops"
        (d.Loadgen.shutting_down >= 1 || d.Loadgen.dropped >= 1));
  (* Workers detached on drain: a clean shutdown must not read as a
     stall. *)
  Harness.Watchdog.stop w;
  let post_drain_stalls = ref 0 in
  for _ = 1 to 3 do
    post_drain_stalls :=
      !post_drain_stalls + List.length (Harness.Watchdog.step w)
  done;
  check "clean drain leaves no stall reports" (!post_drain_stalls = 0);
  print_endline "server stats:";
  List.iter
    (fun (l, v) -> if v > 0 then Printf.printf "  %-24s %d\n" l v)
    (Srv.stats srv);
  !failures

  let serve_replay file =
  let failures = ref [] in
  let check what ok =
    if not ok then failures := what :: !failures;
    Printf.printf "%-56s %s\n%!" what (if ok then "ok" else "FAIL")
  in
  let contents =
    let ic = open_in file in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  match Loadgen.of_string contents with
  | Error e ->
      Printf.eprintf "repro serve: cannot parse %s: %s\n%!" file e;
      [ "trace parses" ]
  | Ok plan ->
      let map = M.create () in
      let srv = Srv.start ~config:(serve_config ~workers:(serve_workers ())) map in
      Fun.protect ~finally:(fun () -> ignore (Srv.drain ~timeout:10.0 srv))
      @@ fun () ->
      let s = Loadgen.run ~port:(Srv.port srv) plan in
      Format.printf "%a@." Loadgen.pp_summary s;
      check "replayed ledger verifies (zero silent drops)"
        (Loadgen.verify s = Ok ());
      !failures

  (* repro trace — end-to-end tracing self-check (DESIGN.md §16).

     Phase 1, propagation: a sampled context survives the frame
     encode/decode roundtrip bit-exactly, a frame whose trace
     extension was truncated in flight degrades to an untraced
     request (never a decode error), and a pre-extension frame
     parses with no trace.

     Phase 2, the soak: calibrate capacity on a quiet run, then
     offer 2x with the traffic-path chaos plan, bounded worker
     stalls, 1-in-64 head sampling and the span collector installed.
     Afterwards the server latency histogram's tail exemplar must
     resolve to a complete resident span tree covering the p99 tail,
     and the partition stages (queue wait + exec + fsync wait) must
     sum to the request span within 5%.  The resident window is also
     exported as Chrome trace-event JSON for Perfetto. *)
  let serve_trace scale out =
  let failures = ref [] in
  let check what ok =
    if not ok then failures := what :: !failures;
    Printf.printf "%-56s %s\n%!" what (if ok then "ok" else "FAIL")
  in
  (* Phase 1 — propagation. *)
  let module P = Kv.Protocol in
  let payload req =
    let b = P.encode_request req in
    Bytes.sub b 4 (Bytes.length b - 4)
  in
  let ctx = Obs.Trace.make ~sampled:true 0x1234_5678_9ABC in
  let req = { P.id = 7; deadline_ns = 1_000_000; op = P.Put (3, "v"); trace = ctx } in
  check "sampled context roundtrips the frame"
    (match P.decode_request (payload req) with
    | Ok got ->
        got = req
        && Obs.Trace.id got.P.trace = Obs.Trace.id ctx
        && Obs.Trace.sampled got.P.trace
    | Error _ -> false);
  let unsampled = Obs.Trace.make ~sampled:false 42 in
  check "unsampled-but-traced flag survives"
    (match P.decode_request (payload { req with P.trace = unsampled }) with
    | Ok got -> got.P.trace = unsampled && not (Obs.Trace.sampled got.P.trace)
    | Error _ -> false);
  let get_req = { P.id = 9; deadline_ns = 0; op = P.Get 5; trace = ctx } in
  let gp = payload get_req in
  check "truncated extension degrades to an untraced request"
    (match P.decode_request (Bytes.sub gp 0 (Bytes.length gp - 4)) with
    | Ok got -> got.P.trace = Obs.Trace.none && got.P.op = P.Get 5
    | Error _ -> false);
  check "pre-extension frame parses with no trace"
    (match P.decode_request (payload { get_req with P.trace = Obs.Trace.none }) with
    | Ok got -> got.P.trace = Obs.Trace.none && got = { get_req with P.trace = 0 }
    | Error _ -> false);
  (* Phase 2 — the traced soak. *)
  let duration, cal_n, soak_cap =
    match scale with
    | Harness.Suites.Quick -> (2.0, 20_000, 120_000)
    | Full -> (6.0, 60_000, 400_000)
  in
  let workers = serve_workers () in
  let tr = Obs.Trace.create ~size:32768 () in
  Obs.Trace.install tr;
  Fun.protect
    ~finally:(fun () ->
      Chaos.clear ();
      Obs.Trace.uninstall ())
  @@ fun () ->
  let map = M.create () in
  let srv = Srv.start ~config:(serve_config ~workers) map in
  let port = Srv.port srv in
  let cal_plan =
    {
      Loadgen.default_plan with
      Loadgen.n = cal_n;
      conns = 8;
      rate = 60_000.0;
      deadline_ns = serve_deadline_ns;
      net = Chaos.Net.quiet;
    }
  in
  let cal = Loadgen.run ~port cal_plan in
  check "calibration ledger verifies" (Loadgen.verify cal = Ok ());
  let capacity = max 2_000.0 cal.Loadgen.ok_rate in
  let offered = 2.0 *. capacity in
  let n = min soak_cap (int_of_float (offered *. duration)) in
  (* Sampling rate picked so the whole soak's spans stay resident: the
     slowest requests cluster early (the injected stalls), so a wrapped
     ring would evict exactly the tail exemplars' trees.  At most 4096
     sampled requests x ~6 spans fits the 32768-span ring with slack,
     while 1-in-17 at quick scale keeps ~tens of sampled occupants
     above the p99 bucket.  The rate is odd, so coprime with the 8
     connections: connection [c] sends requests [k] with
     [k mod 8 = c], and an even 1-in-N would sample connection 0 only,
     whose latencies need not look like the served population's (the
     p90 check below then fails by luck). *)
  let one_in = max 16 (n / 4096) lor 1 in
  let soak_plan =
    {
      Loadgen.default_plan with
      Loadgen.seed = 0x7ACE;
      n;
      conns = 8;
      rate = offered;
      deadline_ns = serve_deadline_ns;
      net = serve_chaos_plan;
      trace_one_in = one_in;
    }
  in
  let stall =
    Chaos.Net.stall_sites ~seed:41 ~one_in:5_000 ~max_stalls:3 ~duration:0.3
      "server.worker."
  in
  Printf.printf
    "soak: offering %.0f req/s (2x capacity) for %d requests, 1-in-%d sampled, chaos on\n%!"
    offered n one_in;
  let s = Loadgen.run ~port soak_plan in
  Chaos.clear ();
  ignore (Chaos.Net.stalls_fired stall);
  Format.printf "%a@." Loadgen.pp_summary s;
  check "soak ledger verifies (zero silent drops)" (Loadgen.verify s = Ok ());
  check "soak minted trace ids for every request"
    (Array.length s.Loadgen.trace_ids = n
    && Array.for_all (fun id -> id <> 0) s.Loadgen.trace_ids);
  ignore (Srv.drain ~timeout:10.0 srv);
  check "sampled requests recorded spans" (Obs.Trace.recorded tr > 0);
  print_endline "stage summary (resident spans):";
  List.iter
    (fun (name, count, sum) ->
      Printf.printf "  %-12s count=%-7d total=%8.3f ms\n" name count
        (float_of_int sum /. 1e6))
    (Obs.Trace.stage_summary tr);
  (* Every resident complete tree must satisfy the partition
     identity: queue wait + exec (+ fsync wait) = request, within
     5% (by construction they share clock captures, so this is
     really a torn-read tolerance). *)
  let has st spans =
    List.exists (fun (sp : Obs.Trace.span) -> sp.Obs.Trace.stage = st) spans
  in
  let complete spans =
    has Obs.Trace.Request spans
    && has Obs.Trace.Queue_wait spans
    && has Obs.Trace.Exec spans
  in
  let stage_dur st spans =
    List.fold_left
      (fun acc (sp : Obs.Trace.span) ->
        if sp.Obs.Trace.stage = st then acc + sp.Obs.Trace.dur_ns else acc)
      0 spans
  in
  let sums_within spans =
    let request = stage_dur Obs.Trace.Request spans in
    let parts =
      stage_dur Obs.Trace.Queue_wait spans
      + stage_dur Obs.Trace.Exec spans
      + stage_dur Obs.Trace.Fsync_wait spans
    in
    request > 0 && abs (request - parts) * 20 <= request
  in
  let by_id = Hashtbl.create 256 in
  List.iter
    (fun (sp : Obs.Trace.span) ->
      if sp.Obs.Trace.trace_id <> 0 then
        Hashtbl.replace by_id sp.Obs.Trace.trace_id
          (sp :: (try Hashtbl.find by_id sp.Obs.Trace.trace_id with Not_found -> [])))
    (Obs.Trace.spans tr);
  let trees = ref 0 and within = ref 0 in
  Hashtbl.iter
    (fun _ spans ->
      if complete spans then begin
        incr trees;
        if sums_within spans then incr within
      end)
    by_id;
  Printf.printf "resident complete span trees: %d (%d sum within 5%%)\n%!"
    !trees !within;
  check "resident window holds complete span trees" (!trees > 0);
  check "every complete tree sums within 5%" (!within = !trees);
  (* The tail exemplar: walk the latency histogram's exemplar cells
     from the slowest bucket down and resolve the first complete
     resident tree.  Its bucket must cover the p99 of the sampled
     population (the exemplar machinery indexed the slowest sampled
     request correctly) and the p90 of all served requests (the
     sampled tail is representative — ~servedx10%/rate occupants, so
     this is stable; whether a sampled request lands above the
     overall p99 is luck when the extreme tail is a single stalled
     queue of 64). *)
  let lat = Srv.latency srv in
  let p99 = Obs.Latency.percentile lat 99.0 in
  let p90 = Obs.Latency.percentile lat 90.0 in
  let sampled_p99 =
    let durs =
      Hashtbl.fold
        (fun _ spans acc ->
          if complete spans then stage_dur Obs.Trace.Request spans :: acc
          else acc)
        by_id []
      |> List.sort compare |> Array.of_list
    in
    let n = Array.length durs in
    if n = 0 then 0.0 else float_of_int durs.(min (n - 1) (n * 99 / 100))
  in
  List.iter
    (fun (bucket, id) ->
      Printf.printf "exemplar: bucket %2d (<%.0f ns) trace %016x (%d resident spans)\n"
        bucket
        (Obs.Latency.bucket_upper_ns bucket)
        id
        (List.length (Obs.Trace.spans_of tr ~id)))
    (Obs.Latency.exemplars lat);
  let found =
    List.find_map
      (fun (bucket, id) ->
        let spans = Obs.Trace.spans_of tr ~id in
        if complete spans then Some (bucket, id, spans) else None)
      (List.rev (Obs.Latency.exemplars lat))
  in
  (match found with
  | None -> check "tail exemplar resolves to a complete span tree" false
  | Some (bucket, id, spans) ->
      check "tail exemplar resolves to a complete span tree" true;
      Printf.printf
        "tail exemplar: trace %016x, bucket %d (<%.0f ns); served p90 %.0f ns, \
         p99 %.0f ns, sampled p99 %.0f ns\n%!"
        id bucket
        (Obs.Latency.bucket_upper_ns bucket)
        p90 p99 sampled_p99;
      List.iter
        (fun sp -> print_endline ("  " ^ Obs.Trace.span_to_string sp))
        spans;
      check "tail exemplar covers the sampled population's p99"
        (Obs.Latency.bucket_upper_ns bucket >= sampled_p99);
      check "tail exemplar covers the served p90 tail"
        (Obs.Latency.bucket_upper_ns bucket >= p90);
      check "tail exemplar stages sum to its request span (within 5%)"
        (sums_within spans));
  (match out with
  | None -> ()
  | Some file ->
      Json.write_file file (Harness.Obs_report.chrome_trace_json tr);
      Printf.printf "wrote %s (open in Perfetto or chrome://tracing)\n%!" file);
  !failures
end

module Folklore_map = Oa.Folklore.Make (Ct_util.Hashing.Int_key)
module Serve_cachetrie = Serve (Obs_map)
module Serve_folklore = Serve (Folklore_map)

let serve_run timeout map_name replay trace_out scale =
  arm_timeout timeout;
  let soak, rep =
    match map_name with
    | "oa-folklore" -> (Serve_folklore.serve_soak, Serve_folklore.serve_replay)
    | _ -> (Serve_cachetrie.serve_soak, Serve_cachetrie.serve_replay)
  in
  match
    match replay with
    | Some file -> rep file
    | None -> soak scale trace_out
  with
  | [] -> 0
  | failures ->
      List.iter
        (fun f -> Printf.eprintf "repro serve: FAILED: %s\n%!" f)
        (List.rev failures);
      1
  | exception e ->
      Printf.eprintf "repro serve: failed: %s\n%!" (Printexc.to_string e);
      1

let serve_cmd =
  let replay_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay a saved kvload trace against a fresh server and verify \
             its ledger, instead of running the soak.")
  in
  let trace_out_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Write the soak's kvload trace to $(docv) for later --replay.")
  in
  let map_term =
    Arg.(
      value
      & opt (enum [ ("cachetrie", "cachetrie"); ("oa-folklore", "oa-folklore") ])
          "cachetrie"
      & info [ "map" ] ~docv:"MAP"
          ~doc:
            "Structure the server fronts: $(b,cachetrie) (default) or \
             $(b,oa-folklore).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Overload-hardened KV serving soak: calibrate capacity, offer 2x \
          with traffic-path chaos and injected worker stalls, verify the \
          zero-silent-drop ledger, the accepted-p99 bound and the watchdog \
          post-mortem, then drain under live traffic.")
    Term.(
      const serve_run $ timeout_term $ map_term $ replay_term $ trace_out_term
      $ scale_term)

(* -------------------------- trace subcommand ------------------------ *)

let trace_run timeout out scale =
  arm_timeout timeout;
  match Serve_cachetrie.serve_trace scale (Some out) with
  | [] -> 0
  | failures ->
      List.iter
        (fun f -> Printf.eprintf "repro trace: FAILED: %s\n%!" f)
        (List.rev failures);
      1
  | exception e ->
      Printf.eprintf "repro trace: failed: %s\n%!" (Printexc.to_string e);
      1

let trace_cmd =
  let out_term =
    Arg.(
      value
      & opt string "trace_spans.json"
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the soak's resident span window as Chrome trace-event \
             JSON to $(docv) (load it in Perfetto or chrome://tracing).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "End-to-end tracing self-check: frame propagation roundtrip, then \
          a chaos soak at 2x capacity with head sampling sized so the soak \
          stays ring-resident; verifies every ledger row minted its trace \
          id, the rings hold complete span trees whose stage durations sum \
          to the request span within 5%, and the latency histogram's tail \
          exemplar resolves to a complete tree covering the sampled \
          population's p99; exports Chrome trace-event JSON.")
    Term.(const trace_run $ timeout_term $ out_term $ scale_term)

(* ------------------------- recover subcommand ----------------------- *)

(* repro recover [--crashes N] [--seed S] [--dir D] [--keep]

   Crash-recovery storm for the durable serving mode (DESIGN.md §14).
   Each iteration: recover the store from disk, serve it, drive seeded
   partitioned traffic with the storage-fault injector armed to kill
   the process at a seeded point of group commit or checkpoint
   publication, then recover the next incarnation and verify against
   the load generator's ledger that every durably-acked operation
   survived and no unacknowledged operation was invented.  Torn tails
   must first draw the strict typed refusal before --salvage-style
   truncation is allowed to proceed.  On any failure the store's
   files, the kvload trace and the reason are saved under
   _recover_failures/ for offline replay. *)

module Durable = Kv.Durable
module Dsrv = Kv.Server.Make (Kv.Durable.Map)
module Recovery = Persist.Recovery

let recover_store_dir = "_recover_store"
let recover_artifacts_dir = "_recover_failures"

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let copy_file src dst =
  let ic = open_in_bin src in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc s;
  close_out oc

(* Everything offline replay needs: the store's files as the crash
   left them, the exact traffic, and why verification refused. *)
let save_recover_artifacts ~dir ~iter ~plan ~reason =
  let mkdir d =
    try Unix.mkdir d 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  in
  mkdir recover_artifacts_dir;
  let dst =
    Filename.concat recover_artifacts_dir (Printf.sprintf "crash_%03d" iter)
  in
  mkdir dst;
  (try
     Array.iter
       (fun f ->
         let p = Filename.concat dir f in
         if not (Sys.is_directory p) then copy_file p (Filename.concat dst f))
       (Sys.readdir dir)
   with Sys_error _ -> ());
  (match plan with
  | None -> ()
  | Some p ->
      let oc = open_out (Filename.concat dst "plan.kvload") in
      output_string oc (Loadgen.to_string p);
      close_out oc);
  let oc = open_out (Filename.concat dst "reason.txt") in
  output_string oc reason;
  output_char oc '\n';
  close_out oc;
  dst

(* Fast group commit so armed kills land early, checkpoints every few
   hundred records so checkpoint publication is a real kill target
   inside a sub-second run. *)
let recover_durable_config =
  {
    Kv.Durable.wal =
      { Persist.Wal.default_config with Persist.Wal.commit_interval = 0.001 };
    checkpoint_every = 300;
    checkpoint_interval = 0.003;
  }

let recover_server_config () =
  {
    (Kv.Server.default_config ()) with
    Kv.Server.workers = 2;
    queue_capacity = 256;
    p99_bound_ns = 2_000_000_000;
    tick_interval = 0.01;
  }

(* Ambient storage hostility under the armed kill: short writes the
   write loop must absorb, occasional fsync failures the retry budget
   must eat, occasional stalled fsyncs the deadline must bound. *)
let recover_disk_plan seed =
  {
    Chaos.Disk.seed;
    target = "";
    torn_one_in = 0;
    short_one_in = 7;
    fsync_fail_one_in = 150;
    fsync_delay_one_in = 60;
    fsync_delay_s = 0.002;
  }

(* Partitioned keys are the verification precondition: one connection
   owns each key, so per-key histories are totally ordered. *)
let recover_plan ~seed i =
  {
    Loadgen.seed = seed + (997 * i);
    n = 1_500;
    conns = 4;
    rate = 30_000.0;
    profile = Harness.Trace.write_heavy;
    deadline_ns = 250_000_000;
    value_bytes = 24;
    partition = true;
    net = Chaos.Net.quiet;
    trace_one_in = 0;
  }

let recover_storm ~crashes ~seed ~dir ~keep =
  let failures = ref [] in
  let check what ok =
    if not ok then failures := what :: !failures;
    Printf.printf "%-56s %s\n%!" what (if ok then "ok" else "FAIL")
  in
  rm_rf dir;
  let crashes_fired = ref 0
  and wal_kills = ref 0
  and ckpt_kills = ref 0
  and clean_runs = ref 0
  and strict_refusals = ref 0
  and salvages = ref 0
  and recovery_failures = ref 0
  and verify_failures = ref 0
  and ledger_failures = ref 0
  and total_replayed = ref 0
  and total_skipped = ref 0
  and total_ckpt_records = ref 0
  and tmp_discarded = ref 0 in
  let rng = Rng.create (Ct_util.Rng.mix64 (seed lxor 0x5707)) in
  (* Strict first, always: a torn tail must draw the typed refusal
     before salvage truncates it; anything else refusing is a bug. *)
  let reopen ~iter ~plan =
    match Durable.open_ ~config:recover_durable_config ~dir () with
    | Ok (st, stats) -> Some (st, stats)
    | Error (Recovery.Torn_tail _ as e) -> (
        incr strict_refusals;
        Printf.printf "  [%03d] strict refusal (expected): %s\n%!" iter
          (Recovery.error_to_string e);
        match
          Durable.open_ ~config:recover_durable_config ~salvage:true ~dir ()
        with
        | Ok (st, stats) ->
            incr salvages;
            Some (st, stats)
        | Error e ->
            incr recovery_failures;
            let reason =
              "salvage recovery refused: " ^ Recovery.error_to_string e
            in
            let saved = save_recover_artifacts ~dir ~iter ~plan ~reason in
            Printf.printf "  [%03d] %s (artifacts: %s)\n%!" iter reason saved;
            None)
    | Error e ->
        incr recovery_failures;
        let reason = "strict recovery refused: " ^ Recovery.error_to_string e in
        let saved = save_recover_artifacts ~dir ~iter ~plan ~reason in
        Printf.printf "  [%03d] %s (artifacts: %s)\n%!" iter reason saved;
        None
  in
  let bindings st =
    Durable.Map.fold_snapshot (fun acc k v -> (k, v) :: acc) [] (Durable.map st)
  in
  let verify_incarnation ~iter ~pending ~recovered =
    match pending with
    | None -> ()
    | Some (s, run_base, plan) -> (
        match Loadgen.verify_recovered s ~base:run_base ~bindings:recovered with
        | Ok () -> ()
        | Error msg ->
            incr verify_failures;
            let reason = "durability verification failed: " ^ msg in
            let saved =
              save_recover_artifacts ~dir ~iter ~plan:(Some plan) ~reason
            in
            Printf.printf "  [%03d] %s (artifacts: %s)\n%!" iter reason saved)
  in
  (* pending = the crashed run awaiting verification: its summary, the
     store content when it started, and its plan (for artifacts). *)
  let pending = ref None in
  for i = 1 to crashes do
    let plan = recover_plan ~seed i in
    match reopen ~iter:i ~plan:(Some plan) with
    | None ->
        (* Unrecoverable by policy: wipe and continue the storm so one
           refusal surfaces as one counted failure, not a cascade. *)
        rm_rf dir;
        pending := None
    | Some (st, stats) ->
        total_replayed := !total_replayed + stats.Recovery.replayed;
        total_skipped := !total_skipped + stats.Recovery.skipped;
        total_ckpt_records :=
          !total_ckpt_records + stats.Recovery.checkpoint_records;
        tmp_discarded := !tmp_discarded + stats.Recovery.tmp_discarded;
        let recovered = bindings st in
        verify_incarnation ~iter:i ~pending:!pending ~recovered;
        let srv =
          Dsrv.start
            ~config:(recover_server_config ())
            ~durable:(Durable.hooks st) (Durable.map st)
        in
        let disk = Chaos.Disk.install ~salt:i (recover_disk_plan seed) in
        (* Seeded kill placement sweep: mostly mid group commit, the
           rest mid checkpoint publication; both write and fsync
           phases. *)
        let on_wal = Rng.next_int rng 3 < 2 in
        let target, after =
          if on_wal then ("wal-", 1 + Rng.next_int rng 25)
          else ("checkpoint-", Rng.next_int rng 3)
        in
        let at_fsync = Rng.next_int rng 2 = 0 in
        Chaos.Disk.arm_kill disk ~target ~at_fsync ~after ();
        (* The in-process kill -9: the instant the storage layer halts,
           sever every connection so clients see the death, not a
           wedged socket. *)
        let stop_watch = Atomic.make false in
        let watcher =
          Thread.create
            (fun () ->
              while
                (not (Atomic.get stop_watch)) && not (Persist.Io.is_halted ())
              do
                Unix.sleepf 0.0005
              done;
              if Persist.Io.is_halted () then Dsrv.kill srv)
            ()
        in
        let s = Loadgen.run ~port:(Dsrv.port srv) plan in
        (* A checkpoint-armed kill that found no organic checkpoint in
           a short run: force one cycle so the placement still fires. *)
        if Chaos.Disk.kill_armed disk then ignore (Durable.checkpoint_now st);
        Atomic.set stop_watch true;
        Thread.join watcher;
        let crashed = Persist.Io.is_halted () in
        if crashed then begin
          incr crashes_fired;
          if on_wal then incr wal_kills else incr ckpt_kills;
          Dsrv.kill srv;
          Durable.abandon st
        end
        else begin
          incr clean_runs;
          ignore (Dsrv.drain ~timeout:10.0 srv);
          ignore (Durable.close st)
        end;
        Chaos.Disk.clear ();
        Persist.Io.resurrect ();
        (match Loadgen.verify s with
        | Ok () -> ()
        | Error msg ->
            incr ledger_failures;
            Printf.printf "  [%03d] ledger: %s\n%!" i msg);
        pending := Some (s, recovered, plan)
  done;
  (* The last crash still awaits its recovery-side verdict. *)
  (match reopen ~iter:(crashes + 1) ~plan:None with
  | None -> ()
  | Some (st, stats) ->
      total_replayed := !total_replayed + stats.Recovery.replayed;
      verify_incarnation ~iter:(crashes + 1) ~pending:!pending
        ~recovered:(bindings st);
      ignore (Durable.close st));
  Printf.printf
    "storm: %d/%d runs crashed (%d mid-commit, %d mid-checkpoint), %d ran \
     clean\n\
     recovery: %d strict torn-tail refusals -> salvaged %d, %d partial \
     checkpoints discarded\n\
     replayed %d WAL records, skipped %d checkpoint-covered, loaded %d \
     checkpoint records\n%!"
    !crashes_fired crashes !wal_kills !ckpt_kills !clean_runs !strict_refusals
    !salvages !tmp_discarded !total_replayed !total_skipped !total_ckpt_records;
  check "storm actually killed the process" (!crashes_fired >= crashes / 2);
  check "every incarnation recovered (typed refusals only where salvage \
         applies)"
    (!recovery_failures = 0);
  check "torn tails drew the strict refusal before salvage"
    (!salvages = !strict_refusals);
  check "every durably-acked op survived; nothing invented"
    (!verify_failures = 0);
  check "every run's ledger verified (zero silent drops)"
    (!ledger_failures = 0);
  if !failures = [] && not keep then rm_rf dir;
  !failures

let recover_run timeout crashes seed dir keep =
  arm_timeout timeout;
  if crashes < 1 then begin
    prerr_endline "repro recover: --crashes must be positive";
    2
  end
  else
    match recover_storm ~crashes ~seed ~dir ~keep with
    | [] -> 0
    | failures ->
        List.iter
          (fun f -> Printf.eprintf "repro recover: FAILED: %s\n%!" f)
          (List.rev failures);
        1
    | exception e ->
        Printf.eprintf "repro recover: failed: %s\n%!" (Printexc.to_string e);
        1

let recover_cmd =
  let crashes_term =
    Arg.(
      value & opt int 100
      & info [ "crashes" ] ~docv:"N"
          ~doc:"Storm iterations (crash + recover cycles).")
  in
  let seed_term =
    Arg.(
      value & opt int 0xC4A54
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Master seed for traffic, faults and kill placement.")
  in
  let dir_term =
    Arg.(
      value & opt string recover_store_dir
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Store directory (wiped at start; removed on success).")
  in
  let keep_term =
    Arg.(
      value & flag
      & info [ "keep" ] ~doc:"Keep the store directory even on success.")
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Crash-recovery storm for the durable serving mode: seeded kills \
          mid group-commit and mid checkpoint, strict-then-salvage \
          recovery, and ledger verification that every durably-acked \
          operation survives while nothing unacknowledged is invented.")
    Term.(
      const recover_run $ timeout_term $ crashes_term $ seed_term $ dir_term
      $ keep_term)

(* -------------------------- cache subcommand ------------------------ *)

(* repro cache [--full]    deterministic self-check of the bounded
   cache tier (DESIGN.md §15): the budget invariant and exact
   accounting under a zipfian read-through load for every policy,
   deterministic TTL expiry on an injected clock, negative-caching
   stampede absorption, and the serving layer's opt-in cache mode end
   to end — including the tier counters showing up in the Prometheus
   export.  Nonzero exit on any failed check. *)

module Cache_map = Cachetrie.Make (Ct_util.Hashing.Int_key)
module Cache_tier = Cache.Make (Cache_map)
module Cache_server = Kv.Server.Make (Cache_map)

let cache_run timeout scale =
  arm_timeout timeout;
  let failures = ref [] in
  let check what ok =
    if not ok then failures := what :: !failures;
    Printf.printf "%-56s %s\n" what (if ok then "ok" else "FAIL")
  in
  (try
     let n =
       match scale with Harness.Suites.Quick -> 200_000 | Full -> 2_000_000
     in
     let budget = 1 lsl 15 in
     let universe = 50_000 in
     let keys =
       Harness.Workload.zipf_keys ~seed:0xCAC4E ~n ~universe 0.99
     in
     (* Phase 1 — budget + accounting per policy under skewed load. *)
     List.iter
       (fun policy ->
         let cfg =
           { (Cache.default_config ~budget_words:budget) with Cache.policy }
         in
         let t = Cache_tier.create ~config:cfg () in
         let load k = Some (string_of_int k) in
         Array.iter (fun k -> ignore (Cache_tier.get_or_load t k ~load)) keys;
         let name = Cache.policy_name policy in
         let s = Cache_tier.stats t in
         check
           (Printf.sprintf "%s: resident footprint within budget" name)
           (s.Cache.used_words <= budget);
         check
           (Printf.sprintf "%s: quiescent accounting reconciles" name)
           (Cache_tier.validate t = Ok ());
         check
           (Printf.sprintf "%s: skewed load hits at least 30%%" name)
           (float_of_int s.Cache.hits
            >= 0.3 *. float_of_int (s.Cache.hits + s.Cache.misses));
         check
           (Printf.sprintf "%s: eviction happened (universe >> budget)" name)
           (s.Cache.evictions > 0))
       [ Cache.Fifo; Cache.Clock_hand; Cache.Slru ];
     (* Phase 2 — deterministic TTL on an injected clock. *)
     let clk = Atomic.make 0 in
     let tcfg =
       {
         (Cache.default_config ~budget_words:budget) with
         Cache.wheel_tick_ns = 10;
         wheel_slots = 16;
       }
     in
     let tc =
       Cache_tier.create ~config:tcfg ~now:(fun () -> Atomic.get clk) ()
     in
     ignore (Cache_tier.put ~ttl_ns:100 tc 1 "short");
     ignore (Cache_tier.put tc 2 "forever");
     check "ttl: live before its deadline" (Cache_tier.get tc 1 = Some "short");
     Atomic.set clk 150;
     check "ttl: dead past its deadline" (Cache_tier.get tc 1 = None);
     check "ttl: wheel reclaims without reads" (Cache_tier.expire_now tc >= 0
                                               && Cache_tier.resident tc = 1);
     check "ttl: immortal entry unaffected"
       (Cache_tier.get tc 2 = Some "forever");
     (* Phase 3 — negative caching absorbs an absent-key storm. *)
     let loads = ref 0 in
     let load _ = incr loads; None in
     ignore (Cache_tier.get_or_load tc 404 ~load);
     for _ = 1 to 1_000 do
       ignore (Cache_tier.get_or_load tc 404 ~load)
     done;
     check "negative: storm on an absent key costs one load" (!loads = 1);
     (* Phase 4 — serving layer cache mode, end to end. *)
     let backing = Cache_map.create () in
     let front =
       Cache_tier.create
         ~config:(Cache.default_config ~budget_words:budget)
         ()
     in
     let cache_ops =
       {
         Kv.Server.c_get =
           (fun k ->
             Cache_tier.get_or_load front k ~load:(fun k ->
                 Cache_map.lookup backing k));
         c_put =
           (fun k v ->
             Cache_map.insert backing k v;
             ignore (Cache_tier.put front k v);
             true);
         c_remove =
           (fun k ->
             ignore (Cache_tier.remove front k);
             Cache_map.remove backing k <> None);
       }
     in
     let srv =
       Cache_server.start
         ~config:
           { (Kv.Server.default_config ()) with Kv.Server.workers = 2 }
         ~cache:cache_ops (Cache_map.create ())
     in
     Fun.protect
       ~finally:(fun () -> ignore (Cache_server.drain ~timeout:5.0 srv))
       (fun () ->
         let c = Kv.Client.connect ~port:(Cache_server.port srv) () in
         Fun.protect
           ~finally:(fun () -> Kv.Client.close c)
           (fun () ->
             check "serve: put through the cache tier"
               (Kv.Client.put c 1 "one" = Kv.Protocol.Stored true);
             check "serve: read back through the tier"
               (Kv.Client.get c 1 = Kv.Protocol.Value "one");
             check "serve: absent key is Nil"
               (Kv.Client.get c 99 = Kv.Protocol.Nil);
             check "serve: absent key again (cached negative)"
               (Kv.Client.get c 99 = Kv.Protocol.Nil);
             check "serve: remove through the tier"
               (Kv.Client.remove c 1 = Kv.Protocol.Removed);
             check "serve: removed key gone"
               (Kv.Client.get c 1 = Kv.Protocol.Nil)));
     let s = Cache_tier.stats front in
     check "serve: tier counted hits" (s.Cache.hits >= 1);
     check "serve: tier counted a negative hit" (s.Cache.negative_hits >= 1);
     let prom = Obs.Export.prometheus () in
     let has needle =
       let ln = String.length needle and lp = String.length prom in
       let rec go i = i + ln <= lp && (String.sub prom i ln = needle || go (i + 1)) in
       go 0
     in
     check "export: tier_hits in the Prometheus export" (has "tier_hits");
     check "export: cache-tier family labelled" (has "cache-tier")
   with e ->
     check ("no exception: " ^ Printexc.to_string e) false);
  if !failures = [] then begin
    print_endline "repro cache: all checks passed";
    0
  end
  else begin
    List.iter (fun f -> Printf.eprintf "repro cache: FAILED: %s\n%!" f) !failures;
    1
  end

let cache_cmd =
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "Self-check of the bounded cache tier: budget invariant and exact \
          accounting per policy under zipfian load, deterministic TTL expiry \
          on an injected clock, negative-caching stampede absorption, and \
          the serving layer's cache mode with exported tier counters.")
    Term.(const cache_run $ timeout_term $ scale_term)

let all_cmd =
  let run timeout scale =
    guarded timeout (fun scale ->
        List.iter (fun (_, _, f) -> f scale) all_experiments)
      scale
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment in sequence.")
    Term.(const run $ timeout_term $ scale_term)

let () =
  let info =
    Cmd.info "repro" ~version:"1.0"
      ~doc:"Reproduce the evaluation of the Cache-Tries paper (PPoPP 2018)."
  in
  let cmds =
    (all_cmd :: List.map (fun (n, d, f) -> experiment n d f) all_experiments)
    @ [ mc_cmd; obs_cmd; cache_cmd; serve_cmd; trace_cmd; recover_cmd ]
  in
  exit (Cmd.eval' (Cmd.group info cmds))
