(* repro obs, repro cache and repro mc — the self-checks that exit
   nonzero on any failed assertion.

   repro obs [--full]        traced workload with metrics + latency +
                             exports; fails if the counter invariants
                             fail or an export is empty
   repro obs --demo          chaos crash-storm with the flight recorder
                             installed; prints the watchdog post-mortem
                             and fails if the flight dump is empty or
                             out of stamp order
   repro cache [--full]      the bounded cache tier (DESIGN.md §15)
   repro mc                  explore the whole catalogue
   repro mc --scenario NAME  explore one scenario
   repro mc --trace FILE     replay a recorded counterexample *)

module Yp = Ct_util.Yieldpoint
module Rng = Ct_util.Rng
module Progress = Ct_util.Progress
module Json = Harness.Report.Json
module Trie = Setup.Trie
module Replay = Harness.Trace.Replay (Trie)

let check = Setup.check

(* --------------------------------- obs -------------------------------- *)

let await what f =
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
let obs_export scale l =
  let n =
    match scale with Harness.Suites.Quick -> 100_000 | Full -> 2_000_000
  in
  let trace = Harness.Trace.generate Harness.Trace.churn n in
  (* Phase 1 — accounting, one domain so no retry can re-probe. *)
  let t = Trie.create () in
  let prefill = Harness.Trace.churn.Harness.Trace.universe / 2 in
  let o1 =
    Replay.replay ~prefill t
      (Array.sub trace 0 (min n 50_000))
  in
  let stats = Trie.stats t in
  let stat k = match List.assoc_opt k stats with Some v -> v | None -> 0 in
  check l "cache_hits + cache_misses = lookups issued"
    (stat "cache_hits" + stat "cache_misses" = o1.Harness.Trace.hits + o1.Harness.Trace.misses);
  check l "cas_retries <= cas_attempts (all families)"
    (Harness.Obs_report.invariants () = []);
  List.iter print_endline (Harness.Obs_report.invariants ());
  (* Phase 2 — timed parallel replay into the histogram. *)
  let t2 = Trie.create () in
  let hist = Obs.Latency.create ~label:"trace-op" in
  let domains = min 4 (Harness.Parallel.available_domains ()) in
  let o2 = Replay.replay_parallel ~prefill ~latency:hist t2 ~domains trace in
  (match o2.Harness.Trace.latency with
  | None -> check l "timed replay produced a latency summary" false
  | Some lat ->
      Printf.printf
        "%d ops over %d domains: p50 %.0f ns, p99 %.0f ns, p99.9 %.0f ns\n"
        lat.Harness.Trace.timed_ops domains lat.Harness.Trace.p50_ns
        lat.Harness.Trace.p99_ns lat.Harness.Trace.p999_ns;
      check l "histogram count matches timed ops"
        (Obs.Latency.total hist = lat.Harness.Trace.timed_ops));
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
  check l "prometheus export has counter samples"
    (String.split_on_char '\n' prom
    |> List.exists (fun line -> String.length line > 0 && line.[0] <> '#'));
  check l "json export is non-trivial" (String.length (Json.to_string json) > 64)

(* Crash-storm demo: flight recorder + progress share the observer
   slot; a parked victim makes the watchdog stall report fire, and the
   post-mortem embeds the stamp-ordered event dump. *)
let obs_demo l =
  let progress = Progress.create ~slots:4 () in
  let flight = Obs.Flight.create ~size:512 () in
  Obs.Flight.install_with_progress flight progress;
  let finally () =
    Chaos.clear ();
    Obs.Flight.uninstall ()
  in
  Fun.protect ~finally @@ fun () ->
  let t = Trie.create () in
  for k = 0 to 63 do
    Trie.insert t (1_000_000 + k) k
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
                     (if Rng.next_int rng 2 = 0 then Trie.insert t k k
                      else ignore (Trie.remove t k));
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
  check l "storm fired crashes" (!crashes > 0);
  (* Park one victim so the watchdog has a live stall to report. *)
  let announce =
    List.find (fun s -> Yp.name s = "cachetrie.txn.announce") (Yp.all ())
  in
  let inj = Chaos.stall ~phase:Yp.After announce in
  Trie.insert t 7 1;
  let victim =
    Domain.spawn (fun () ->
        Progress.attach progress 0;
        Chaos.as_victim inj (fun () -> Trie.insert t 7 2);
        Progress.detach progress)
  in
  await "victim parked mid-transaction" (fun () -> Chaos.stalled inj);
  let wd = Harness.Watchdog.create ~stall_epochs:2 ~flight progress in
  for _ = 1 to 3 do
    ignore (Harness.Watchdog.step wd)
  done;
  let pm = Harness.Watchdog.post_mortem wd in
  print_newline ();
  print_string pm;
  check l "watchdog reports the parked victim"
    (Harness.Watchdog.stalled wd <> []);
  check l "post-mortem embeds the flight dump"
    (Setup.contains pm "flight recorder");
  (* Honest flight-dump checks: nonempty and strictly stamp-ordered. *)
  let dump = Obs.Flight.dump flight in
  check l "flight dump is non-empty" (dump <> []);
  let rec ordered = function
    | a :: (b :: _ as rest) ->
        a.Obs.Flight.stamp < b.Obs.Flight.stamp && ordered rest
    | _ -> true
  in
  check l "flight dump is strictly stamp-ordered" (ordered dump);
  check l "recorder saw the storm's yield points"
    (Obs.Flight.recorded flight > 0);
  (* Heal and release. *)
  let repairs = Trie.scrub t in
  check l "scrub committed the parked transaction"
    (repairs >= 1 && Trie.lookup t 7 = Some 2);
  Chaos.release inj;
  Domain.join victim;
  check l "structure validates after the storm"
    (Trie.validate t = Ok ())

(* -------------------------------- cache ------------------------------- *)

(* Deterministic self-check of the bounded cache tier: the budget
   invariant and exact accounting under a zipfian read-through load,
   deterministic TTL expiry on an injected clock (on read, and by the
   eviction scan for entries nobody reads), negative-caching
   stampede absorption, and the serving layer's opt-in cache mode end
   to end — including the tier counters showing up in the Prometheus
   export. *)

module Cache_tier = Cache.Make (Trie)
module Cache_server = Setup.Serving (Trie)

let cache scale l =
  let n =
    match scale with Harness.Suites.Quick -> 200_000 | Full -> 2_000_000
  in
  let budget = 1 lsl 15 in
  let universe = 50_000 in
  let keys =
    Harness.Workload.zipf_keys ~seed:0xCAC4E ~n ~universe 0.99
  in
  (* Phase 1 — budget + accounting under skewed load. *)
  let t =
    Cache_tier.create ~config:(Cache.default_config ~budget_words:budget) ()
  in
  let load k = Some (string_of_int k) in
  Array.iter (fun k -> ignore (Cache_tier.get_or_load t k ~load)) keys;
  let s = Cache_tier.stats t in
  check l "zipf: resident footprint within budget"
    (s.Cache.used_words <= budget);
  check l "zipf: quiescent accounting reconciles"
    (Cache_tier.validate t = Ok ());
  check l "zipf: skewed load hits at least 30%"
    (float_of_int s.Cache.hits
     >= 0.3 *. float_of_int (s.Cache.hits + s.Cache.misses));
  check l "zipf: eviction happened (universe >> budget)"
    (s.Cache.evictions > 0);
  (* Phase 2 — deterministic TTL on an injected clock. *)
  let clk = Atomic.make 0 in
  let now () = Atomic.get clk in
  let tc =
    Cache_tier.create ~config:(Cache.default_config ~budget_words:budget) ~now ()
  in
  ignore (Cache_tier.put ~ttl_ns:100 tc 1 "short");
  ignore (Cache_tier.put tc 2 "forever");
  check l "ttl: live before its deadline" (Cache_tier.get tc 1 = Some "short");
  Atomic.set clk 150;
  check l "ttl: dead past its deadline" (Cache_tier.get tc 1 = None);
  check l "ttl: immortal entry unaffected"
    (Cache_tier.get tc 2 = Some "forever");
  (* Expired entries nobody reads: a full small tier admits new
     entries, and its eviction scan reclaims the dead ones. *)
  let small = 8 * Cache.entry_overhead_words in
  let tw =
    Cache_tier.create ~config:(Cache.default_config ~budget_words:small) ~now
      ~cost:(fun _ _ -> 0) ()
  in
  for k = 1 to 8 do
    ignore (Cache_tier.put ~ttl_ns:100 tw k "short")
  done;
  Atomic.set clk 1_000;
  for k = 9 to 16 do
    ignore (Cache_tier.put tw k "new")
  done;
  let s = Cache_tier.stats tw in
  check l "ttl: eviction scan reclaims unread expired entries"
    (s.Cache.hits + s.Cache.misses = 0
    && s.Cache.expirations = 8 && s.Cache.evictions = 0
    && s.Cache.resident = 8);
  check l "ttl: budget held while reclaiming"
    (s.Cache.used_words <= small && Cache_tier.validate tw = Ok ());
  (* Phase 3 — negative caching absorbs an absent-key storm. *)
  let loads = ref 0 in
  let load _ = incr loads; None in
  ignore (Cache_tier.get_or_load tc 404 ~load);
  for _ = 1 to 1_000 do
    ignore (Cache_tier.get_or_load tc 404 ~load)
  done;
  check l "negative: storm on an absent key costs one load" (!loads = 1);
  (* Phase 4 — serving layer cache mode, end to end. *)
  let backing = Trie.create () in
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
              Trie.lookup backing k));
      c_put =
        (fun k v ->
          let prev = Trie.add backing k v in
          ignore (Cache_tier.put front k v);
          Option.is_some prev);
      c_remove =
        (fun k ->
          ignore (Cache_tier.remove front k);
          Trie.remove backing k <> None);
    }
  in
  Cache_server.with_server ~cache:cache_ops (Trie.create ()) (fun srv ->
      let c = Kv.Client.connect ~port:(Cache_server.Srv.port srv) () in
      Fun.protect
        ~finally:(fun () -> Kv.Client.close c)
        (fun () ->
          check l "serve: put through the cache tier"
            (Kv.Client.put c 1 "one" = Kv.Protocol.Stored false);
          check l "serve: overwrite through the cache tier"
            (Kv.Client.put c 1 "one" = Kv.Protocol.Stored true);
          check l "serve: read back through the tier"
            (Kv.Client.get c 1 = Kv.Protocol.Value "one");
          check l "serve: absent key is Nil"
            (Kv.Client.get c 99 = Kv.Protocol.Nil);
          check l "serve: absent key again (cached negative)"
            (Kv.Client.get c 99 = Kv.Protocol.Nil);
          check l "serve: remove through the tier"
            (Kv.Client.remove c 1 = Kv.Protocol.Removed);
          check l "serve: removed key gone"
            (Kv.Client.get c 1 = Kv.Protocol.Nil)));
  let s = Cache_tier.stats front in
  check l "serve: tier counted hits" (s.Cache.hits >= 1);
  check l "serve: tier counted a negative hit" (s.Cache.negative_hits >= 1);
  let prom = Obs.Export.prometheus () in
  check l "export: tier_hits in the Prometheus export"
    (Setup.contains prom "tier_hits");
  check l "export: cache-tier family labelled" (Setup.contains prom "cache-tier")

(* --------------------------------- mc --------------------------------- *)

(* Replay exits 0 only when the trace reproduces its failure exactly;
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

let mc scenario trace =
  match trace with
  | Some file -> (
      match Mc.trace_of_string (Setup.read_file file) with
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
      if List.for_all mc_explore_one scenarios then 0 else 1)
