(* repro — the one command-line front end for the paper's evaluation.

     repro fig9 ... replay [--full]   one table/figure each
                                      (Harness.Suites.experiments)
     repro all [--full]               every experiment above in sequence
     repro bench [--full] [NAME...]   the BENCH_*.json writers (Bench)
     repro obs [--full|--demo]        observability self-check (Checks)
     repro cache [--full]             bounded cache tier self-check
     repro mc [--scenario N|--trace F] schedule exploration
     repro serve [--map M] [--replay F|--trace-out F]
                                      chaos-on overload soak (Soak)
     repro trace [--out F]            end-to-end tracing self-check
     repro recover [--crashes N]      durable-mode crash-recovery storm
                                      (Recover)

   This file is the command table: argv grammar and exit codes.  Every
   self-check reports through a Setup.ledger and exits nonzero on any
   failed check. *)

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

(* A subcommand whose runner reports through a check ledger. *)
let checked name run timeout =
  arm_timeout timeout;
  Setup.exit_code name run

let experiment name doc f =
  let run timeout scale = checked name (fun _ -> f scale) timeout in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ timeout_term $ scale_term)

let all_cmd =
  let run timeout scale =
    checked "all"
      (fun _ -> List.iter (fun (_, _, f) -> f scale) Harness.Suites.experiments)
      timeout
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment in sequence.")
    Term.(const run $ timeout_term $ scale_term)

let bench_cmd =
  let names =
    let writers = List.map (fun (n, _) -> (n, n)) Bench.writers in
    Arg.(
      value
      & pos_all (enum writers) []
      & info [] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Writer to run: %s.  With none, all six run, in this order."
               (Arg.doc_alts_enum writers)))
  in
  let run scale names = Setup.exit_code "bench" (fun _ -> Bench.run scale names) in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Regenerate the committed BENCH_*.json files: $(b,micro-json) \
          (Bechamel ns/op and minor words/op), $(b,sweeps) (Figures 12 \
          and 13's insert and find throughput per domain count, \
          find_batch and word-count curves, allocation deltas), \
          $(b,obs) (metrics and tracing overhead), $(b,cache) (bounded \
          tier hit rate per budget), $(b,serve) (overload curves) and \
          $(b,persist) (group-commit interval sweep).  Each writes its \
          file into the working directory; CT_BENCH_SEED sets the seed.")
    Term.(const run $ scale_term $ names)

let obs_cmd =
  let demo_term =
    Arg.(
      value & flag
      & info [ "demo" ]
          ~doc:
            "Run the chaos crash-storm demo with the flight recorder and \
             print the watchdog post-mortem, instead of the export flow.")
  in
  let run timeout demo scale =
    checked "obs" (if demo then Checks.obs_demo else Checks.obs_export scale) timeout
  in
  Cmd.v
    (Cmd.info "obs"
       ~doc:
         "Observability: replay a traced workload with metrics and latency \
          histograms, check the counter invariants, and export JSON + \
          Prometheus text; or (--demo) run a crash storm with the flight \
          recorder and print a stamp-ordered post-mortem.")
    Term.(const run $ timeout_term $ demo_term $ scale_term)

let cache_cmd =
  let run timeout scale = checked "cache" (Checks.cache scale) timeout in
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "Self-check of the bounded cache tier: budget invariant and exact \
          accounting under zipfian load, deterministic TTL expiry \
          on an injected clock, negative-caching stampede absorption, and \
          the serving layer's cache mode with exported tier counters.")
    Term.(const run $ timeout_term $ scale_term)

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
  let run timeout scenario trace =
    arm_timeout timeout;
    Checks.mc scenario trace
  in
  Cmd.v
    (Cmd.info "mc"
       ~doc:
         "Deterministic schedule exploration: enumerate fiber interleavings \
          over the structures' yield points, or replay a minimized \
          counterexample trace.")
    Term.(const run $ timeout_term $ scenario_term $ trace_term)

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
  let run timeout map replay trace_out scale =
    checked "serve" (Soak.serve scale ~map ~replay ~trace_out) timeout
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Overload-hardened KV serving soak: calibrate capacity, offer 2x \
          with traffic-path chaos and injected worker stalls, verify the \
          zero-silent-drop ledger, the accepted-p99 bound and the watchdog \
          post-mortem, then drain under live traffic.")
    Term.(
      const run $ timeout_term $ map_term $ replay_term $ trace_out_term
      $ scale_term)

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
  let run timeout out scale = checked "trace" (Soak.trace scale ~out) timeout in
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
    Term.(const run $ timeout_term $ out_term $ scale_term)

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
      value & opt string Recover.store_dir
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Store directory (wiped at start; removed on success).")
  in
  let keep_term =
    Arg.(
      value & flag
      & info [ "keep" ] ~doc:"Keep the store directory even on success.")
  in
  let run timeout crashes seed dir keep =
    if crashes < 1 then begin
      prerr_endline "repro recover: --crashes must be positive";
      2
    end
    else checked "recover" (Recover.storm ~crashes ~seed ~dir ~keep) timeout
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Crash-recovery storm for the durable serving mode: seeded kills \
          mid group-commit and mid checkpoint, strict-then-salvage \
          recovery, and ledger verification that every durably-acked \
          operation survives while nothing unacknowledged is invented.")
    Term.(
      const run $ timeout_term $ crashes_term $ seed_term $ dir_term
      $ keep_term)

let () =
  let info =
    Cmd.info "repro" ~version:"1.0"
      ~doc:"Reproduce the evaluation of the Cache-Tries paper (PPoPP 2018)."
  in
  let cmds =
    (all_cmd :: List.map (fun (n, d, f) -> experiment n d f) Harness.Suites.experiments)
    @ [ bench_cmd; mc_cmd; obs_cmd; cache_cmd; serve_cmd; trace_cmd; recover_cmd ]
  in
  exit (Cmd.eval' (Cmd.group info cmds))
