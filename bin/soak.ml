(* repro serve and repro trace — the chaos-on serving soaks.

   repro serve                  overload soak: calibrate capacity on a
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
                                fresh server and verify its ledger
   repro trace [--out F]        the same soak with head sampling on,
                                checked span tree by span tree *)

module Loadgen = Kv.Loadgen
module Progress = Ct_util.Progress
module Json = Harness.Report.Json

let check = Setup.check

(* Mild ambient hostility for the soak: rare connection severs and
   read pauses, plus an occasional slow-loris that the 0.15s idle
   timeout is expected to cut off mid-frame. *)
let chaos_plan =
  {
    Chaos.Net.seed = 0xBAD5EED;
    drop_one_in = 400;
    loris_one_in = 2000;
    loris_chunk = 8;
    loris_delay = 0.2;
    pause_reads_one_in = 300;
    pause_reads_s = 0.05;
  }

(* The soak is generic over the map it fronts: [--map] picks the
   structure, running the same overload/chaos/drain gauntlet against
   the trie or the flat open-addressing contender. *)
module Make (M : Ct_util.Map_intf.CONCURRENT_MAP with type key = int) = struct
  module S = Setup.Serving (M)

  (* Calibrate on a quiet run at a saturating offered rate — its
     goodput is the capacity — then offer 2x that capacity with the
     chaos plan on and bounded worker stalls injected at the server's
     own yield points.  [sample n] is the head-sampling rate of an
     [n]-request soak (0 = untraced).  Returns the capacity, the
     soak's outcome and the number of stalls that fired. *)
  let calibrate_and_soak l srv ~duration ~cal_n ~soak_cap ~seed ~sample =
    let cal = S.offer srv { Setup.plan with Loadgen.n = cal_n; rate = 60_000.0 } in
    Format.printf "calibration: %a@." Loadgen.pp_summary cal.Setup.summary;
    check l "calibration ledger verifies" cal.Setup.verified;
    let capacity = Float.max 2_000.0 cal.Setup.summary.Loadgen.ok_rate in
    let offered = 2.0 *. capacity in
    let n = min soak_cap (int_of_float (offered *. duration)) in
    let plan =
      {
        Setup.plan with
        Loadgen.seed;
        n;
        rate = offered;
        net = chaos_plan;
        trace_one_in = sample n;
      }
    in
    let stall =
      Chaos.Net.stall_sites ~seed:41 ~one_in:5_000 ~max_stalls:3 ~duration:0.3
        "server.worker."
    in
    Printf.printf
      "soak: offering %.0f req/s (2x measured capacity) for %d requests%s, \
       chaos on\n%!"
      offered n
      (if plan.Loadgen.trace_one_in = 0 then ""
       else Printf.sprintf ", 1-in-%d sampled" plan.Loadgen.trace_one_in);
    let soak = S.offer srv plan in
    Chaos.clear ();
    Format.printf "%a@." Loadgen.pp_summary soak.Setup.summary;
    check l "soak ledger verifies (zero silent drops)" soak.Setup.verified;
    (capacity, soak, Chaos.Net.stalls_fired stall)

  let serve_soak scale trace_out l =
    let duration, cal_n, soak_cap =
      match scale with
      | Harness.Suites.Quick -> (2.0, 20_000, 150_000)
      | Full -> (8.0, 60_000, 600_000)
    in
    let progress = Progress.create ~slots:Setup.workers () in
    let flight = Obs.Flight.create ~size:1024 () in
    Obs.Flight.install_with_progress flight progress;
    Fun.protect
      ~finally:(fun () ->
        Chaos.clear ();
        Obs.Flight.uninstall ())
    @@ fun () ->
    S.with_server ~progress (M.create ()) @@ fun srv ->
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
    let capacity, soak, stalls =
      calibrate_and_soak l srv ~duration ~cal_n ~soak_cap ~seed:0x50AC
        ~sample:(fun _ -> 0)
    in
    let s = soak.Setup.summary in
    (match trace_out with
    | None -> ()
    | Some file ->
        let oc = open_out file in
        output_string oc (Loadgen.to_string s.Loadgen.plan);
        close_out oc;
        Printf.printf "wrote %s\n%!" file);
    check l "typed sheds observed under 2x overload" (Loadgen.shed s >= 1);
    Printf.printf "accepted-request p99 (server histogram): %.1f ms\n%!"
      (soak.Setup.accepted_p99 /. 1e6);
    check l "accepted p99 under the configured bound"
      (soak.Setup.accepted_p99
      <= float_of_int Setup.config.Kv.Server.p99_bound_ns);
    let server_sheds =
      S.Srv.stat srv "shed_queue_full"
      + S.Srv.stat srv "shed_latency_breach"
      + S.Srv.stat srv "shed_shutdown"
      + S.Srv.stat srv "deadline_expired"
    in
    (* The generator can only ever see a subset of the server's typed
       sheds (replies on connections that died in flight are lost). *)
    check l "server accounted at least the client-observed sheds"
      (server_sheds >= Loadgen.shed s);
    Printf.printf "worker stalls injected: %d, watchdog stall reports: %d\n%!"
      stalls (Atomic.get stall_reports);
    check l "watchdog caught every injected stall episode"
      (stalls = 0 || Atomic.get stall_reports >= 1);
    check l "stall post-mortem embeds the flight dump"
      (Atomic.get stall_reports = 0 || Setup.contains !pm_emitted "flight recorder");
    (* Phase 3 — graceful drain under live traffic. *)
    let drain_plan =
      {
        s.Loadgen.plan with
        Loadgen.seed = 0xD7A1;
        n = min 40_000 (int_of_float capacity);
        rate = capacity;
        net = Chaos.Net.quiet;
      }
    in
    let drain_result = ref None in
    let executed0 = S.Srv.stat srv "executed" in
    let gen =
      Thread.create
        (fun () -> drain_result := Some (S.offer srv drain_plan))
        ()
    in
    (* Drain only once the phase's traffic is being served, so the drain
       meets live requests; bounded, so a load that never arrives shows
       as the ok-reply check below failing, not as a hang. *)
    let live_by = Ct_util.Clock.now_ns () + 5_000_000_000 in
    while
      S.Srv.stat srv "executed" <= executed0 && Ct_util.Clock.now_ns () < live_by
    do
      Unix.sleepf 1e-3
    done;
    check l "drain flushed every queued request" (S.Srv.drain ~timeout:10.0 srv);
    Thread.join gen;
    (match !drain_result with
    | None -> check l "drain-phase load generator finished" false
    | Some { Setup.summary = d; verified; _ } ->
        Format.printf "%a@." Loadgen.pp_summary d;
        check l "drain-phase ledger verifies" verified;
        check l "drain produced typed shutdown replies or accounted drops"
          (d.Loadgen.shutting_down >= 1 || d.Loadgen.dropped >= 1);
        check l "drain-phase load was served before the drain"
          (d.Loadgen.ok >= 1));
    (* Workers detached on drain: a clean shutdown must not read as a
       stall. *)
    Harness.Watchdog.stop w;
    let post_drain_stalls = ref 0 in
    for _ = 1 to 3 do
      post_drain_stalls :=
        !post_drain_stalls + List.length (Harness.Watchdog.step w)
    done;
    check l "clean drain leaves no stall reports" (!post_drain_stalls = 0);
    print_endline "server stats:";
    List.iter
      (fun (label, v) -> if v > 0 then Printf.printf "  %-24s %d\n" label v)
      (S.Srv.stats srv)

  let serve_replay file l =
    match Loadgen.of_string (Setup.read_file file) with
    | Error e -> check l (Printf.sprintf "trace %s parses: %s" file e) false
    | Ok plan ->
        S.with_server (M.create ()) @@ fun srv ->
        let r = S.offer srv plan in
        Format.printf "%a@." Loadgen.pp_summary r.Setup.summary;
        check l "replayed ledger verifies (zero silent drops)" r.Setup.verified

  (* repro trace — end-to-end tracing self-check (DESIGN.md §16).

     Phase 1, propagation: a sampled context survives the frame
     encode/decode roundtrip bit-exactly, a frame whose trace
     extension was truncated in flight degrades to an untraced
     request (never a decode error), and a pre-extension frame
     parses with no trace.

     Phase 2, the soak: the serve soak's calibrate + 2x chaos phase
     with 1-in-N head sampling and the span collector installed.
     Afterwards the server latency histogram's tail exemplar must
     resolve to a complete resident span tree covering the p99 tail,
     and the partition stages (queue wait + exec + fsync wait) must
     sum to the request span within 5%.  The resident window is also
     exported as Chrome trace-event JSON for Perfetto. *)
  let serve_trace scale out l =
    (* Phase 1 — propagation. *)
    let module P = Kv.Protocol in
    let payload req =
      let b = P.encode_request req in
      Bytes.sub b 4 (Bytes.length b - 4)
    in
    let ctx = Obs.Trace.make ~sampled:true 0x1234_5678_9ABC in
    let req = { P.id = 7; deadline_ns = 1_000_000; op = P.Put (3, "v"); trace = ctx } in
    check l "sampled context roundtrips the frame"
      (match P.decode_request (payload req) with
      | Ok got ->
          got = req
          && Obs.Trace.id got.P.trace = Obs.Trace.id ctx
          && Obs.Trace.sampled got.P.trace
      | Error _ -> false);
    let unsampled = Obs.Trace.make ~sampled:false 42 in
    check l "unsampled-but-traced flag survives"
      (match P.decode_request (payload { req with P.trace = unsampled }) with
      | Ok got -> got.P.trace = unsampled && not (Obs.Trace.sampled got.P.trace)
      | Error _ -> false);
    let get_req = { P.id = 9; deadline_ns = 0; op = P.Get 5; trace = ctx } in
    let gp = payload get_req in
    check l "truncated extension degrades to an untraced request"
      (match P.decode_request (Bytes.sub gp 0 (Bytes.length gp - 4)) with
      | Ok got -> got.P.trace = Obs.Trace.none && got.P.op = P.Get 5
      | Error _ -> false);
    check l "pre-extension frame parses with no trace"
      (match P.decode_request (payload { get_req with P.trace = Obs.Trace.none }) with
      | Ok got -> got.P.trace = Obs.Trace.none && got = { get_req with P.trace = 0 }
      | Error _ -> false);
    (* Phase 2 — the traced soak. *)
    let duration, cal_n, soak_cap =
      match scale with
      | Harness.Suites.Quick -> (2.0, 20_000, 120_000)
      | Full -> (6.0, 60_000, 400_000)
    in
    let tr = Obs.Trace.create ~size:32768 () in
    Obs.Trace.install tr;
    Fun.protect
      ~finally:(fun () ->
        Chaos.clear ();
        Obs.Trace.uninstall ())
    @@ fun () ->
    S.with_server (M.create ()) @@ fun srv ->
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
    let _, soak, _ =
      calibrate_and_soak l srv ~duration ~cal_n ~soak_cap ~seed:0x7ACE
        ~sample:(fun n -> max 16 (n / 4096) lor 1)
    in
    let s = soak.Setup.summary in
    check l "soak minted trace ids for every request"
      (Array.length s.Loadgen.trace_ids = s.Loadgen.plan.Loadgen.n
      && Array.for_all (fun id -> id <> 0) s.Loadgen.trace_ids);
    ignore (S.Srv.drain ~timeout:10.0 srv);
    check l "sampled requests recorded spans" (Obs.Trace.recorded tr > 0);
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
    check l "resident window holds complete span trees" (!trees > 0);
    check l "every complete tree sums within 5%" (!within = !trees);
    (* The tail exemplar: walk the latency histogram's exemplar cells
       from the slowest bucket down and resolve the first complete
       resident tree.  Its bucket must cover the p99 of the sampled
       population (the exemplar machinery indexed the slowest sampled
       request correctly) and the p90 of all served requests (the
       sampled tail is representative — ~servedx10%/rate occupants, so
       this is stable; whether a sampled request lands above the
       overall p99 is luck when the extreme tail is a single stalled
       queue of 64). *)
    let lat = S.Srv.latency srv in
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
    | None -> check l "tail exemplar resolves to a complete span tree" false
    | Some (bucket, id, spans) ->
        check l "tail exemplar resolves to a complete span tree" true;
        Printf.printf
          "tail exemplar: trace %016x, bucket %d (<%.0f ns); served p90 %.0f ns, \
           p99 %.0f ns, sampled p99 %.0f ns\n%!"
          id bucket
          (Obs.Latency.bucket_upper_ns bucket)
          p90 p99 sampled_p99;
        List.iter
          (fun sp -> print_endline ("  " ^ Obs.Trace.span_to_string sp))
          spans;
        check l "tail exemplar covers the sampled population's p99"
          (Obs.Latency.bucket_upper_ns bucket >= sampled_p99);
        check l "tail exemplar covers the served p90 tail"
          (Obs.Latency.bucket_upper_ns bucket >= p90);
        check l "tail exemplar stages sum to its request span (within 5%)"
          (sums_within spans));
    Json.write_file out (Harness.Obs_report.chrome_trace_json tr);
    Printf.printf "wrote %s (open in Perfetto or chrome://tracing)\n%!" out
end

module On_trie = Make (Setup.Trie)
module On_folklore = Make (Oa.Folklore.Make (Ct_util.Hashing.Int_key))

let serve scale ~map ~replay ~trace_out l =
  let soak, rep =
    match map with
    | "oa-folklore" -> (On_folklore.serve_soak, On_folklore.serve_replay)
    | _ -> (On_trie.serve_soak, On_trie.serve_replay)
  in
  match replay with Some file -> rep file l | None -> soak scale trace_out l

let trace scale ~out l = On_trie.serve_trace scale out l
