let available_domains () = Domain.recommended_domain_count ()

(* Spawn [domains] workers released together by a barrier.  Each worker
   stamps its own start and end around [body d], and the window is the
   latest end minus the earliest start: timing from the main thread
   would start the clock late whenever a released worker runs before
   the main thread resumes (or, with few cores, runs to completion). *)
let spawn_timed ~what ~domains body =
  if domains <= 0 then invalid_arg what;
  let barrier = Barrier.create domains in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            Barrier.await barrier;
            let t0 = Ct_util.Clock.monotonic_ns () in
            let r = body d in
            (t0, Ct_util.Clock.monotonic_ns (), r)))
  in
  let runs = List.map Domain.join workers in
  let t0 = List.fold_left (fun a (s, _, _) -> min a s) max_int runs in
  let t1 = List.fold_left (fun a (_, e, _) -> max a e) min_int runs in
  (* Monotonic, not wall-clock: an NTP step during a run must not be
     able to produce a negative or inflated elapsed. *)
  ( Report.checked_elapsed ~what (float_of_int (t1 - t0) *. 1e-9),
    List.map (fun (_, _, r) -> r) runs )

let run_collect ~domains body =
  snd (spawn_timed ~what:"Parallel.run_collect" ~domains body)

let run_timed ~domains body =
  fst (spawn_timed ~what:"Parallel.run_timed" ~domains body)

let run_counted ~domains body =
  (* Per-domain op counters live in one cache-line-padded stripe so
     that domains bumping their own counter never invalidate each
     other's lines. *)
  let counters = Ct_util.Stripe.create ~stripes:domains () in
  let elapsed, _ =
    spawn_timed ~what:"Parallel.run_counted" ~domains (fun d -> body d counters)
  in
  (elapsed, Ct_util.Stripe.sum counters)

let best_of ~reps ~domains prepare =
  if reps <= 0 then invalid_arg "Parallel.best_of";
  let best = ref (infinity, 0) in
  for _ = 1 to reps do
    let run = run_counted ~domains (prepare ()) in
    if fst run < fst !best then best := run
  done;
  !best
