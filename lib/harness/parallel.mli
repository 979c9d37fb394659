(** Multi-domain benchmark execution.

    Spawns worker domains, synchronizes them on a {!Barrier.t} and
    times the window from the first worker's start to the last
    worker's end, each worker stamping its own — the methodology
    behind the paper's Figures 11-13. *)

val run_timed : domains:int -> (int -> unit) -> float
(** [run_timed ~domains body] runs [body d] on [domains] domains
    (domain index [d] in [0, domains)) starting simultaneously and
    returns the seconds from the earliest worker start to the latest
    worker end. *)

val run_counted :
  domains:int -> (int -> Ct_util.Stripe.t -> unit) -> float * int
(** [run_counted ~domains body] is {!run_timed} plus per-domain
    throughput counters: [body d counters] records the operations it
    completed with [Ct_util.Stripe.add counters d n] (each domain's
    slot is alone on its cache line, so counting never causes false
    sharing between domains).  Returns [(elapsed_seconds, total_ops)]
    with the counters summed after every domain has joined. *)

val best_of :
  reps:int -> domains:int -> (unit -> int -> Ct_util.Stripe.t -> unit) ->
  float * int
(** [best_of ~reps ~domains prepare] times [reps] runs of
    {!run_counted} and returns the fastest one's
    [(elapsed_seconds, total_ops)]: interference only ever slows a run
    down, so the minimum is the cleanest observation.  Each rep first
    calls [prepare ()] outside the timed window and runs the worker
    body it returns, so a rep that needs a fresh map builds it there.
    @raise Invalid_argument if [reps <= 0]. *)

val run_collect : domains:int -> (int -> 'a) -> 'a list
(** [run_collect ~domains body] runs [body] on each domain after a
    common barrier and returns the per-domain results in index
    order. *)

val available_domains : unit -> int
(** Recommended domain count on this machine. *)
