(** Exponential backoff for CAS retry loops.

    The paper's operations retry immediately; under heavy contention a
    bounded randomized backoff reduces cache-line ping-pong without
    affecting lock-freedom (some thread always makes progress).  Used
    by the benchmark drivers, the striped table and the chaos delay
    injector — the trie algorithms themselves retry bare, as in the
    paper. *)

type t

val create :
  ?min_wait:int ->
  ?max_wait:int ->
  ?budget:int ->
  ?seed:int ->
  unit ->
  t
(** [create ()] makes a backoff controller; [min_wait]/[max_wait] are
    spin iteration counts (defaults 16 and 4096).  [budget] is a soft
    CAS-retry budget: once more than [budget] draws happen without a
    {!reset}, {!over_budget} turns true so the caller can report the
    contention (the watchdog's stuck-site escalation) — it never blocks
    progress.  [budget = 0] (default) disables the check.  [seed]
    fixes the PRNG drawing the spin lengths; by default each instance
    gets a distinct deterministic seed, so concurrently contending
    domains do not back off in lockstep. *)

val once : t -> unit
(** [once t] spins for the current window and doubles it (capped). *)

val next_wait : t -> int
(** [next_wait t] draws the spin count [once] would use and doubles the
    window, without spinning — for custom waiters (the chaos jitter
    injector) and for testing seed behaviour. *)

val reset : t -> unit
(** [reset t] shrinks the window back to [min_wait] and zeroes the
    per-attempt retry counter (call it when the contended operation
    finally succeeds). *)

val retries : t -> int
(** Draws ({!once}/{!next_wait} calls) since the last {!reset} — the
    CAS-retry count of the current attempt. *)

val total_retries : t -> int
(** Draws over the controller's lifetime (never reset). *)

val over_budget : t -> bool
(** [true] iff a budget was set at {!create} time and the current
    attempt has exceeded it.  Purely advisory. *)
