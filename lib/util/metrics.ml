(* Per-structure telemetry counters (DESIGN.md §11).

   One [Metrics.t] per map instance, holding every counter of the
   fixed [counter] vocabulary in one [Stripe.t] row per domain slot:
   the calling domain bumps column [index c] of the row its
   [Domain_slot] lease names.  A row is padded to the stripe's 128-byte
   stride, so two domains bumping their own counters never share a
   cache line, and a bump is a plain read-add-write of one int — no
   CAS, no allocation.  Leased slots are dense and exclusive, so no
   increment is lost; a domain beyond [Domain_slot.capacity] bumps the
   shared overflow row through a CAS instead.

   Counters are always compiled in; [set_enabled false] turns every
   bump into a single load-and-branch, which is what the obs-off side
   of the BENCH_obs.json overhead measurement runs.

   A global registry keeps a weak reference to every live instance so
   exporters can aggregate per family ("cachetrie", "ctrie-snap", ...)
   without the structures registering anywhere explicitly.  Weak, so
   the thousands of short-lived maps the property tests create are
   collected normally. *)

type counter =
  | Cas_attempts
  | Cas_retries
  | Helps
  | Freezes
  | Expansions
  | Compressions
  | Entombments
  | Cache_hits
  | Cache_misses
  | Cache_invalidations
  | Scrub_repairs
  | Sampling_passes
  | Cache_installs
  | Cache_adjustments
  | Wal_appends
  | Wal_fsyncs
  | Wal_retries
  | Checkpoints
  | Checkpoint_records
  | Recovery_replayed
  | Tier_hits
  | Tier_misses
  | Tier_negative_hits
  | Tier_evictions
  | Tier_expirations
  | Tier_rejections
  | Renewals

(* [@inline] matters: without flambda this match is otherwise a real
   call on every bump, and after inlining at a constant-constructor
   call site it folds to the literal slot offset. *)
let[@inline] index = function
  | Cas_attempts -> 0
  | Cas_retries -> 1
  | Helps -> 2
  | Freezes -> 3
  | Expansions -> 4
  | Compressions -> 5
  | Entombments -> 6
  | Cache_hits -> 7
  | Cache_misses -> 8
  | Cache_invalidations -> 9
  | Scrub_repairs -> 10
  | Sampling_passes -> 11
  | Cache_installs -> 12
  | Cache_adjustments -> 13
  | Wal_appends -> 14
  | Wal_fsyncs -> 15
  | Wal_retries -> 16
  | Checkpoints -> 17
  | Checkpoint_records -> 18
  | Recovery_replayed -> 19
  | Tier_hits -> 20
  | Tier_misses -> 21
  | Tier_negative_hits -> 22
  | Tier_evictions -> 23
  | Tier_expirations -> 24
  | Tier_rejections -> 25
  | Renewals -> 26

let all =
  [
    Cas_attempts; Cas_retries; Helps; Freezes; Expansions; Compressions;
    Entombments; Cache_hits; Cache_misses; Cache_invalidations; Scrub_repairs;
    Sampling_passes; Cache_installs; Cache_adjustments; Wal_appends;
    Wal_fsyncs; Wal_retries; Checkpoints; Checkpoint_records;
    Recovery_replayed; Tier_hits; Tier_misses; Tier_negative_hits;
    Tier_evictions; Tier_expirations; Tier_rejections; Renewals;
  ]

let n_counters = List.length all

let label = function
  | Cas_attempts -> "cas_attempts"
  | Cas_retries -> "cas_retries"
  | Helps -> "helps"
  | Freezes -> "freezes"
  | Expansions -> "expansions"
  | Compressions -> "compressions"
  | Entombments -> "entombments"
  | Cache_hits -> "cache_hits"
  | Cache_misses -> "cache_misses"
  | Cache_invalidations -> "cache_invalidations"
  | Scrub_repairs -> "scrub_repairs"
  | Sampling_passes -> "sampling_passes"
  | Cache_installs -> "cache_installs"
  | Cache_adjustments -> "cache_adjustments"
  | Wal_appends -> "wal_appends"
  | Wal_fsyncs -> "wal_fsyncs"
  | Wal_retries -> "wal_retries"
  | Checkpoints -> "checkpoints"
  | Checkpoint_records -> "checkpoint_records"
  | Recovery_replayed -> "recovery_replayed"
  | Tier_hits -> "tier_hits"
  | Tier_misses -> "tier_misses"
  | Tier_negative_hits -> "tier_negative_hits"
  | Tier_evictions -> "tier_evictions"
  | Tier_expirations -> "tier_expirations"
  | Tier_rejections -> "tier_rejections"
  | Renewals -> "renewals"

(* [words] is [Stripe.words rows], kept at hand for the bump below. *)
type t = {
  family : string;
  rows : Stripe.t;
  words : int array;
}

(* Global on/off gate for every bump in the program.  A plain bool ref:
   toggling races only delay the effect by a few bumps. *)
let enabled = ref true
let set_enabled b = enabled := b

(* ------------------------------ registry --------------------------- *)

let registry : t Weak.t list Atomic.t = Atomic.make []

let rec push cell =
  let cur = Atomic.get registry in
  if not (Atomic.compare_and_set registry cur (cell :: cur)) then push cell

(* Drop collected entries once they dominate the list.  The CAS only
   succeeds if nobody registered meanwhile; losing the race just skips
   one pruning opportunity. *)
let prune cur =
  if List.length cur > 64 then begin
    let alive = List.filter (fun w -> Weak.check w 0) cur in
    if List.length alive * 2 < List.length cur then
      ignore (Atomic.compare_and_set registry cur alive)
  end

let live () =
  let cur = Atomic.get registry in
  prune cur;
  List.filter_map (fun w -> Weak.get w 0) cur

let create ~family =
  let rows = Stripe.create ~width:n_counters () in
  let t = { family; rows; words = Stripe.words rows } in
  let cell = Weak.create 1 in
  Weak.set cell 0 (Some t);
  push cell;
  t

let family t = t.family

(* ------------------------------- bumps ----------------------------- *)

(* Hot-path variant: capture the domain's row handle once per
   operation (where the [Domain_slot.get] call clobbers nothing of
   value), then bump through it with pure array arithmetic.  -1 while
   disabled, so the per-bump gate is the handle's own sign test; the
   shared overflow row (and -1) take the call into [Stripe]. *)
let[@inline] cursor t = if !enabled then Stripe.cursor t.rows else -1

let[@inline] add_at t cur c n =
  if cur >= 0 then begin
    let i = cur + index c in
    Array.unsafe_set t.words i (Array.unsafe_get t.words i + n)
  end
  else Stripe.add_at t.rows cur (index c) n

let[@inline] incr_at t cur c = add_at t cur c 1
let[@inline] add t c n = if !enabled then add_at t (Stripe.cursor t.rows) c n
let[@inline] incr t c = add t c 1

(* ------------------------------- reads ----------------------------- *)

(* Single-cell read through a cursor: the calling domain's own count of
   [c], not the cross-row sum.  Cheap enough to bracket one operation
   with (two array loads), which is what the tracer uses to annotate a
   span with the CAS retries or cache misses that operation alone
   performed — [get] would pay a full row sweep and mix in every other
   domain's traffic. *)
let[@inline] get_at t cur c = Stripe.get_at t.rows cur (index c)

let get t c = Stripe.sum_col t.rows (index c)

let snapshot t = List.map (fun c -> (label c, get t c)) all

let reset t = Stripe.fill t.rows 0

(* ---------------------------- aggregation -------------------------- *)

(* Sum every live instance per family; families sorted by name so the
   exporters are deterministic given the same set of live maps. *)
let aggregate () =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun t ->
      let count, totals =
        match Hashtbl.find_opt tbl t.family with
        | Some (c, a) -> (c, a)
        | None ->
            let a = Array.make n_counters 0 in
            Hashtbl.add tbl t.family (ref 0, a);
            (ref 0, a)
      in
      Stdlib.incr count;
      List.iter (fun c -> totals.(index c) <- totals.(index c) + get t c) all)
    (live ());
  Hashtbl.fold
    (fun family (count, totals) acc ->
      ( family,
        !count,
        List.map (fun c -> (label c, totals.(index c))) all )
      :: acc)
    tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
