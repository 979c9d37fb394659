module Clock = Ct_util.Clock
module Stripe = Ct_util.Stripe
module Histogram = Analysis.Histogram

let n_buckets = 64

(* One Ct_util.Stripe row per domain slot, as in Ct_util.Metrics: the
   buckets are columns [0, n_buckets) and the raw-ns sum is column
   [n_buckets]. *)
let sum_off = n_buckets

(* [exem] holds one trace id per bucket — the tail exemplar: the most
   recent sampled request that landed there (0 = none yet).  Unstriped
   and racy by design: last-writer-wins across domains is exactly the
   "most recent occupant" the post-mortem wants, and a torn overwrite
   costs one exemplar, not correctness. *)
type t = { label : string; rows : Stripe.t; exem : int array }

let create ~label =
  {
    label;
    rows = Stripe.create ~width:(n_buckets + 1) ();
    exem = Array.make n_buckets 0;
  }

let label t = t.label

let[@inline] bucket_of_ns ns =
  if ns <= 1 then 0
  else begin
    let b = ref 0 and v = ref ns in
    if !v lsr 32 <> 0 then begin b := !b + 32; v := !v lsr 32 end;
    if !v lsr 16 <> 0 then begin b := !b + 16; v := !v lsr 16 end;
    if !v lsr 8 <> 0 then begin b := !b + 8; v := !v lsr 8 end;
    if !v lsr 4 <> 0 then begin b := !b + 4; v := !v lsr 4 end;
    if !v lsr 2 <> 0 then begin b := !b + 2; v := !v lsr 2 end;
    if !v lsr 1 <> 0 then incr b;
    if !b >= n_buckets then n_buckets - 1 else !b
  end

let bucket_lower_ns b = if b = 0 then 0.0 else ldexp 1.0 b
let bucket_upper_ns b = ldexp 1.0 (b + 1)

(* Traced variant: the histogram update, plus — when the request was
   sampled — its trace id stamped as the bucket's exemplar.  The extra
   cost on the untraced path is one branch. *)
let record_ns_traced t ns ~trace_id =
  let ns = if ns < 0 then 0 else ns in
  let b = bucket_of_ns ns in
  let h = Stripe.cursor t.rows in
  Stripe.add_at t.rows h b 1;
  Stripe.add_at t.rows h sum_off ns;
  if trace_id <> 0 then t.exem.(b) <- trace_id

let record_ns t ns = record_ns_traced t ns ~trace_id:0
let record_span t ~start = record_ns t (Clock.monotonic_ns () - start)

let record_span_traced t ~start ~trace_id =
  record_ns_traced t (Clock.monotonic_ns () - start) ~trace_id

let exemplar t b =
  if b < 0 || b >= n_buckets then invalid_arg "Latency.exemplar: bucket";
  t.exem.(b)

(* (bucket, trace id) for every bucket holding an exemplar, ascending —
   the post-mortem walks this from the top to find the slowest traced
   request still resolvable. *)
let exemplars t =
  let acc = ref [] in
  for b = n_buckets - 1 downto 0 do
    if t.exem.(b) <> 0 then acc := (b, t.exem.(b)) :: !acc
  done;
  !acc

(* The exemplar of the highest non-empty bucket of [counts] or, when
   that bucket's occupant was never sampled, the nearest lower bucket
   with one.  [counts] is passed in (not re-read) so callers can use a
   window diff. *)
let top_exemplar t cnts =
  let top = ref (-1) in
  let n = min (Array.length cnts) n_buckets in
  for b = 0 to n - 1 do
    if cnts.(b) > 0 then top := b
  done;
  let rec down b = if b < 0 then None
    else if t.exem.(b) <> 0 then Some (b, t.exem.(b))
    else down (b - 1)
  in
  down !top

let counts t = Array.init n_buckets (Stripe.sum_col t.rows)

(* Window diff for duty-cycle control loops (the server ticker).  Each
   cell of [counts] is a sum of racy per-row reads; a concurrent
   [reset] (or a torn read mixing ticks) can make [now.(b) < prev.(b)],
   and a control decision made on a negative bucket count is garbage.
   Clamping per bucket keeps the window a valid histogram: at worst a
   clamped window under-counts one interval, which only delays the
   controller by a tick. *)
let diff_counts ~prev ~now =
  if Array.length prev <> Array.length now then
    invalid_arg "Latency.diff_counts: length mismatch";
  Array.init (Array.length now) (fun b ->
      let d = now.(b) - prev.(b) in
      if d < 0 then 0 else d)

let merged_counts ts =
  List.fold_left (fun acc t -> Histogram.merge acc (counts t)) [||] ts

let total t = Array.fold_left ( + ) 0 (counts t)

let sum_ns t = Stripe.sum_col t.rows sum_off

let percentile_of_counts counts p =
  if p < 0.0 || p > 100.0 then
    invalid_arg "Latency.percentile: p outside [0,100]";
  let n = Array.fold_left ( + ) 0 counts in
  if n = 0 then invalid_arg "Latency.percentile: empty histogram";
  (* Nearest-rank over the bucketised distribution: the percentile is
     the value at cumulative count p/100 * n, interpolated linearly
     within its bucket's span.  p = 99 over 5 samples targets rank
     4.95, which lands in the bucket holding the largest sample, as a
     histogram consumer expects (Prometheus uses the same convention). *)
  let target = p /. 100.0 *. float_of_int n in
  let cum = ref 0.0 and b = ref 0 and result = ref 0.0 and found = ref false in
  while not !found && !b < Array.length counts do
    let c = float_of_int counts.(!b) in
    if c > 0.0 && !cum +. c >= target then begin
      let lo = bucket_lower_ns !b and hi = bucket_upper_ns !b in
      let frac = (target -. !cum) /. c in
      let frac = if frac < 0.0 then 0.0 else frac in
      result := lo +. (frac *. (hi -. lo));
      found := true
    end
    else begin
      cum := !cum +. c;
      incr b
    end
  done;
  if !found then !result
  else bucket_upper_ns (Array.length counts - 1)

let percentile t p = percentile_of_counts (counts t) p

let reset t =
  Stripe.fill t.rows 0;
  Array.fill t.exem 0 n_buckets 0
