(* [sink] absorbs the spin loop's result so the compiler cannot delete
   the loop.  It used to be one global [ref] shared by every controller
   — a word written by all backing-off domains at once, i.e. false
   sharing at the exact moment the structure is most contended.  It is
   now a per-instance slot inside a padded array: [pad] empty words on
   either side keep it alone on its cache line (and off its neighbour
   line, for the adjacent-line prefetcher), so controllers on different
   domains never write the same line. *)

let pad = 16

type t = {
  min_wait : int;
  max_wait : int;
  mutable wait : int;
  budget : int; (* 0 = unlimited *)
  mutable retries : int; (* draws since last [reset] *)
  mutable total_retries : int; (* draws over the controller's lifetime *)
  rng : Rng.t;
  sink : int array; (* length 2*pad+1; slot [pad] is the live one *)
}

(* Distinct default seed per instance: with a shared constant seed all
   controllers draw identical spin sequences, so contending domains
   back off in lockstep and collide again.  The counter keeps default
   construction deterministic (instance n always gets the same seed)
   while decorrelating concurrent instances. *)
let instances = Atomic.make 0

let create ?(min_wait = 16) ?(max_wait = 4096) ?(budget = 0) ?seed () =
  if min_wait <= 0 || max_wait < min_wait || budget < 0 then
    invalid_arg "Backoff.create";
  let seed =
    match seed with
    | Some s -> s
    | None ->
        Rng.mix64 (0x2545F4914F6CDD1D lxor Atomic.fetch_and_add instances 1)
  in
  {
    min_wait;
    max_wait;
    wait = min_wait;
    budget;
    retries = 0;
    total_retries = 0;
    rng = Rng.create seed;
    sink = Array.make ((2 * pad) + 1) 0;
  }

let next_wait t =
  t.retries <- t.retries + 1;
  t.total_retries <- t.total_retries + 1;
  let n = Rng.next_int t.rng t.wait in
  if t.wait < t.max_wait then t.wait <- t.wait * 2;
  n

let once t =
  let n = next_wait t in
  let acc = ref 0 in
  for i = 1 to n do
    acc := !acc + i
  done;
  Array.unsafe_set t.sink pad !acc

let reset t =
  t.wait <- t.min_wait;
  t.retries <- 0

let retries t = t.retries
let total_retries t = t.total_retries
let over_budget t = t.budget > 0 && t.retries > t.budget
