(* The in-process workloads: map-mixed (a cache-trie on its own) and
   cache-zipf (the bounded cache tier over a cache-trie).  Two domains
   run the ops; each stamps its own start and end after a shared
   barrier, and the cost per op is process CPU, which a descheduled
   domain does not inflate the way wall time does. *)

module Clock = Ct_util.Clock
module Rng = Ct_util.Rng
module CT = Cachetrie.Make (Ct_util.Hashing.Int_key)

let domains = 2

(* 1 op in this many is timed on its own, for the latency percentiles. *)
let sample_every = 32

type dstate = {
  d : int;
  rng : Rng.t;
  mutable ops : int;
  mutable reads : int;
  mutable hits : int;  (** map-mixed: finds that found a binding *)
  mutable wrong : int;  (** results that fail the output check *)
  read_ns : Pctl.buf;
  write_ns : Pctl.buf;
  mutable t_start : int;
  mutable t_end : int;
  mutable minor_words : float;
  (* Traced runs only: the benchmark's spans around tier calls. *)
  mutable tier_ns : int;
  mutable tier_calls : int;
  mutable put_ns : int;
  mutable put_calls : int;
  mutable load_ns : int;
}

let dstate ~seed d =
  {
    d;
    rng = Rng.create ((seed * 1_000_003) + (d * 7919) + 1);
    ops = 0;
    reads = 0;
    hits = 0;
    wrong = 0;
    read_ns = Pctl.buf ();
    write_ns = Pctl.buf ();
    t_start = 0;
    t_end = 0;
    minor_words = 0.0;
    tier_ns = 0;
    tier_calls = 0;
    put_ns = 0;
    put_calls = 0;
    load_ns = 0;
  }

type phase = {
  states : dstate array;
  cpu_s : float;
  wall_ns : int;  (** latest end minus earliest start *)
  minor_collections : int;
  major_collections : int;
}

let total f states = Array.fold_left (fun a st -> a + f st) 0 states

(* Run [body st ~stop_at] on every domain for [seconds], each domain
   timing itself from when the barrier lets it go. *)
let run_domains states ~seconds body =
  let ready = Atomic.make 0 in
  let dur = int_of_float (seconds *. 1e9) in
  let gc0 = Gc.quick_stat () in
  let cpu0 = Proc.own_cpu () in
  let workers =
    Array.map
      (fun st ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get ready < Array.length states do
              Domain.cpu_relax ()
            done;
            let w0 = Gc.minor_words () in
            st.t_start <- Clock.monotonic_ns ();
            body st ~stop_at:(st.t_start + dur);
            st.t_end <- Clock.monotonic_ns ();
            st.minor_words <- st.minor_words +. (Gc.minor_words () -. w0)))
      states
  in
  Array.iter Domain.join workers;
  let cpu1 = Proc.own_cpu () in
  let gc1 = Gc.quick_stat () in
  let t0 = Array.fold_left (fun a st -> min a st.t_start) max_int states in
  let t1 = Array.fold_left (fun a st -> max a st.t_end) 0 states in
  {
    states;
    cpu_s = cpu1 -. cpu0;
    wall_ns = t1 - t0;
    minor_collections = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

(* ------------------------------ map-mixed --------------------------- *)

(* 2^21 keys, about half preloaded: the trie holds ~1M bindings, far
   beyond the last-level cache, which is the regime where the paper's
   cache level pays off.  Inserts and removes hit random keys at equal
   rates, so the expected occupancy stays one half and the trie keeps
   its size through the run.  Domain [d] writes only keys with
   [k land 1 = d], so the final contents follow from each domain's own
   op sequence. *)
let mm_universe = 1 lsl 21

let mm_preloaded ~seed k = Rng.mix64 (k lxor (seed * 0x2545F491)) land 1 = 0

(* Every value names its key, so a find can check what it got. *)
let mm_value k i = (k lsl 24) lor (i land 0xFFFFFF)
let mm_preload_value k = mm_value k 0xFFFFFF

(* Op [i] of domain [d], packed as [key lsl 2 lor kind]: kind 0 find
   (90%, any key), 1 insert (5%), 2 remove (5%), writes on [d]'s keys.
   Allocation-free; the content check regenerates the same stream. *)
let[@inline] mm_next rng d =
  let dice = Rng.next_int rng 100 in
  if dice < 90 then Rng.next_int rng mm_universe lsl 2
  else
    let k = (Rng.next_int rng (mm_universe / 2) * 2) + d in
    (k lsl 2) lor if dice < 95 then 1 else 2

let mm_setup ~seed =
  let m = CT.create () in
  for k = 0 to mm_universe - 1 do
    if mm_preloaded ~seed k then CT.insert m k (mm_preload_value k)
  done;
  m

module Mixed (M : Ct_util.Map_intf.CONCURRENT_MAP with type key = int) = struct
  let body m st ~stop_at =
    let go = ref true in
    while !go do
      for _ = 1 to 256 do
        let i = st.ops in
        let op = mm_next st.rng st.d in
        let k = op lsr 2 in
        let sampled = i land (sample_every - 1) = 0 in
        let t0 = if sampled then Clock.monotonic_ns () else 0 in
        (match op land 3 with
        | 0 -> (
            st.reads <- st.reads + 1;
            match M.find m k with
            | v ->
                st.hits <- st.hits + 1;
                if v lsr 24 <> k then st.wrong <- st.wrong + 1
            | exception Not_found -> ())
        | 1 -> M.insert m k (mm_value k i)
        | _ -> ignore (M.remove m k));
        if sampled then
          Pctl.push
            (if op land 3 = 0 then st.read_ns else st.write_ns)
            (Clock.monotonic_ns () - t0);
        st.ops <- i + 1
      done;
      if Clock.monotonic_ns () >= stop_at then go := false
    done

  let run m states ~seconds = run_domains states ~seconds (body m)
end

module Mixed_plain = Mixed (CT)

(* Replay each domain's writes in order (they touch disjoint keys) and
   compare every key of the universe with the map.  Returns the number
   of keys whose binding differs. *)
let mm_check ~seed m states =
  let expect = Array.init mm_universe (fun k -> if mm_preloaded ~seed k then mm_preload_value k else -1) in
  Array.iter
    (fun st ->
      let rng = (dstate ~seed st.d).rng in
      for i = 0 to st.ops - 1 do
        let op = mm_next rng st.d in
        let k = op lsr 2 in
        match op land 3 with
        | 1 -> expect.(k) <- mm_value k i
        | 2 -> expect.(k) <- -1
        | _ -> ()
      done)
    states;
  let bad = ref 0 and live = ref 0 in
  for k = 0 to mm_universe - 1 do
    let got = match CT.find m k with v -> v | exception Not_found -> -1 in
    if got <> expect.(k) then incr bad;
    if expect.(k) >= 0 then incr live
  done;
  if CT.size m <> !live then incr bad;
  !bad

(* ------------------------------ cache-zipf -------------------------- *)

(* 200k keys of 64-byte values behind a 2^18-word tier: an entry costs
   about 34 words, so the budget holds about 4% of the keys and the
   Zipf 0.99 working set does not fit.  Reads go through [get_or_load]
   (15/16 of ops), writes update the origin and then [put] (1/16). *)
let cz_keys = 200_000
let cz_budget = 1 lsl 18
let cz_value_bytes = 64
let cz_stream = 1 lsl 20  (* per-domain key stream, replayed cyclically *)
let cz_warm = 1 lsl 17

let cz_value k ver =
  let b = Bytes.make cz_value_bytes '.' in
  Bytes.set_int64_le b 0 (Int64.of_int k);
  Bytes.set_int64_le b 8 (Int64.of_int ver);
  Bytes.unsafe_to_string b

type cz_data = {
  versions : string array array;  (** two values per key *)
  origin : string array;  (** the backing store the tier loads from *)
  streams : int array array;  (** per-domain Zipf key streams *)
}

let cz_data ~seed =
  let versions = Array.init 2 (fun ver -> Array.init cz_keys (fun k -> cz_value k ver)) in
  {
    versions;
    origin = Array.copy versions.(0);
    streams =
      Array.init domains (fun d ->
          Harness.Workload.zipf_keys ~seed:((seed * 31) + d) ~n:cz_stream
            ~universe:cz_keys 0.99);
  }

(* Tier over a plain cache-trie, and over one timed with [Obs.Timed]
   for traced runs.  The tier creates its own map, so the timed map
   registers its histograms where the report can find them. *)
type inner = {
  lats : (string * Obs.Latency.t) list;
  metrics : Ct_util.Metrics.t;
  footprint_words : unit -> int;
}

module Timed_ct = struct
  include Obs.Timed.Make (CT)

  let made : inner list ref = ref []

  let create () =
    let t = create () in
    made :=
      { lats = latencies t; metrics = metrics t; footprint_words = (fun () -> footprint_words t) }
      :: !made;
    t
end

module Zipf (T : sig
  type 'v t

  val create :
    ?config:Cache.config -> ?now:(unit -> int) -> ?cost:(int -> 'v -> int) -> unit -> 'v t

  val get_or_load :
    ?ttl_ns:int -> ?negative_ttl_ns:int -> 'v t -> int -> load:(int -> 'v option) -> 'v option

  val put : ?ttl_ns:int -> 'v t -> int -> 'v -> bool
  val stats : 'v t -> Cache.stats
  val validate : 'v t -> (unit, string) result
end) =
struct
  let setup data =
    let tier = T.create ~config:(Cache.default_config ~budget_words:cz_budget) () in
    let load k = Some data.origin.(k) in
    let s = data.streams.(0) in
    for i = 0 to cz_warm - 1 do
      ignore (T.get_or_load tier s.(i) ~load)
    done;
    tier

  let body ~traced data tier st ~stop_at =
    let keys = data.streams.(st.d) in
    let v0 = data.versions.(0) and v1 = data.versions.(1) in
    let load =
      if traced then (fun k ->
        let t0 = Clock.monotonic_ns () in
        let r = Some data.origin.(k) in
        st.load_ns <- st.load_ns + (Clock.monotonic_ns () - t0);
        r)
      else fun k -> Some data.origin.(k)
    in
    let go = ref true in
    while !go do
      for _ = 1 to 256 do
        let i = st.ops in
        let k = keys.((i + cz_warm) land (cz_stream - 1)) in
        if i land 15 = 15 then begin
          (* Puts are 1 op in 16; one in four of them is sampled. *)
          let sampled = (i lsr 4) land 3 = 0 in
          let t0 = if sampled || traced then Clock.monotonic_ns () else 0 in
          let v = data.versions.((i lsr 4) land 1).(k) in
          data.origin.(k) <- v;
          ignore (T.put tier k v);
          if sampled || traced then begin
            let dt = Clock.monotonic_ns () - t0 in
            if sampled then Pctl.push st.write_ns dt;
            st.put_ns <- st.put_ns + dt;
            st.put_calls <- st.put_calls + 1
          end
        end
        else begin
          let sampled = i land (sample_every - 1) = 0 in
          let t0 = if sampled || traced then Clock.monotonic_ns () else 0 in
          st.reads <- st.reads + 1;
          (match T.get_or_load tier k ~load with
          | Some v when v == v0.(k) || v == v1.(k) -> ()
          | _ -> st.wrong <- st.wrong + 1);
          if sampled || traced then begin
            let dt = Clock.monotonic_ns () - t0 in
            if sampled then Pctl.push st.read_ns dt;
            st.tier_ns <- st.tier_ns + dt;
            st.tier_calls <- st.tier_calls + 1
          end
        end;
        st.ops <- i + 1
      done;
      if Clock.monotonic_ns () >= stop_at then go := false
    done

  let run ~traced data tier states ~seconds =
    run_domains states ~seconds (body ~traced data tier)

  let stats = T.stats
  let validate = T.validate
end

module Tier_plain = Cache.Make (CT)
module Tier_timed = Cache.Make (Timed_ct)
module Zipf_plain = Zipf (Tier_plain)
module Zipf_timed = Zipf (Tier_timed)
