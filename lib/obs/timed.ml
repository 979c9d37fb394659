(* Opt-in latency wrapper: [Timed.Make (M)] is a CONCURRENT_MAP that
   times every single-key operation into three per-instance log-scale
   histograms — reads (lookup/find/mem), inserts (insert/add/
   put_if_absent/replace/replace_if) and removes (remove/remove_if) —
   and otherwise delegates.  [find_batch] records one whole-batch
   sample into the read histogram.  Aggregate queries are passed
   through untimed: their cost is O(n) and would drown the bucket
   range the histograms are sized for.

   The wrapper costs two clock reads and one histogram bump per op,
   which is why it is opt-in rather than always-on like the counters:
   benchmarks wrap the structure only when the run asks for latency
   distributions. *)

module Clock = Ct_util.Clock

module Make (M : Ct_util.Map_intf.CONCURRENT_MAP) = struct
  type key = M.key

  type 'v t = {
    map : 'v M.t;
    reads : Latency.t;
    inserts : Latency.t;
    removes : Latency.t;
  }

  let name = M.name ^ "+timed"

  let of_map map =
    {
      map;
      reads = Latency.create ~label:"read";
      inserts = Latency.create ~label:"insert";
      removes = Latency.create ~label:"remove";
    }

  let create () = of_map (M.create ())
  let base t = t.map

  let latencies t =
    [ ("read", t.reads); ("insert", t.inserts); ("remove", t.removes) ]

  let lookup t k =
    let start = Clock.monotonic_ns () in
    let r = M.lookup t.map k in
    Latency.record_span t.reads ~start;
    r

  (* [find]'s miss path raises; time it on both exits so a read-mostly
     workload's misses do not vanish from the distribution. *)
  let find t k =
    let start = Clock.monotonic_ns () in
    match M.find t.map k with
    | v ->
        Latency.record_span t.reads ~start;
        v
    | exception Not_found ->
        Latency.record_span t.reads ~start;
        raise_notrace Not_found

  let mem t k =
    let start = Clock.monotonic_ns () in
    let r = M.mem t.map k in
    Latency.record_span t.reads ~start;
    r

  let insert t k v =
    let start = Clock.monotonic_ns () in
    M.insert t.map k v;
    Latency.record_span t.inserts ~start

  let add t k v =
    let start = Clock.monotonic_ns () in
    let r = M.add t.map k v in
    Latency.record_span t.inserts ~start;
    r

  let put_if_absent t k v =
    let start = Clock.monotonic_ns () in
    let r = M.put_if_absent t.map k v in
    Latency.record_span t.inserts ~start;
    r

  let replace t k v =
    let start = Clock.monotonic_ns () in
    let r = M.replace t.map k v in
    Latency.record_span t.inserts ~start;
    r

  let replace_if t k ~expected v =
    let start = Clock.monotonic_ns () in
    let r = M.replace_if t.map k ~expected v in
    Latency.record_span t.inserts ~start;
    r

  let remove t k =
    let start = Clock.monotonic_ns () in
    let r = M.remove t.map k in
    Latency.record_span t.removes ~start;
    r

  let remove_if t k ~expected =
    let start = Clock.monotonic_ns () in
    let r = M.remove_if t.map k ~expected in
    Latency.record_span t.removes ~start;
    r

  (* [find_batch] times the whole batch as one sample into the read
     histogram.  Per-key samples would cost 2k clock reads and defeat
     the staged traversal the batch exists for; one whole-batch sample
     keeps the wrapper's contract (every op that touches the map leaves
     a mark in a histogram) at two clock reads regardless of k. *)
  let find_batch t keys ~miss out =
    let start = Clock.monotonic_ns () in
    let r = M.find_batch t.map keys ~miss out in
    Latency.record_span t.reads ~start;
    r

  let size t = M.size t.map
  let is_empty t = M.is_empty t.map
  let fold f acc t = M.fold f acc t.map
  let iter f t = M.iter f t.map
  let to_list t = M.to_list t.map
  let footprint_words t = M.footprint_words t.map
  let validate t = M.validate t.map
  let metrics t = M.metrics t.map
  let stats t = M.stats t.map
  let reset_stats t = M.reset_stats t.map
  let scrub t = M.scrub t.map
end
