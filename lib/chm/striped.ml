(* Lock-striped chaining hash table with wait-free reads: bucket heads
   live in an atomic slot array (Ct_util.Slots) holding immutable
   lists; writers take the stripe lock for their bucket, readers never
   lock.  Resize locks all stripes in order.  A bucket store under the
   stripe lock needs no CAS — [Slots.set]'s release ordering is enough
   to publish the new cons cell to lock-free readers. *)

module Hashing = Ct_util.Hashing
module Slots = Ct_util.Slots
module Metrics = Ct_util.Metrics

let n_stripes = 16
let initial_buckets = 16
let load_factor = 4
let max_buckets = 1 lsl 22

module Make (H : Hashing.HASHABLE) = struct
  type key = H.t

  let name = "chm-striped"

  type 'v bucket = (int * key * 'v) list

  type 'v t = {
    mutable table : 'v bucket Slots.t;  (* replaced under all locks *)
    stripes : Mutex.t array;
    count : int Atomic.t;
    metrics : Metrics.t;
  }

  let create () =
    {
      table = Slots.make initial_buckets [];
      stripes = Array.init n_stripes (fun _ -> Mutex.create ());
      count = Atomic.make 0;
      metrics = Metrics.create ~family:name;
    }

  let hash_of k = H.hash k land Hashing.mask
  let bucket_count t = Slots.length t.table

  (* Manual unlock on both exits instead of [Fun.protect]: protect
     allocates its [finally] closure and exception-wrapping machinery
     on every write. *)
  let with_stripe t h f =
    let m = t.stripes.(h land (n_stripes - 1)) in
    Mutex.lock m;
    match f () with
    | r ->
        Mutex.unlock m;
        r
    | exception e ->
        Mutex.unlock m;
        raise e

  let with_all_stripes t f =
    Array.iter Mutex.lock t.stripes;
    match f () with
    | r ->
        Array.iter Mutex.unlock t.stripes;
        r
    | exception e ->
        Array.iter Mutex.unlock t.stripes;
        raise e

  let rec find_bucket entries h k =
    match entries with
    | [] -> None
    | (h', k', v') :: rest ->
        if h' = h && H.equal k' k then Some v' else find_bucket rest h k

  (* Raising twin of [find_bucket] for the allocation-free read path. *)
  let rec find_in_bucket entries h k =
    match entries with
    | [] -> raise_notrace Not_found
    | (h', k', v') :: rest ->
        if h' = h && H.equal k' k then v' else find_in_bucket rest h k

  let find t k =
    let h = hash_of k in
    let table = t.table in
    find_in_bucket (Slots.get table (h land (Slots.length table - 1))) h k

  let lookup t k = match find t k with v -> Some v | exception Not_found -> None
  let mem t k = match find t k with _ -> true | exception Not_found -> false

  let resize_if_needed t =
    if
      Atomic.get t.count > bucket_count t * load_factor
      && bucket_count t < max_buckets
    then
      with_all_stripes t (fun () ->
          let old = t.table in
          if Atomic.get t.count > Slots.length old * load_factor then begin
            let size = Slots.length old * 2 in
            let fresh = Slots.make size [] in
            Slots.iter
              (fun entries ->
                List.iter
                  (fun ((h, _, _) as e) ->
                    let idx = h land (size - 1) in
                    Slots.set fresh idx (e :: Slots.get fresh idx))
                  entries)
              old;
            t.table <- fresh;
            Metrics.incr t.metrics Metrics.Expansions
          end)

  type 'v mode = Always | If_absent | If_present | If_value of 'v

  let update t k v mode : 'v option =
    let h = hash_of k in
    let previous =
      with_stripe t h (fun () ->
          let table = t.table in
          let idx = h land (Slots.length table - 1) in
          let entries = Slots.get table idx in
          let previous = find_bucket entries h k in
          let proceed =
            match (mode, previous) with
            | If_absent, Some _ -> false
            | (If_present | If_value _), None -> false
            | If_value expected, Some p -> p == expected
            | (Always | If_absent | If_present), _ -> true
          in
          if proceed then begin
            let without =
              if previous = None then entries
              else List.filter (fun (h', k', _) -> not (h' = h && H.equal k' k)) entries
            in
            Slots.set table idx ((h, k, v) :: without);
            if previous = None then Atomic.incr t.count
          end;
          previous)
    in
    resize_if_needed t;
    previous

  let insert t k v = ignore (update t k v Always)
  let add t k v = update t k v Always
  let put_if_absent t k v = update t k v If_absent
  let replace t k v = update t k v If_present

  let replace_if t k ~expected v =
    match update t k v (If_value expected) with
    | Some p -> p == expected
    | None -> false

  let remove_with t k cond : 'v option =
    let h = hash_of k in
    with_stripe t h (fun () ->
        let table = t.table in
        let idx = h land (Slots.length table - 1) in
        let entries = Slots.get table idx in
        match find_bucket entries h k with
        | None -> None
        | Some v as previous ->
            if cond v then begin
              Slots.set table idx
                (List.filter (fun (h', k', _) -> not (h' = h && H.equal k' k)) entries);
              Atomic.decr t.count
            end;
            previous)

  let remove t k = remove_with t k (fun _ -> true)

  let remove_if t k ~expected =
    match remove_with t k (fun v -> v == expected) with
    | Some p -> p == expected
    | None -> false

  let fold f acc t =
    Slots.fold
      (fun acc entries ->
        List.fold_left (fun acc (_, k, v) -> f acc k v) acc entries)
      acc t.table

  let iter f t = fold (fun () k v -> f k v) () t
  let size t = fold (fun n _ _ -> n + 1) 0 t
  let is_empty t = size t = 0
  let to_list t = fold (fun acc k v -> (k, v) :: acc) [] t

  (* Structural invariants, checked during quiescence: every entry
     hangs in the bucket its hash selects, stored hashes agree with the
     key hash, no bucket holds a duplicate key, and the count matches
     the entries. *)
  let validate t =
    let errors = ref [] in
    let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
    let table = t.table in
    let nbuckets = Slots.length table in
    if nbuckets land (nbuckets - 1) <> 0 then
      err "bucket count %d is not a power of two" nbuckets;
    let entries = ref 0 in
    for idx = 0 to nbuckets - 1 do
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (h, k, _) ->
          incr entries;
          if h <> hash_of k then
            err "bucket %d: stored hash %#x differs from key hash %#x" idx h
              (hash_of k);
          if h land (nbuckets - 1) <> idx then
            err "entry with hash %#x misplaced in bucket %d" h idx;
          if Hashtbl.mem seen (h, k) then err "bucket %d holds a duplicate key" idx
          else Hashtbl.add seen (h, k) ())
        (Slots.get table idx)
    done;
    if !entries <> Atomic.get t.count then
      err "count %d does not match %d stored entries" (Atomic.get t.count) !entries;
    match !errors with [] -> Ok () | es -> Error (String.concat "; " (List.rev es))

  (* Lock-based writers leave no lock-free residue: an operation either
     holds the stripe lock or has fully published.  Nothing to repair. *)
  let scrub _t = 0

  let metrics t = t.metrics
  let stats t = Metrics.snapshot t.metrics
  let reset_stats t = Metrics.reset t.metrics

  (* Word-cost model: table array + per-slot overhead + 7-word cells
     (cons 3 + tuple of 3 = 4 words). *)
  let footprint_words t =
    let cells = Atomic.get t.count in
    1
    + ((1 + Slots.overhead_words_per_slot) * bucket_count t)
    + (7 * cells) + n_stripes

  (* Reads are one bucket load + a short list walk, so there is no
     per-level state to stage: [find_batch] takes the scalar loop. *)
  include Ct_util.Map_intf.Batch_fallback (struct
    type nonrec key = key
    type nonrec 'v t = 'v t

    let find = find
  end)
end
