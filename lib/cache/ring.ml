(* Lock-free MPMC key ring — the replacement-order substrate of the
   bounded cache tier (DESIGN.md §15).

   A fixed-capacity power-of-two array of slots with monotonically
   increasing head/tail counters: pushers claim a position by CAS on
   [tail] and store into [position land mask]; poppers claim by CAS on
   [head] and exchange the slot out.  FIFO per ring up to the races
   below.  The cache stripes several rings (one per domain slot), so
   admission-order tracking never becomes a single contended queue.

   Best-effort by design: the ring orders *eviction candidates*, it is
   not the source of truth for residency (the map is) or for the
   budget (the reserve counter is).  Two benign races exist and are
   deliberately tolerated rather than fenced:

   - a popper can claim a position whose pusher has not stored yet; it
     spins briefly, then abandons the slot (the element is later
     overwritten by a wrapping pusher, leaving a resident entry
     untracked by any ring);
   - a wrapping pusher can overwrite a slot abandoned that way.

   Untracked entries are still found by the cache's fold fallback when
   every ring runs dry while over budget, so the budget invariant never
   depends on ring completeness. *)

type 'k t = {
  slots : 'k option Atomic.t array;
  mask : int;
  head : int Atomic.t;  (* next position to pop *)
  tail : int Atomic.t;  (* next position to push *)
}

let create ~capacity =
  let cap = Ct_util.Bits.next_power_of_two (max 2 capacity) in
  {
    slots = Array.init cap (fun _ -> Atomic.make None);
    mask = cap - 1;
    head = Atomic.make 0;
    tail = Atomic.make 0;
  }

let capacity t = t.mask + 1

let length t =
  let n = Atomic.get t.tail - Atomic.get t.head in
  if n < 0 then 0 else if n > t.mask + 1 then t.mask + 1 else n

let rec pop t =
  let h = Atomic.get t.head in
  let tl = Atomic.get t.tail in
  if h >= tl then None
  else if Atomic.compare_and_set t.head h (h + 1) then begin
    let slot = t.slots.(h land t.mask) in
    let rec take spins =
      match Atomic.exchange slot None with
      | Some _ as k -> k
      | None ->
          if spins = 0 then None
          else begin
            Domain.cpu_relax ();
            take (spins - 1)
          end
    in
    match take 64 with
    | Some _ as k -> k
    | None ->
        (* The pusher of this position stalled between claiming and
           storing; its element is abandoned (see header).  Move on. *)
        pop t
  end
  else pop t

let rec try_claim t =
  let tl = Atomic.get t.tail in
  let h = Atomic.get t.head in
  if tl - h > t.mask then None
  else if Atomic.compare_and_set t.tail tl (tl + 1) then Some tl
  else try_claim t

let try_push t k =
  match try_claim t with
  | Some pos ->
      Atomic.set t.slots.(pos land t.mask) (Some k);
      true
  | None -> false

let rec push t k ~on_displace =
  if not (try_push t k) then begin
    (* Full: displace the oldest to the caller (who typically evicts
       it), then retry — push always lands. *)
    (match pop t with Some d -> on_displace d | None -> ());
    push t k ~on_displace
  end
