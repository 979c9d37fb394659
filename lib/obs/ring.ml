(* The lock-free recorder ring behind Flight and Trace (DESIGN.md §11.3).

   One ring per Domain_slot, each a padded Stripe row, plus the
   stripe's shared overflow row.  Row layout: column 0 is the row's
   write cursor; entry [i] occupies columns [1 + i * (cols + 1)] on,
   [cols] payload ints then [stamp + 1], written last, so a zeroed row
   reads as empty and [reset] is a fill.  Recording allocates nothing.

   A leased row has one writer.  Domains on the overflow row claim
   entries by CAS on its cursor ([Stripe.fetch_add_at]), so they never
   share an entry and lose one only to wrap.  A reader racing a writer
   may pair a stamp with a payload mid-rewrite. *)

module Stripe = Ct_util.Stripe

type t = {
  rows : Stripe.t;
  words : int array;  (* [Stripe.words rows] *)
  cols : int;
  size : int;
  clock : int Atomic.t;
}

let create ~cols ~size =
  let size = Ct_util.Bits.next_power_of_two size in
  let rows = Stripe.create ~width:(1 + (size * (cols + 1))) () in
  { rows; words = Stripe.words rows; cols; size; clock = Atomic.make 0 }

let size t = t.size
let recorded t = Atomic.get t.clock
let[@inline] first h = if h >= 0 then h else lnot h

(* Writer protocol: [let e = claim t in] one [put] per payload column,
   then [publish t e].  [e] is the entry's index in [words]. *)
let claim t =
  let h = Stripe.cursor t.rows in
  let n = Stripe.fetch_add_at t.rows h 0 1 in
  first h + 1 + ((n land (t.size - 1)) * (t.cols + 1))

let[@inline] put t e c v = Array.unsafe_set t.words (e + c) v

let publish t e =
  Array.unsafe_set t.words (e + t.cols) (Atomic.fetch_and_add t.clock 1 + 1)

(* Every published entry as [(row, stamp, payload)], stamp-ordered; row
   [Domain_slot.capacity] is the overflow row. *)
let entries t =
  let acc = ref [] in
  for r = 0 to Stripe.stripes t.rows do
    let b = first (Stripe.row t.rows r) in
    for i = 0 to t.size - 1 do
      let e = b + 1 + (i * (t.cols + 1)) in
      let stamp = t.words.(e + t.cols) - 1 in
      if stamp >= 0 then
        acc := (r, stamp, Array.sub t.words e t.cols) :: !acc
    done
  done;
  List.sort (fun (_, a, _) (_, b, _) -> compare a b) !acc

let reset t =
  Stripe.fill t.rows 0;
  Atomic.set t.clock 0
