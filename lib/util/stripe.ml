(* Rows sit at a 16-word (128-byte) stride: a 64-byte line plus its
   neighbour, so Intel's adjacent-line prefetcher cannot couple two
   rows either.  A leading pad keeps row 0 off the line holding the
   array header, which every [length]/bounds read touches.  The
   overflow row follows the last leased row. *)

let pad = 16

type t = { data : int array; mask : int; width : int; stride : int }

let create ?stripes ?(width = 1) () =
  let n = match stripes with Some n -> n | None -> Domain_slot.capacity in
  if n < 1 || width < 1 then invalid_arg "Stripe.create";
  let n = Bits.next_power_of_two n in
  let stride = (width + pad - 1) / pad * pad in
  { data = Array.make (pad + ((n + 1) * stride)) 0; mask = n - 1; width; stride }

let stripes t = t.mask + 1
let mask t = t.mask
let[@inline] base t r = pad + (r * t.stride)

let row t r =
  if r < 0 || r > t.mask + 1 then invalid_arg "Stripe.row";
  if r <= t.mask then base t r else lnot (base t r)

let[@inline] cursor t =
  let s = Domain_slot.get () in
  if s <= t.mask then base t s else lnot (base t (t.mask + 1))

let rec cas_add data i d =
  let v = Array.unsafe_get data i in
  if Field.cas data i v (v + d) then v else cas_add data i d

let[@inline] fetch_add_at t h col d =
  if h >= 0 then begin
    let v = Array.unsafe_get t.data (h + col) in
    Array.unsafe_set t.data (h + col) (v + d);
    v
  end
  else if h < -1 then cas_add t.data (lnot h + col) d
  else 0

let[@inline] add_at t h col d = ignore (fetch_add_at t h col d)

let[@inline] get_at t h col =
  if h >= 0 then Array.unsafe_get t.data (h + col)
  else if h < -1 then Array.unsafe_get t.data (lnot h + col)
  else 0

let words t = t.data

let sum_col t col =
  let acc = ref 0 in
  for r = 0 to t.mask + 1 do
    acc := !acc + t.data.(base t r + col)
  done;
  !acc

let[@inline] get t i = get_at t (base t (i land t.mask)) 0
let[@inline] set t i v = Array.unsafe_set t.data (base t (i land t.mask)) v
let[@inline] add t i d = add_at t (base t (i land t.mask)) 0 d
let sum t = sum_col t 0

let fill t v =
  for r = 0 to t.mask + 1 do
    Array.fill t.data (base t r) t.width v
  done

let footprint_words t = 1 + Array.length t.data
