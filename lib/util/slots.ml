(* A plain array whose fields are CASed in place.  [Obj.t array] and
   not ['a array] so the compiler can never specialize an access into
   the unboxed-float path; [make] additionally rejects arrays the
   runtime would build with [Double_array_tag]. *)
type 'a t = Obj.t array

let overhead_words_per_slot = 0

let make n v =
  let a = Array.make n (Obj.repr v) in
  if Obj.tag (Obj.repr a) = Obj.double_array_tag then
    invalid_arg "Slots.make: float slots are unsupported";
  a

(* The field count from the header: the same as [Array.length] for
   the arrays [make] builds (never [Double_array_tag]), and also right
   for blocks of another tag that callers address as slots. *)
let[@inline] length a = Obj.size (Obj.repr a)

(* [Obj.field]/[Obj.set_field] compile to the same generic array
   access as [Array.unsafe_get]/[set] on an [Obj.t array]: each load
   and store tests the block's tag for [Double_array_tag] before
   touching the field ([ocamlopt -S] shows the check).  [make] refuses
   float arrays, so the test always takes the boxed branch; it costs a
   header load and a predictable branch, not a wrong result.
   [Obj.set_field] is [caml_modify]: a release store plus the GC write
   barrier, so a reader that sees the new pointer sees the object
   behind it. *)
let[@inline] get a i : 'a = Obj.obj (Obj.field (Obj.repr a) i)
let[@inline] set a i (v : 'a) = Obj.set_field (Obj.repr a) i (Obj.repr v)

let[@inline] cas a i (expected : 'a) (repl : 'a) =
  Field.cas a i (Obj.repr expected) (Obj.repr repl)

(* The slot array IS the node, so the cell address is the miss:
   hint the line without reading the field. *)
let[@inline] prefetch a i = Prefetch.cell a i

let iter f a =
  for i = 0 to length a - 1 do
    f (get a i)
  done

let fold f acc a =
  let acc = ref acc in
  for i = 0 to length a - 1 do
    acc := f !acc (get a i)
  done;
  !acc
