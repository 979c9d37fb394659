(* The runtime's field CAS (ct_slots_stubs.c): SC success ordering,
   GC write barrier included — the primitive [Atomic.compare_and_set]
   compiles to, with an explicit field index. *)
external cas : 'r -> int -> 'a -> 'a -> bool = "ct_slots_cas_stub" [@@noalloc]

let[@inline] get (r : 'r) i : 'a = Obj.obj (Obj.field (Obj.repr r) i)
