(** CAS on one mutable field of an ordinary heap block: the storage
    primitive behind every in-place CAS in the repository ({!Slots}
    for array cells, {!Stripe} for overflow counters, and the tries'
    node records — a cache-trie SNode's [txn], a Ctrie_snap I-node's
    [main] and main node's [prev]).

    OCaml 5.1 has no atomic record fields, and an [Atomic.t] per field
    costs a 2-word box and a dependent load on every read.  A mutable
    field CASed through the runtime's [caml_atomic_cas_field] is the
    same memory location an [Atomic.t] would be, without the box.
    DESIGN.md §8.1 has the memory-model argument for reading such a
    field with a plain load. *)

external cas : 'r -> int -> 'a -> 'a -> bool = "ct_slots_cas_stub" [@@noalloc]
(** [cas r i expected repl] atomically replaces field [i] of block [r]
    with [repl] iff it physically equals [expected] (sequential
    consistency, full barrier; immediates compare by value).  Unchecked:
    [r] must be a heap block with a field [i] of the type ['a] — never
    a float record or float array, whose fields are unboxed. *)

val get : 'r -> int -> 'a
(** [get r i] reads field [i] of [r] with a plain load.  Unchecked, like
    {!cas}: for code that addresses one field shared by several
    constructors by its index. *)
