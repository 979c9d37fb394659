(** Atomic slot arrays: the storage primitive for every CAS-able node
    array in the repository (cache-trie ANodes, the CHM bucket tables,
    the folklore table's cells).

    The stdlib has no atomic arrays.  One ['a Atomic.t] box per slot
    costs a pointer hop (and usually a cache miss) per slot access,
    plus two extra words and one extra allocation per slot.  This
    module is instead a single flat array whose fields are CASed in
    place through the runtime's [caml_atomic_cas_field] primitive (the
    same GC-write-barrier-correct CAS that backs
    [Atomic.compare_and_set], applied to an arbitrary field index).
    DESIGN.md ("Slot layout") documents the memory-model argument for
    the fenceless reads.

    [length], [get], [set], [cas], [prefetch], [iter] and [fold] work
    on any scanned heap block whose fields are all values, not only on
    arrays built by {!make}: a cache-trie ANode is a block tagged with
    its [ANode] constructor whose fields are its slots, allocated by
    the trie itself and addressed through this module. *)

type 'a t

val overhead_words_per_slot : int
(** Heap words per slot beyond the array cell itself: 0, since the
    slot is the cell.  Used by the [footprint_words] cost models. *)

val make : int -> 'a -> 'a t
(** [make n v] is a slot array of length [n], every slot holding [v].
    @raise Invalid_argument if ['a] is [float] (flat slot arrays
    must not be unboxed float arrays; no user of this module stores
    bare floats). *)

val length : 'a t -> int
(** The block's field count (its header's size). *)

val get : 'a t -> int -> 'a
(** [get a i] reads slot [i] with a plain (fenceless) load — see
    DESIGN.md for why that is sufficient for slots that are only
    published by [cas].  Bounds are {b not} checked: every caller
    derives [i] by masking a hash with [length a - 1]. *)

val set : 'a t -> int -> 'a -> unit
(** [set a i v] stores [v] into slot [i] with (at least) release
    ordering.  Only for slots that are not yet shared (private node
    construction) or whose races are benign; concurrent publication
    must go through {!cas}.  Bounds are not checked. *)

val cas : 'a t -> int -> 'a -> 'a -> bool
(** [cas a i expected repl] atomically replaces slot [i] with [repl]
    iff it physically equals [expected] (sequential consistency, full
    barrier).  Bounds are not checked. *)

val prefetch : 'a t -> int -> unit
(** [prefetch a i] hints that slot [i] is about to be read, without
    reading it ({!Prefetch}): the hint covers the cell's cache line.
    Pure hint: no effect on semantics. *)

val iter : ('a -> unit) -> 'a t -> unit
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
