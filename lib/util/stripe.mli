(** Cache-line-padded per-domain rows of int counters: the one
    per-domain block layout of the repository.

    [stripes] rows of [width] ints plus one overflow row, each row
    padded to a multiple of a 16-word (128-byte) stride, so a domain
    writing its own row never invalidates another's line.

    A row is addressed by a {e handle}: [h >= 0] for a row with one
    writer (the calling domain's {!Domain_slot}), updated by plain
    read-add-write; [h < -1] for the shared overflow row, updated by a
    field CAS so no update is lost; [-1] is null (reads 0, writes
    dropped), which callers use for "disabled".  A bump through a
    handle thus costs one [h >= 0] test on the common path.

    The index API ({!get}, {!set}, {!add}) addresses column 0 of row
    [i land mask t], for callers whose worker index owns the row. *)

type t

val create : ?stripes:int -> ?width:int -> unit -> t
(** One row per {!Domain_slot} ([Domain_slot.capacity]) of one column
    by default; [?stripes] (rounded up to a power of two) and [?width]
    override.  Values [< 1] raise [Invalid_argument]. *)

val stripes : t -> int
(** Rows, not counting the overflow row; a power of two. *)

val mask : t -> int
(** [stripes t - 1]. *)

val cursor : t -> int
(** The calling domain's row handle: its slot's row if the slot is
    below [stripes t], the overflow row otherwise.  Never [-1]. *)

val row : t -> int -> int
(** [row t r] — the handle of row [r]; [r = stripes t] is the overflow
    row.  @raise Invalid_argument outside [[0, stripes t]]. *)

val fetch_add_at : t -> int -> int -> int -> int
(** [fetch_add_at t h col d] adds [d] to column [col] (unchecked, in
    [[0, width)]) of row [h] and returns the previous value. *)

val add_at : t -> int -> int -> int -> unit
val get_at : t -> int -> int -> int

val words : t -> int array
(** The backing array.  Row [h]'s column 0 is at index [h], or [lnot h]
    for the overflow row.  A hot path that cannot afford a call per
    bump updates its leased row ([h >= 0]) in place and passes other
    handles to {!add_at}; a cell claimed with {!fetch_add_at} (a ring
    entry) may be stored to in place on any row. *)

val sum_col : t -> int -> int
(** One column summed over every row, the overflow row included (exact
    once writers are quiescent). *)

val get : t -> int -> int
val set : t -> int -> int -> unit

val add : t -> int -> int -> unit
(** [add t i d]: plain read-add-write on row [i land mask t]. *)

val sum : t -> int
(** [sum_col t 0]. *)

val fill : t -> int -> unit
(** Set every column of every row, the overflow row included. *)

val footprint_words : t -> int
(** Heap words of the stripe: its record and backing array, headers
    included. *)
