(** Plain-text table rendering for benchmark reports, mirroring the
    row/series layout of the paper's tables and figures. *)

val table : header:string list -> string list list -> string
(** [table ~header rows] — a column-aligned plain-text table. *)

val print_table : header:string list -> string list list -> unit

val fmt_ns : float -> string
(** Nanoseconds with 1 decimal, e.g. ["123.4"]. *)

val fmt_ms : float -> string
(** Seconds rendered as milliseconds with 2 decimals. *)

val fmt_kb : float -> string

val fmt_x : float -> string
(** Multiplier, e.g. ["2.3x"]. *)

val section : string -> unit
(** Print a banner heading. *)

val checked_elapsed : what:string -> float -> float
(** [checked_elapsed ~what s] returns [s] after asserting it is a
    non-negative, finite number of seconds.
    @raise Invalid_argument otherwise, naming [what] — elapsed times
    in this repo come from {!Ct_util.Clock.monotonic_ns}, so a
    negative or NaN elapsed is a harness bug (e.g. a reintroduced
    wall-clock measurement racing an NTP step), never a valid
    measurement to propagate into throughput numbers. *)

val checked_rate : what:string -> elapsed:float -> ops:int -> float
(** [checked_rate ~what ~elapsed ~ops] is [ops /. elapsed] after
    rejecting a row faster than 1 ns/op (or with no ops): no map
    operation is that fast, so such a row means the timed window missed
    the work.
    @raise Invalid_argument naming [what]. *)

(** Minimal JSON emitter for the six persisted benchmark files
    ([BENCH_micro.json], [BENCH_sweeps.json], [BENCH_obs.json],
    [BENCH_cache.json], [BENCH_server.json], [BENCH_persist.json]),
    whose rows are also what {!print_rows} renders.  Output is deterministic
    for equal inputs: fields keep insertion order, floats render with
    ["%.6g"] (non-finite values become [null]), and no timestamps are
    ever inserted — so files regenerated from identical measurements
    diff clean. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Pretty-printed (2-space indent), trailing newline. *)

  val write_file : string -> t -> unit
  (** Write to a path and log the path to stdout. *)
end

(** {1 Tables from persisted rows}

    A BENCH writer builds each row once, as the [Json.Obj] it persists,
    and prints its table from those same rows: a column names the
    field it shows, so the table cannot drift from the file. *)

type column = string * string * (Json.t -> string)
(** [(header, key, fmt)]: the column headed [header] shows [fmt] of
    field [key] of each row. *)

val cell : Json.t -> string
(** A scalar as plain text: strings as is, ints in decimal, floats
    ["%g"], bools ["true"]/["false"], [Null] as ["-"].
    @raise Invalid_argument on a list or object. *)

val float : (float -> string) -> Json.t -> string
(** [float fmt] formats a number field ([Int] promoted), e.g.
    [float fmt_ns].
    @raise Invalid_argument on any other value. *)

val rows_table : column list -> Json.t list -> string
(** [rows_table columns rows] is {!table} with one line per row and
    the columns in the order given.
    @raise Invalid_argument naming the key when a row is not an object
    holding every column's key. *)

val print_rows : column list -> Json.t list -> unit
(** Print {!rows_table}, then a blank line. *)
