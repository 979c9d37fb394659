(** Snapshot checkpoints: the materialized map at a WAL boundary,
    published crash-atomically (write [.tmp] → fsync → rename to
    [.ckpt] → directory fsync).  Replaying the newest checkpoint plus
    the WAL suffix beyond its LSN reconstructs the store. *)

val write :
  ?metrics:Ct_util.Metrics.t ->
  dir:string ->
  lsn:int ->
  iter:((int -> string -> unit) -> unit) ->
  unit ->
  (int, [ `Halted | `Io_error of string ]) result
(** [write ~dir ~lsn ~iter ()] streams the bindings produced by [iter]
    (typically [Ctrie_snap.fold_snapshot] applied to a snapshot) into
    [checkpoint-<lsn>.ckpt], through the fault-injectable {!Io} seam.
    Returns the number of bindings written.  On [`Halted] the [.tmp]
    is left behind, exactly as a killed process would leave it. *)

val read : path:string -> add:(int -> string -> unit) -> (int * int, string) result
(** Validate and stream a checkpoint file: [add key value] per binding.
    Returns [(lsn, count)] or a reason ([Recovery] wraps it in its
    typed error).  Every record CRC and the count footer are checked. *)

val latest : dir:string -> (int * string) option
(** Newest published checkpoint as [(lsn, path)]. *)

val tmp_leftovers : dir:string -> string list
(** Names of partial [.tmp] checkpoints (crash debris) in [dir]. *)

val gc : dir:string -> keep:int -> int
(** Remove checkpoints with [lsn < keep] and all [.tmp] leftovers;
    returns the number of files removed. *)

val ckpt_name : int -> string
val ckpt_lsn_of_name : string -> int option
