(** Crash recovery: newest checkpoint + WAL suffix replay, with typed
    refusal of anything the CRCs or LSN sequence cannot vouch for.

    Strict mode (the default) refuses {e all} damage, including a torn
    tail — the truncated/CRC-broken end of the last segment that a
    crash mid group-commit leaves behind.  [~salvage:true] truncates
    such a tail (provably unacknowledged: acks require the covering
    fsync, which never completed) and recovers the good prefix;
    mid-file corruption, LSN gaps and corrupt published checkpoints are
    refused in both modes. *)

type error =
  | Corrupt_record of { path : string; off : int; reason : string }
      (** CRC/structure failure with valid data after it — not a crash
          artifact; refused in both modes. *)
  | Torn_tail of { path : string; off : int; reason : string }
      (** Truncated or CRC-broken log tail with nothing valid after
          it — the crash signature; salvageable. *)
  | Lsn_gap of { path : string; expected : int; found : int }
  | Corrupt_checkpoint of { path : string; reason : string }
  | Io_error of { path : string; msg : string }

val error_to_string : error -> string

type stats = {
  checkpoint_lsn : int;  (** 0 when recovering without a checkpoint *)
  checkpoint_records : int;
  replayed : int;  (** WAL records applied (lsn > checkpoint_lsn) *)
  skipped : int;  (** records already covered by the checkpoint *)
  last_lsn : int;  (** resume the log at [last_lsn + 1] *)
  salvaged_bytes : int;  (** tail bytes truncated in salvage mode *)
  tmp_discarded : int;  (** partial checkpoint files ignored *)
}

val load :
  ?salvage:bool ->
  ?metrics:Ct_util.Metrics.t ->
  dir:string ->
  put:(int -> string -> unit) ->
  remove:(int -> unit) ->
  unit ->
  (stats, error) result
(** Rebuild the store into [put]/[remove]: checkpoint bindings first,
    then the WAL suffix in LSN order.  Every record read is CRC-checked
    (even ones the checkpoint already covers).  Replay is idempotent,
    so the deliberate checkpoint/WAL overlap is harmless.  A missing
    [dir] is an empty store, not an error. *)
