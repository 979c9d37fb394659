(** Durable KV store: the snapshotting ctrie + group-commit WAL +
    background checkpointer, packaged as {!Server.durable} hooks
    (DESIGN.md §14).

    Open with {!open_} (which recovers from disk), serve with
    [Server.Make (Durable.Map)] passing [~durable:(hooks t)] and
    [map t], shut down with {!close}.  The checkpointer thread sleeps
    until the WAL signals that [checkpoint_every] records were appended
    since the last checkpoint, then rotates the WAL and serializes an
    O(1) [fold_snapshot] — writers never pause. *)

module Map : sig
  include Ct_util.Map_intf.CONCURRENT_MAP with type key = int

  val snapshot : 'v t -> 'v t
  val fold_snapshot : ('a -> key -> 'v -> 'a) -> 'a -> 'v t -> 'a
end

type config = {
  wal : Persist.Wal.config;
  checkpoint_every : int;
      (** records appended since the last checkpoint that trigger the
          next one (default 8192) *)
}

val default_config : config

type t

val open_ :
  ?config:config ->
  ?salvage:bool ->
  dir:string ->
  unit ->
  (t * Persist.Recovery.stats, Persist.Recovery.error) result
(** Recover the store from [dir] (created if missing), open the WAL at
    the next LSN and start the checkpointer.  Strict by default: a
    torn WAL tail refuses with [Torn_tail]; pass [~salvage:true] to
    truncate it (see {!Persist.Recovery.load}). *)

val map : t -> string Map.t
val wal : t -> Persist.Wal.t
val metrics : t -> Ct_util.Metrics.t

val hooks : t -> Server.durable
(** The record to pass as [Server.Make(Map).start ~durable]. *)

val read_only : t -> bool
(** The WAL degraded (fsync budget exhausted); writes refuse typed. *)

val checkpoint_now :
  t ->
  ( int option,
    [ `Degraded | `Closed | `Halted | `Io_error of string ] )
  result
(** Force one rotate-and-checkpoint cycle now.  [Ok (Some boundary)]
    on publish, [Ok None] when nothing new needed covering. *)

val close : t -> (unit, [ `Degraded | `Closed | `Halted ]) result
(** Stop the checkpointer and close the WAL (final flush: [Ok] means
    everything appended is on disk).  Call after draining the server. *)

val abandon : t -> unit
(** Post-crash teardown ([Persist.Io.halt] already called): join
    threads, close fds, flush nothing. *)
