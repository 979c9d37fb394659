(* Durable KV store (DESIGN.md §14): the snapshotting ctrie, a
   group-commit WAL, and a background checkpointer, glued into the
   {!Server.durable} hook record.

   The division of labour: the {e serving loop} applies an operation
   to the map and appends it to the WAL (apply-before-append), both
   under the key's stripe lock, so that two loops writing one key for
   two connections log its writes in the order the map applied them.
   This module owns everything else — recovery at open, the WAL's
   lifecycle, and the checkpointer thread that periodically:

     1. {!Wal.rotate}s — sealing the current segment at a boundary LSN
        every record of which is both durable and applied;
     2. serializes a {!Map.fold_snapshot} (the paper's O(1)
        linearizable snapshot — writers never pause) taken {e after}
        the rotation, so the checkpoint covers at least the boundary;
     3. publishes it crash-atomically and garbage-collects the sealed
        segments and superseded checkpoints.

   The snapshot may also contain effects of records {e beyond} the
   boundary; recovery's replay is idempotent, so the overlap is
   harmless — that is the invariant that buys checkpointing without a
   stop-the-world. *)

module Metrics = Ct_util.Metrics
module Wal = Persist.Wal
module Checkpoint = Persist.Checkpoint
module Recovery = Persist.Recovery
module Io = Persist.Io

(* The served map type: the snapshotting ctrie over int keys.  Server
   users instantiate [Server.Make (Durable.Map)] so the functor and
   this module agree on the representation. *)
module Map = Ctrie_snap.Make (Ct_util.Hashing.Int_key)

type config = {
  wal : Wal.config;
  checkpoint_every : int;  (* records appended between checkpoints *)
  checkpoint_interval : float;  (* checkpointer poll period, seconds *)
}

let default_config =
  {
    wal = Wal.default_config;
    checkpoint_every = 8192;
    checkpoint_interval = 0.01;
  }

type t = {
  dir : string;
  cfg : config;
  map : string Map.t;
  wal : Wal.t;
  metrics : Metrics.t;
  ckpt_mu : Mutex.t;  (* one checkpoint at a time (thread + manual) *)
  mutable last_ckpt : int;  (* boundary LSN of the newest checkpoint *)
  stop : bool Atomic.t;
  mutable checkpointer : Thread.t option;
}

let map t = t.map
let wal t = t.wal
let metrics t = t.metrics
let read_only t = Wal.degraded t.wal

(* ---------------------------- checkpointing ------------------------- *)

(* One checkpoint attempt.  [Ok (Some boundary)] on publish, [Ok None]
   when there was nothing new to cover. *)
let checkpoint_now t =
  Mutex.lock t.ckpt_mu;
  let r =
    match Wal.rotate t.wal with
    | Error e ->
        Error
          (e
            :> [ `Degraded | `Closed | `Halted | `Io_error of string ])
    | Ok boundary ->
        if boundary <= t.last_ckpt then Ok None
        else begin
          let iter emit =
            Map.fold_snapshot (fun () k v -> emit k v) () t.map
          in
          match
            Checkpoint.write ~metrics:t.metrics ~dir:t.dir ~lsn:boundary ~iter
              ()
          with
          | Ok _count ->
              t.last_ckpt <- boundary;
              ignore (Checkpoint.gc ~dir:t.dir ~keep:boundary);
              ignore (Wal.drop_segments_below t.wal ~lsn:boundary);
              Ok (Some boundary)
          | Error `Halted -> Error `Halted
          | Error (`Io_error _ as e) -> Error e
        end
  in
  Mutex.unlock t.ckpt_mu;
  r

let checkpointer t () =
  let rec loop () =
    Unix.sleepf t.cfg.checkpoint_interval;
    if Atomic.get t.stop || Io.is_halted () then ()
    else if Wal.last_lsn t.wal - t.last_ckpt >= t.cfg.checkpoint_every then begin
      match checkpoint_now t with
      | Ok _ -> loop ()
      | Error `Halted -> ()
      | Error (`Degraded | `Closed) -> ()  (* the log is done writing *)
      | Error (`Io_error _) -> loop ()  (* retry next period *)
    end
    else loop ()
  in
  loop ()

(* ------------------------------ lifecycle --------------------------- *)

let open_ ?(config = default_config) ?(salvage = false) ~dir () =
  if config.checkpoint_every < 1 || config.checkpoint_interval <= 0.0 then
    invalid_arg "Durable.open_";
  let metrics = Metrics.create ~family:"durable" in
  let map = Map.create () in
  match
    Recovery.load ~salvage ~metrics ~dir
      ~put:(fun k v -> ignore (Map.add map k v))
      ~remove:(fun k -> ignore (Map.remove map k))
      ()
  with
  | Error e -> Error e
  | Ok stats ->
      let wal =
        Wal.open_ ~config:config.wal ~metrics ~dir
          ~next_lsn:(stats.Recovery.last_lsn + 1) ()
      in
      let t =
        {
          dir;
          cfg = config;
          map;
          wal;
          metrics;
          ckpt_mu = Mutex.create ();
          last_ckpt = stats.Recovery.checkpoint_lsn;
          stop = Atomic.make false;
          checkpointer = None;
        }
      in
      t.checkpointer <- Some (Thread.create (checkpointer t) ());
      Ok (t, stats)

let hooks t =
  {
    Server.d_append = (fun op -> Wal.append t.wal op);
    d_subscribe = (fun ~lsn ~deadline_ns cb -> Wal.subscribe t.wal ~lsn ~deadline_ns cb);
    d_flush = (fun () -> ignore (Wal.flush t.wal));
    d_read_only = (fun () -> Wal.degraded t.wal);
  }

let join_checkpointer t =
  Atomic.set t.stop true;
  (match t.checkpointer with Some th -> Thread.join th | None -> ());
  t.checkpointer <- None

let close t =
  join_checkpointer t;
  Wal.close t.wal

(* Post-crash teardown: reap threads, close fds, flush nothing — the
   incarnation is dead and the next one starts from the disk. *)
let abandon t =
  join_checkpointer t;
  Wal.abandon t.wal
