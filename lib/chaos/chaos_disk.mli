(** Storage-path fault family: the production injector for the
    persistence layer's {!Persist.Io} seam (torn writes, short writes,
    failed and delayed fsyncs, deterministic kills).  Seeded and
    replayable, like {!Chaos_net} on the traffic path. *)

type plan = {
  seed : int;
  target : string;
      (** only inject on paths containing this substring; [""] = all *)
  torn_one_in : int;  (** kill -9 mid-write, prefix persisted; 0 = never *)
  short_one_in : int;  (** partial write accepted; the caller loops *)
  fsync_fail_one_in : int;  (** fsync fails with [EIO] *)
  fsync_delay_one_in : int;  (** stalled disk *)
  fsync_delay_s : float;
}

val quiet : plan
(** No faults — the do-no-harm baseline. *)

val default : plan
(** Short writes one-in-7, failed fsyncs one-in-200, stalled fsyncs
    one-in-50.  Torn writes stay off: process kills are {!arm_kill}'s
    job, placed deterministically. *)

type t

val install : ?salt:int -> plan -> t
(** Install as THE process-global {!Persist.Io} injector (last
    installed wins).  [salt] decorrelates the RNG across storm
    iterations sharing one plan seed. *)

val arm_kill : t -> ?target:string -> ?at_fsync:bool -> after:int -> unit -> unit
(** Schedule one deterministic kill: the [after]-th next write (fsync
    when [at_fsync]) whose path contains [target] becomes the crash —
    a torn write persisting a seeded prefix, then {!Persist.Io.halt}.
    Sweeping [after] places crashes at every phase of group commit and
    checkpoint publication. *)

val kill_armed : t -> bool
(** [false] once the armed kill has fired (or none was armed). *)

val torn : t -> int

val killed : t -> int
(** Armed kills that actually fired. *)

val clear : unit -> unit
(** Uninstall ({!Persist.Io.clear}); storage I/O returns to the
    production fast path. *)
