(* Storage-path fault family (DESIGN.md §14): the production injector
   for the persistence layer's {!Persist.Io} seam.

   Same shape as {!Chaos_net} on the traffic path: a seeded plan of
   one-in-N faults, counters for what actually fired, and determinism
   per (seed, salt) so a failing crash-storm run replays.  The faults
   are what real disks and real kills do to a write-ahead log:

   - torn writes: a prefix of the buffer reaches the file and the
     process dies ([Io.Halted]) — kill -9 mid group-commit;
   - short writes: the kernel takes fewer bytes than asked (the
     caller's write loop must cope);
   - failed fsyncs ([EIO]) — the WAL's retry budget and degraded
     state exist for these;
   - delayed fsyncs — a stalled disk; durable acks must convert to
     typed timeouts, not unbounded latency.

   {!arm_kill} schedules one deterministic kill on the Nth matching
   write (or fsync): the crash-storm harness sweeps N to place crashes
   at every phase of commit and checkpoint.  All randomized decisions
   come from one seeded [Ct_util.Rng] guarded by a mutex — the
   injector is called from committer, checkpointer and harness
   threads. *)

module Rng = Ct_util.Rng
module Io = Persist.Io

type plan = {
  seed : int;
  target : string;  (* only paths containing this substring; "" = all *)
  torn_one_in : int;  (* 0 = never *)
  short_one_in : int;
  fsync_fail_one_in : int;
  fsync_delay_one_in : int;
  fsync_delay_s : float;
}

let quiet =
  {
    seed = 0xD15C;
    target = "";
    torn_one_in = 0;
    short_one_in = 0;
    fsync_fail_one_in = 0;
    fsync_delay_one_in = 0;
    fsync_delay_s = 0.02;
  }

(* Default storm plan: frequent short writes (harmless if the write
   loop is right), occasional stalled and failed fsyncs.  Torn writes
   stay opt-in — they kill the process, which is {!arm_kill}'s job to
   do at a chosen spot. *)
let default =
  {
    quiet with
    short_one_in = 7;
    fsync_fail_one_in = 200;
    fsync_delay_one_in = 50;
  }

type kill = {
  k_target : string;
  k_at_fsync : bool;
  mutable k_after : int;  (* matching ops left before the kill *)
}

type t = {
  plan : plan;
  rng : Rng.t;
  mu : Mutex.t;
  mutable kill : kill option;
  mutable torn : int;
  mutable killed : int;
}

let contains ~sub s =
  sub = ""
  ||
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let hit t one_in = one_in > 0 && Rng.next_int t.rng one_in = 0

(* A kill consumes its countdown only on ops matching its own target
   filter; when the countdown crosses zero the op becomes the crash. *)
let kill_due t ~path ~fsync =
  match t.kill with
  | Some k when k.k_at_fsync = fsync && contains ~sub:k.k_target path ->
      k.k_after <- k.k_after - 1;
      if k.k_after < 0 then begin
        t.kill <- None;
        t.killed <- t.killed + 1;
        true
      end
      else false
  | _ -> false

let on_write t ~path ~len =
  Mutex.lock t.mu;
  let d =
    if not (contains ~sub:t.plan.target path) then Io.W_ok
    else if kill_due t ~path ~fsync:false then begin
      (* Deterministic kill: persist a seeded fraction of the buffer. *)
      Io.W_torn (Rng.next_int t.rng (len + 1))
    end
    else if hit t t.plan.torn_one_in then begin
      t.torn <- t.torn + 1;
      Io.W_torn (Rng.next_int t.rng (len + 1))
    end
    else if hit t t.plan.short_one_in && len > 1 then
      Io.W_short (1 + Rng.next_int t.rng (len - 1))
    else Io.W_ok
  in
  Mutex.unlock t.mu;
  d

let on_fsync t ~path =
  Mutex.lock t.mu;
  let d =
    if not (contains ~sub:t.plan.target path) then Io.F_ok
    else if kill_due t ~path ~fsync:true then Io.F_halt
    else if hit t t.plan.fsync_fail_one_in then Io.F_error
    else if hit t t.plan.fsync_delay_one_in then Io.F_delay t.plan.fsync_delay_s
    else Io.F_ok
  in
  Mutex.unlock t.mu;
  d

let install ?(salt = 0) plan =
  let t =
    {
      plan;
      rng = Rng.create (Rng.mix64 (plan.seed lxor (salt * 0x9E3779B9)));
      mu = Mutex.create ();
      kill = None;
      torn = 0;
      killed = 0;
    }
  in
  Io.install
    { Io.on_write = (fun ~path ~len -> on_write t ~path ~len);
      on_fsync = (fun ~path -> on_fsync t ~path) };
  t

let arm_kill t ?(target = "") ?(at_fsync = false) ~after () =
  if after < 0 then invalid_arg "Chaos_disk.arm_kill";
  Mutex.lock t.mu;
  t.kill <- Some { k_target = target; k_at_fsync = at_fsync; k_after = after };
  Mutex.unlock t.mu

let kill_armed t =
  Mutex.lock t.mu;
  let b = t.kill <> None in
  Mutex.unlock t.mu;
  b

let counter t f =
  Mutex.lock t.mu;
  let n = f t in
  Mutex.unlock t.mu;
  n

let torn t = counter t (fun t -> t.torn)
let killed t = counter t (fun t -> t.killed)

let clear = Io.clear
