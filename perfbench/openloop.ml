(* Open-loop request schedule with due-time latency accounting.

   Request [i] is due at [t0 + i * 1e9 / rate] whatever happened to
   earlier requests: a slow reply never delays the next send.  Each
   request's latency is timed from when it was {e due}, not from when
   the driver got round to sending it, so a stall of the driver or of
   the host is charged to every request it delayed (no coordinated
   omission).  How late the driver itself ran is kept per request.

   The clock and the I/O are parameters, so the schedule can be run
   against a fake clock in tests. *)

type t = {
  n : int;
  t0 : int;
  interval_ns : float;
  late : int array;  (** send time minus due time; -1 while unsent *)
  done_ns : int array;  (** reply time; -1 while unanswered *)
  mutable sent : int;
  mutable completed : int;
}

let create ~n ~rate ~t0 =
  if n < 1 || rate <= 0.0 then invalid_arg "Openloop.create";
  {
    n;
    t0;
    interval_ns = 1e9 /. rate;
    late = Array.make n (-1);
    done_ns = Array.make n (-1);
    sent = 0;
    completed = 0;
  }

let due t i = t.t0 + int_of_float (float_of_int i *. t.interval_ns)

(* Record the reply to request [i] at time [at]; a duplicate reply for
   the same request is ignored and reported as [false]. *)
let complete t i ~at =
  if i < 0 || i >= t.n || t.done_ns.(i) >= 0 then false
  else begin
    t.done_ns.(i) <- at;
    t.completed <- t.completed + 1;
    true
  end

let latency t i = t.done_ns.(i) - due t i

(* Send every request as it falls due.  [send i] transmits request [i];
   [wait ~until] processes replies until the clock reaches [until] (or
   earlier) and returns [false] once no reply can arrive any more, in
   which case the run stops early and the unsent requests stay unsent. *)
let run t ~now ~send ~wait =
  let alive = ref true in
  while !alive && t.sent < t.n do
    let i = t.sent in
    let d = due t i in
    let tn = now () in
    if d <= tn then begin
      t.late.(i) <- tn - d;
      send i;
      t.sent <- i + 1
    end
    else alive := wait ~until:d
  done;
  !alive

(* After the last send: wait for the outstanding replies, at most
   [timeout_ns]. *)
let finish t ~now ~wait ~timeout_ns =
  let deadline = now () + timeout_ns in
  let alive = ref true in
  while !alive && t.completed < t.sent && now () < deadline do
    alive := wait ~until:deadline
  done
