(** Wire protocol of the KV serving layer (DESIGN.md §12).

    Length-prefixed binary frames over a byte stream: every message is
    a 4-byte big-endian payload length followed by the payload.  A
    request payload is

    {v
      opcode      u8     bits 0-5: 0 ping, 1 get, 2 put, 3 remove
                         bit 6: trace extension present
      id          u32    client-chosen correlation id
      deadline    u64    nanosecond budget, 0 = none (requests only)
      key         i64    OCaml int, sign-extended
      [trace]     u8+u64 only when opcode bit 6 is set: flags byte
                         (bit 0 = sampled) + 62-bit trace id
      value       rest   put only
    v}

    The trace extension is best-effort metadata: frames without the
    bit (the pre-trace format) parse exactly as before, and a frame
    {e with} the bit but too short to hold the 9 extension bytes
    decodes as an untraced request — never a decode error, so a
    corrupted or truncated extension cannot poison the connection.

    A reply payload is

    {v
      status      u8
      id          u32    echoes the request id
      detail      u8     status-specific (shed reason, replaced flag)
      value       rest   get hits and server errors only
    v}

    The protocol is strictly request/reply but {e pipelined}: a client
    may have any number of requests in flight on one connection, and
    replies carry the request id because durable acks reorder them: a
    write's reply waits for its fsync while later reads answer at
    once.
    Every accepted frame gets exactly one reply — load shedding is a
    typed {!reply} ([Overloaded], [Deadline_exceeded],
    [Shutting_down]), never a silent drop. *)

type op =
  | Ping
  | Get of int
  | Put of int * string
  | Remove of int

type request = {
  id : int;  (** correlation id, 32-bit unsigned *)
  deadline_ns : int;
      (** nanosecond budget measured from server-side arrival;
          0 = no deadline *)
  op : op;
  trace : int;
      (** packed trace context ({!Obs.Trace.ctx} layout: bit 0 =
          sampled, bits 1..62 = trace id); 0 = untraced.  Kept as a
          plain int so the protocol layer stays free of the obs
          dependency. *)
}

(** Why an [Overloaded] reply was shed (the [detail] byte). *)
type shed_reason =
  | Queue_full  (** one read of the connection carried more frames
                    than the server's [queue_capacity]; this one was
                    past the bound *)
  | Latency_breach  (** admission control: served p99 over the bound *)

type reply =
  | Value of string  (** get hit *)
  | Nil  (** get/remove miss *)
  | Stored of bool  (** put done; [true] = replaced an existing binding *)
  | Removed  (** remove hit *)
  | Pong
  | Overloaded of shed_reason  (** typed load shed; the request was
                                   {e not} executed *)
  | Deadline_exceeded  (** the deadline expired before execution;
                           not executed *)
  | Shutting_down  (** arrived after drain began; not executed *)
  | Bad_request of string
  | Server_error of string
  | Read_only
      (** durable mode only: the write-ahead log degraded (fsync retry
          budget exhausted) and the server refuses writes rather than
          acknowledge data it cannot make durable; not executed *)

val max_frame : int
(** Hard cap on accepted payload size (1 MiB); larger announced
    lengths poison the connection ({!Reader.read_frame} raises
    {!Protocol_error}). *)

exception Protocol_error of string

val encode_request : request -> Bytes.t
(** Full frame, length prefix included. *)

val decode_request : Bytes.t -> (request, string) result
(** Decode one request payload (no length prefix). *)

val encode_reply : id:int -> reply -> Bytes.t

val decode_reply : Bytes.t -> (int * reply, string) result

val reply_label : reply -> string
(** Stable snake_case tag for ledgers and stats ("ok_value",
    "overloaded_queue_full", ...). *)

(** Buffered frame extraction from a file descriptor.  One [Reader.t]
    per connection, used only by the connection's one reader (the
    server's owning loop, or a client). *)
module Reader : sig
  type t

  val create : unit -> t

  val fill : t -> Unix.file_descr -> int
  (** One [read] into the buffer: the number of bytes read, 0 at EOF.
      Blocks only as [Unix.read] does; lets [Unix.Unix_error] escape. *)

  val next_frame : t -> Bytes.t option
  (** Next complete payload already in the buffer, or [None] until
      more bytes arrive.  Never reads.  Raises {!Protocol_error} on an
      oversized announced length. *)

  val read_frame : t -> Unix.file_descr -> Bytes.t option
  (** Next payload, blocking on the fd as needed.  [None] on orderly
      EOF at a frame boundary.  Raises {!Protocol_error} on an
      oversized frame or EOF mid-frame, and lets [Unix.Unix_error]
      (including [EAGAIN] from a receive timeout) escape to the
      caller. *)

  val pending : t -> bool
  (** A partially received frame is buffered — used by the server's
      slow-loris defence: a frame left partial for longer than the
      idle timeout means the peer is trickling it. *)
end
