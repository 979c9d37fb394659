(* Length-prefixed binary framing.  Fixed header fields use the
   big-endian Bytes accessors; the variable tail (put values, error
   messages) is raw bytes.  Encoders produce one contiguous frame so a
   single [write] publishes the whole message — interleaving between
   concurrent writers on one fd is then a per-frame affair, which the
   per-connection write mutex in the server enforces anyway. *)

type op =
  | Ping
  | Get of int
  | Put of int * string
  | Remove of int

type request = { id : int; deadline_ns : int; op : op; trace : int }

type shed_reason = Queue_full | Latency_breach

type reply =
  | Value of string
  | Nil
  | Stored of bool
  | Removed
  | Pong
  | Overloaded of shed_reason
  | Deadline_exceeded
  | Shutting_down
  | Bad_request of string
  | Server_error of string
  | Read_only

let max_frame = 1 lsl 20

exception Protocol_error of string

(* ----------------------------- requests ---------------------------- *)

let opcode = function Ping -> 0 | Get _ -> 1 | Put _ -> 2 | Remove _ -> 3

(* Bit 6 of the opcode byte announces the optional trace extension:
   9 bytes (flags u8, trace id u64) spliced between the fixed header
   and the value.  Old-format frames never set the bit, so they parse
   unchanged; decoders that see the bit but not the 9 bytes degrade to
   an untraced request rather than a decode error — tracing is
   best-effort metadata and must never poison a connection. *)
let trace_flag = 0x40
let trace_ext = 1 + 8
let id62_mask = (1 lsl 62) - 1

let req_fixed = 1 + 4 + 8 + 8 (* opcode, id, deadline, key *)

let encode_request r =
  if r.id < 0 || r.id > 0xFFFF_FFFF then
    invalid_arg "Protocol.encode_request: id out of u32 range";
  if r.deadline_ns < 0 then
    invalid_arg "Protocol.encode_request: negative deadline";
  let value = match r.op with Put (_, v) -> v | _ -> "" in
  let traced = r.trace <> 0 in
  let ext = if traced then trace_ext else 0 in
  let len = req_fixed + ext + String.length value in
  if len > max_frame then invalid_arg "Protocol.encode_request: oversized";
  let b = Bytes.create (4 + len) in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.set_uint8 b 4 (opcode r.op lor if traced then trace_flag else 0);
  Bytes.set_int32_be b 5 (Int32.of_int r.id);
  Bytes.set_int64_be b 9 (Int64.of_int r.deadline_ns);
  let key = match r.op with Ping -> 0 | Get k | Put (k, _) | Remove k -> k in
  Bytes.set_int64_be b 17 (Int64.of_int key);
  if traced then begin
    Bytes.set_uint8 b 25 (r.trace land 1);
    Bytes.set_int64_be b 26 (Int64.of_int (r.trace lsr 1))
  end;
  Bytes.blit_string value 0 b (4 + req_fixed + ext) (String.length value);
  b

let u32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFF_FFFF

let decode_request payload =
  let n = Bytes.length payload in
  if n < req_fixed then Error "short request frame"
  else
    let raw = Bytes.get_uint8 payload 0 in
    let has_ext = raw land trace_flag <> 0 in
    let id = u32 payload 1 in
    let deadline_ns = Int64.to_int (Bytes.get_int64_be payload 5) in
    let key = Int64.to_int (Bytes.get_int64_be payload 13) in
    (* Truncated extension: fall back to an untraced request with the
       body where the old format put it.  [trace = 0] downstream means
       "no context", which is the correct degradation. *)
    let trace, body =
      if has_ext && n >= req_fixed + trace_ext then begin
        let flags = Bytes.get_uint8 payload req_fixed in
        let wid =
          Int64.to_int (Bytes.get_int64_be payload (req_fixed + 1)) land id62_mask
        in
        let trace = if wid = 0 then 0 else (wid lsl 1) lor (flags land 1) in
        (trace, req_fixed + trace_ext)
      end
      else (0, req_fixed)
    in
    if deadline_ns < 0 then Error "negative deadline"
    else
      match raw land lnot trace_flag with
      | 0 -> Ok { id; deadline_ns; op = Ping; trace }
      | 1 -> Ok { id; deadline_ns; op = Get key; trace }
      | 2 ->
          let value = Bytes.sub_string payload body (n - body) in
          Ok { id; deadline_ns; op = Put (key, value); trace }
      | 3 -> Ok { id; deadline_ns; op = Remove key; trace }
      | c -> Error (Printf.sprintf "unknown opcode %d" c)

(* ------------------------------ replies ---------------------------- *)

let status_of = function
  | Value _ -> 0
  | Nil -> 1
  | Stored _ -> 2
  | Removed -> 3
  | Pong -> 4
  | Overloaded _ -> 5
  | Deadline_exceeded -> 6
  | Shutting_down -> 7
  | Bad_request _ -> 8
  | Server_error _ -> 9
  | Read_only -> 10

let rep_fixed = 1 + 4 + 1 (* status, id, detail *)

let encode_reply ~id reply =
  if id < 0 || id > 0xFFFF_FFFF then
    invalid_arg "Protocol.encode_reply: id out of u32 range";
  let detail =
    match reply with
    | Overloaded Queue_full -> 0
    | Overloaded Latency_breach -> 1
    | Stored replaced -> if replaced then 1 else 0
    | _ -> 0
  in
  let value =
    match reply with
    | Value v -> v
    | Bad_request m | Server_error m -> m
    | _ -> ""
  in
  let len = rep_fixed + String.length value in
  if len > max_frame then invalid_arg "Protocol.encode_reply: oversized";
  let b = Bytes.create (4 + len) in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.set_uint8 b 4 (status_of reply);
  Bytes.set_int32_be b 5 (Int32.of_int id);
  Bytes.set_uint8 b 9 detail;
  Bytes.blit_string value 0 b 10 (String.length value);
  b

let decode_reply payload =
  let n = Bytes.length payload in
  if n < rep_fixed then Error "short reply frame"
  else
    let id = u32 payload 1 in
    let detail = Bytes.get_uint8 payload 5 in
    let value () = Bytes.sub_string payload rep_fixed (n - rep_fixed) in
    match Bytes.get_uint8 payload 0 with
    | 0 -> Ok (id, Value (value ()))
    | 1 -> Ok (id, Nil)
    | 2 -> Ok (id, Stored (detail = 1))
    | 3 -> Ok (id, Removed)
    | 4 -> Ok (id, Pong)
    | 5 -> (
        match detail with
        | 0 -> Ok (id, Overloaded Queue_full)
        | 1 -> Ok (id, Overloaded Latency_breach)
        | d -> Error (Printf.sprintf "unknown shed reason %d" d))
    | 6 -> Ok (id, Deadline_exceeded)
    | 7 -> Ok (id, Shutting_down)
    | 8 -> Ok (id, Bad_request (value ()))
    | 9 -> Ok (id, Server_error (value ()))
    | 10 -> Ok (id, Read_only)
    | s -> Error (Printf.sprintf "unknown status %d" s)

let reply_label = function
  | Value _ -> "ok_value"
  | Nil -> "ok_nil"
  | Stored _ -> "ok_stored"
  | Removed -> "ok_removed"
  | Pong -> "ok_pong"
  | Overloaded Queue_full -> "overloaded_queue_full"
  | Overloaded Latency_breach -> "overloaded_latency_breach"
  | Deadline_exceeded -> "deadline_exceeded"
  | Shutting_down -> "shutting_down"
  | Bad_request _ -> "bad_request"
  | Server_error _ -> "server_error"
  | Read_only -> "read_only"

(* ------------------------------ reader ----------------------------- *)

module Reader = struct
  (* A growable staging buffer: [read] appends raw bytes at [fill],
     [read_frame] consumes complete frames from [start].  Compaction
     happens when the consumed prefix dominates, so steady-state
     pipelined traffic shifts bytes rarely. *)
  type t = {
    mutable buf : Bytes.t;
    mutable start : int;  (* first unconsumed byte *)
    mutable fill : int;  (* end of valid data *)
  }

  let create () = { buf = Bytes.create 8192; start = 0; fill = 0 }

  let available t = t.fill - t.start

  let pending t = available t > 0

  let compact t =
    if t.start > 0 then begin
      Bytes.blit t.buf t.start t.buf 0 (available t);
      t.fill <- available t;
      t.start <- 0
    end

  let ensure_room t need =
    if t.fill + need > Bytes.length t.buf then begin
      compact t;
      if t.fill + need > Bytes.length t.buf then begin
        let cap = ref (Bytes.length t.buf) in
        while t.fill + need > !cap do
          cap := !cap * 2
        done;
        let b = Bytes.create !cap in
        Bytes.blit t.buf 0 b 0 t.fill;
        t.buf <- b
      end
    end

  let fill t fd =
    ensure_room t 4096;
    let n = Unix.read fd t.buf t.fill (Bytes.length t.buf - t.fill) in
    t.fill <- t.fill + n;
    n

  let next_frame t =
    if available t < 4 then None
    else begin
      let len = Int32.to_int (Bytes.get_int32_be t.buf t.start) in
      if len < 0 || len > max_frame then
        raise (Protocol_error (Printf.sprintf "frame length %d" len));
      if available t < 4 + len then None
      else begin
        let payload = Bytes.sub t.buf (t.start + 4) len in
        t.start <- t.start + 4 + len;
        if t.start = t.fill then begin
          t.start <- 0;
          t.fill <- 0
        end;
        Some payload
      end
    end

  let rec read_frame t fd =
    match next_frame t with
    | Some _ as frame -> frame
    | None ->
        if fill t fd > 0 then read_frame t fd
        else if available t = 0 then None
        else raise (Protocol_error "eof inside frame")
end
