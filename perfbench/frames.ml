(* Incremental splitter for the length-prefixed frames of [Kv.Protocol]
   (4-byte big-endian payload length, then the payload).

   The driver reads whatever the socket holds, so one read may end in
   the middle of a length prefix or a payload, and one read may hold
   many frames.  [feed] appends raw bytes; [next] returns complete
   payloads in stream order and keeps any partial tail for the next
   feed.  Reply ids are not interpreted here: pairing a reply with its
   request is the caller's job, since replies may arrive in any order. *)

type t = { mutable buf : Bytes.t; mutable start : int; mutable stop : int }

let create () = { buf = Bytes.create 65536; start = 0; stop = 0 }

let buffered t = t.stop - t.start

let feed t src off len =
  if len > 0 then begin
    if t.stop + len > Bytes.length t.buf then begin
      let live = buffered t in
      let cap = ref (Bytes.length t.buf) in
      while live + len > !cap do
        cap := 2 * !cap
      done;
      let b = if !cap = Bytes.length t.buf then t.buf else Bytes.create !cap in
      Bytes.blit t.buf t.start b 0 live;
      t.buf <- b;
      t.start <- 0;
      t.stop <- live
    end;
    Bytes.blit src off t.buf t.stop len;
    t.stop <- t.stop + len
  end

let next t =
  let avail = buffered t in
  if avail < 4 then None
  else begin
    let len = Int32.to_int (Bytes.get_int32_be t.buf t.start) land 0xFFFFFFFF in
    if len > Kv.Protocol.max_frame then
      raise (Kv.Protocol.Protocol_error (Printf.sprintf "frame of %d bytes" len));
    if avail < 4 + len then None
    else begin
      let p = Bytes.sub t.buf (t.start + 4) len in
      t.start <- t.start + 4 + len;
      if t.start = t.stop then begin
        t.start <- 0;
        t.stop <- 0
      end;
      Some p
    end
  end
