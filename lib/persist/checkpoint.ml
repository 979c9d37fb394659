(* Snapshot checkpoints (DESIGN.md §14).

   A checkpoint is the materialized map at a WAL boundary: replaying it
   plus the WAL suffix [> lsn] reconstructs the store.  The durable
   layer produces the bindings with [Ctrie_snap.fold_snapshot] — an
   O(1) snapshot the writers never wait on — so checkpointing is a
   background reader, not a stop-the-world pause.

   File format ([checkpoint-<lsn>.ckpt]):

     magic "ctkv-ckpt v1\n" | u64 lsn
     records: u32 len | u32 crc32(payload) | payload = i64 key | value
     u32 0 terminator
     footer: u64 count | u32 crc32(count bytes)

   The footer makes truncation detectable even at a record boundary.

   Publication is crash-atomic: write [checkpoint-<lsn>.tmp] through
   the fault-injectable {!Io} seam, fsync it, rename to [.ckpt], fsync
   the directory.  A crash mid-write leaves only a [.tmp], which
   recovery ignores (and counts); a published [.ckpt] is complete or
   the CRCs say otherwise. *)

module Metrics = Ct_util.Metrics

let magic = "ctkv-ckpt v1\n"

let ckpt_name lsn = Printf.sprintf "checkpoint-%016d.ckpt" lsn
let tmp_name lsn = Printf.sprintf "checkpoint-%016d.tmp" lsn

let name_lsn ~suffix name =
  if
    String.length name = 11 + 16 + String.length suffix
    && String.sub name 0 11 = "checkpoint-"
    && String.sub name 27 (String.length suffix) = suffix
  then int_of_string_opt (String.sub name 11 16)
  else None

let ckpt_lsn_of_name = name_lsn ~suffix:".ckpt"
let tmp_lsn_of_name = name_lsn ~suffix:".tmp"

let list_files dir =
  match Sys.readdir dir with a -> Array.to_list a | exception _ -> []

let latest ~dir =
  list_files dir
  |> List.filter_map (fun n ->
         match ckpt_lsn_of_name n with
         | Some l -> Some (l, Filename.concat dir n)
         | None -> None)
  |> List.sort (fun (a, _) (b, _) -> compare b a)
  |> function
  | [] -> None
  | best :: _ -> Some best

let tmp_leftovers ~dir =
  list_files dir |> List.filter (fun n -> tmp_lsn_of_name n <> None)

(* ------------------------------- write ------------------------------ *)

let chunk = 64 * 1024

let write ?metrics ~dir ~lsn ~iter () =
  let tmp = Filename.concat dir (tmp_name lsn) in
  let final = Filename.concat dir (ckpt_name lsn) in
  match
    Unix.openfile tmp
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  with
  | exception Unix.Unix_error (e, _, _) ->
      Error (`Io_error (Printf.sprintf "%s: %s" tmp (Unix.error_message e)))
  | fd -> (
      (* One reusable chunk: each binding is encoded and checksummed in
         place, and a full chunk goes straight to [write_all].  A
         binding larger than the chunk writes its header from the chunk
         and its value from the caller's string. *)
      let buf = Bytes.create chunk in
      let pos = ref 0 in
      let count = ref 0 in
      let flush () =
        if !pos > 0 then begin
          Io.write_all fd ~path:tmp buf 0 !pos;
          pos := 0
        end
      in
      let room n = if !pos + n > chunk then flush () in
      let emit key value =
        let vlen = String.length value in
        room (16 + min vlen (chunk - 16));
        let h = !pos in
        Bytes.set_int32_be buf h (Int32.of_int (8 + vlen));
        Bytes.set_int64_be buf (h + 8) (Int64.of_int key);
        let v = Bytes.unsafe_of_string value in
        let crc = Crc32.update (Crc32.bytes buf (h + 8) 8) v 0 vlen in
        Bytes.set_int32_be buf (h + 4) (Int32.of_int crc);
        pos := h + 16;
        if !pos + vlen <= chunk then begin
          Bytes.blit_string value 0 buf !pos vlen;
          pos := !pos + vlen
        end
        else begin
          flush ();
          Io.write_all fd ~path:tmp v 0 vlen
        end;
        incr count
      in
      match
        Bytes.blit_string magic 0 buf 0 (String.length magic);
        Bytes.set_int64_be buf (String.length magic) (Int64.of_int lsn);
        pos := String.length magic + 8;
        iter emit;
        (* terminator + footer *)
        room 16;
        let h = !pos in
        Bytes.set_int32_be buf h 0l;
        Bytes.set_int64_be buf (h + 4) (Int64.of_int !count);
        Bytes.set_int32_be buf (h + 12) (Int32.of_int (Crc32.bytes buf (h + 4) 8));
        pos := h + 16;
        flush ();
        Io.fsync fd ~path:tmp
      with
      | () ->
          (try Unix.close fd with _ -> ());
          (match Unix.rename tmp final with
          | () ->
              Io.fsync_dir dir;
              (match metrics with
              | Some m ->
                  Metrics.incr m Metrics.Checkpoints;
                  Metrics.add m Metrics.Checkpoint_records !count
              | None -> ());
              Ok !count
          | exception Unix.Unix_error (e, _, _) ->
              Error
                (`Io_error (Printf.sprintf "rename %s: %s" tmp (Unix.error_message e))))
      | exception Io.Halted ->
          (try Unix.close fd with _ -> ());
          Error `Halted
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with _ -> ());
          (try Sys.remove tmp with _ -> ());
          Error (`Io_error (Printf.sprintf "%s: %s" tmp (Unix.error_message e))))

(* ------------------------------- read ------------------------------- *)

let u32 s off = Int32.to_int (String.get_int32_be s off) land 0xFFFF_FFFF

let read ~path ~add =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | s -> (
      let n = String.length s in
      let hdr = String.length magic in
      if n < hdr + 8 then Error "truncated header"
      else if String.sub s 0 hdr <> magic then Error "bad magic"
      else begin
        let lsn = Int64.to_int (String.get_int64_be s hdr) in
        let count = ref 0 in
        let rec records pos =
          if pos + 4 > n then Error "truncated at record length"
          else
            let len = u32 s pos in
            if len = 0 then begin
              (* terminator; footer follows *)
              if pos + 4 + 12 > n then Error "truncated footer"
              else
                let declared = Int64.to_int (String.get_int64_be s (pos + 4)) in
                let crc = u32 s (pos + 12) in
                let actual =
                  Crc32.bytes (Bytes.unsafe_of_string s) (pos + 4) 8
                in
                if crc <> actual then Error "footer crc mismatch"
                else if declared <> !count then
                  Error
                    (Printf.sprintf "record count mismatch: footer %d, read %d"
                       declared !count)
                else Ok (lsn, !count)
            end
            else if len < 8 then
              Error (Printf.sprintf "bad record length %d at offset %d" len pos)
            else if pos + 8 + len > n then
              Error (Printf.sprintf "truncated record at offset %d" pos)
            else begin
              let crc = u32 s (pos + 4) in
              let actual = Crc32.bytes (Bytes.unsafe_of_string s) (pos + 8) len in
              if crc <> actual then
                Error (Printf.sprintf "record crc mismatch at offset %d" pos)
              else begin
                let key = Int64.to_int (String.get_int64_be s (pos + 8)) in
                let value = String.sub s (pos + 16) (len - 8) in
                add key value;
                incr count;
                records (pos + 8 + len)
              end
            end
        in
        records (hdr + 8)
      end)

(* -------------------------------- gc -------------------------------- *)

(* Remove superseded checkpoints (lsn < keep) and crash leftovers
   (any .tmp — only one checkpointer runs, so a .tmp on disk when gc
   runs is a dead incarnation's).  Returns the number removed. *)
let gc ~dir ~keep =
  let removed = ref 0 in
  List.iter
    (fun name ->
      let kill =
        match ckpt_lsn_of_name name with
        | Some l -> l < keep
        | None -> tmp_lsn_of_name name <> None
      in
      if kill then
        try
          Sys.remove (Filename.concat dir name);
          incr removed
        with _ -> ())
    (list_files dir);
  !removed
