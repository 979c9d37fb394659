(* On-disk footprint of a durable store directory: write-ahead-log
   segments and published checkpoints, each summed separately.  Partial
   checkpoint files and anything else in the directory count as
   neither. *)

type t = { wal_bytes : int; ckpt_bytes : int }

let measure dir =
  Array.fold_left
    (fun acc name ->
      let size () = Proc.file_size (Filename.concat dir name) in
      if Persist.Wal.seg_start_of_name name <> None then
        { acc with wal_bytes = acc.wal_bytes + size () }
      else if Persist.Checkpoint.ckpt_lsn_of_name name <> None then
        { acc with ckpt_bytes = acc.ckpt_bytes + size () }
      else acc)
    { wal_bytes = 0; ckpt_bytes = 0 }
    (try Sys.readdir dir with Sys_error _ -> [||])

let total t = t.wal_bytes + t.ckpt_bytes

(* Bytes of live user data: an 8-byte key plus the value, per binding. *)
let user_bytes fold m = fold (fun acc _k v -> acc + 8 + String.length v) 0 m
