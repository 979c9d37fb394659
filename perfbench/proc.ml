(* Child processes and scratch directories, with teardown that holds
   when the code driving them fails.

   A child speaks a line protocol: it prints [READY ...] on stdout once
   it serves, waits for [STOP] (or end of file) on stdin, then prints
   result lines and [END] and exits.  Closing its stdin is therefore
   enough to stop a child whose parent died. *)

type child = {
  pid : int;
  to_child : Unix.file_descr;
  from_child : Unix.file_descr;
  pending : Buffer.t;  (** bytes read from the child past the last line *)
  mutable status : Unix.process_status option;  (** set once reaped *)
  mutable cpu_s : float;  (** the child's user+system CPU, once reaped *)
}

(* User plus system CPU seconds: of this process, and of its reaped
   children. *)
let own_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let children_cpu () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

let spawn prog args =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process prog (Array.append [| prog |] args) in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  {
    pid;
    to_child = in_w;
    from_child = out_r;
    pending = Buffer.create 256;
    status = None;
    cpu_s = 0.0;
  }

let rec restart f = try f () with Unix.Unix_error (EINTR, _, _) -> restart f

(* Next line from the child, or [None] on end of file or when
   [timeout] seconds pass first. *)
let read_line ~timeout c =
  let deadline = Unix.gettimeofday () +. timeout in
  let chunk = Bytes.create 4096 in
  let rec go () =
    let s = Buffer.contents c.pending in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear c.pending;
        Buffer.add_string c.pending (String.sub s (i + 1) (String.length s - i - 1));
        Some (String.sub s 0 i)
    | None ->
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0.0 then None
        else
          let r, _, _ = restart (fun () -> Unix.select [ c.from_child ] [] [] left) in
          if r = [] then go ()
          else
            let n = restart (fun () -> Unix.read c.from_child chunk 0 4096) in
            if n = 0 then None
            else begin
              Buffer.add_subbytes c.pending chunk 0 n;
              go ()
            end
  in
  go ()

let send_line c s =
  let b = Bytes.of_string (s ^ "\n") in
  try ignore (Unix.write c.to_child b 0 (Bytes.length b))
  with Unix.Unix_error _ -> ()

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Wait for the child to exit, at most [timeout] seconds; reaps it and
   records its CPU time.  [true] iff it exited by itself. *)
let reap ~timeout c =
  match c.status with
  | Some _ -> true
  | None ->
      let cpu0 = children_cpu () in
      let deadline = Unix.gettimeofday () +. timeout in
      let rec poll () =
        match restart (fun () -> Unix.waitpid [ Unix.WNOHANG ] c.pid) with
        | 0, _ ->
            if Unix.gettimeofday () < deadline then begin
              Unix.sleepf 0.005;
              poll ()
            end
            else false
        | _, st ->
            c.status <- Some st;
            c.cpu_s <- children_cpu () -. cpu0;
            true
      in
      poll ()

(* Stop the child for good: ask, then kill.  Idempotent, never raises. *)
let kill c =
  if c.status = None then begin
    close_quiet c.to_child;
    if not (reap ~timeout:2.0 c) then begin
      (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (reap ~timeout:10.0 c)
    end
  end;
  close_quiet c.to_child;
  close_quiet c.from_child

(* Graceful stop: [STOP], then every line up to [END] (or end of
   file, or 60 s without a line), then reap.  Returns the lines in
   order. *)
let stop c =
  send_line c "STOP";
  let rec collect acc =
    match read_line ~timeout:60.0 c with
    | None | Some "END" -> List.rev acc
    | Some l -> collect (l :: acc)
  in
  let lines = collect [] in
  kill c;
  lines

let exited_ok c = c.status = Some (Unix.WEXITED 0)

(* ------------------------------ directories ------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (EEXIST, _, _) -> ()
  end

(* Run [f] with a fresh directory that is removed afterwards, also when
   [f] raises. *)
let with_dir path f =
  rm_rf path;
  mkdir_p path;
  Fun.protect ~finally:(fun () -> rm_rf path) (fun () -> f path)

(* Run [f] with a spawned child that is killed and reaped afterwards,
   also when [f] raises. *)
let with_child prog args f =
  let c = spawn prog args in
  Fun.protect ~finally:(fun () -> kill c) (fun () -> f c)

let file_size path =
  match Unix.stat path with st -> st.Unix.st_size | exception Unix.Unix_error _ -> 0
