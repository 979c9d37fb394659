(* The server workloads, driver side: kv-read (a cache-trie served
   over loopback) and kv-durable (the durable store, WAL and
   checkpointer).  The server is a child process with one worker
   domain; this process is a single-threaded, single-connection
   open-loop driver that encodes frames with [Kv.Protocol] and times
   every request from when it was due ([Openloop]). *)

module Clock = Ct_util.Clock
module P = Kv.Protocol

type workload = Read | Durable

let rate = function Read -> Kvplan.read_rate | Durable -> Kvplan.durable_rate

let profile = function
  | Read -> Harness.Trace.read_mostly
  | Durable -> Harness.Trace.churn

(* ------------------------- server lifecycle ------------------------- *)

type server = { child : Proc.child; fd : Unix.file_descr; dir : string; setup_s : float }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    (* A server that stops reading must not wedge the driver forever. *)
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0;
    fd
  with e ->
    Unix.close fd;
    raise e

(* Start a server child (in a fresh store directory [dir] for
   kv-durable), connect, and run [f].  Whatever [f] does, the child is
   reaped (killed if need be), the socket closed and the directory
   removed before this returns or re-raises.  [setup_s] runs from just
   before the directory is made to the established connection. *)
let with_server ~exe ~workload ~seed ~traced ~dir f =
  let t0 = Clock.monotonic_ns () in
  let go dir =
    let args =
      [|
        "serve";
        "--store";
        (match workload with Read -> "map" | Durable -> "durable");
        "--seed";
        string_of_int seed;
        "--traced";
        (if traced then "1" else "0");
        "--dir";
        dir;
      |]
    in
    Proc.with_child exe args (fun child ->
        match Proc.read_line ~timeout:120.0 child with
        | Some l when String.length l > 6 && String.sub l 0 6 = "READY " ->
            let fd = connect (int_of_string (String.sub l 6 (String.length l - 6))) in
            Fun.protect
              ~finally:(fun () -> Proc.close_quiet fd)
              (fun () ->
                let setup_s = float_of_int (Clock.monotonic_ns () - t0) /. 1e9 in
                f { child; fd; dir; setup_s })
        | _ -> failwith "server child did not become ready")
  in
  match workload with Durable -> Proc.with_dir dir go | Read -> go dir

(* [STOP] the child and parse what it reports. *)
let stop_server s =
  let lines = Proc.stop s.child in
  let stats = Hashtbl.create 64 and spans = ref [] in
  List.iter
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "STAT"; k; v ] -> Hashtbl.replace stats k (float_of_string v)
      | "SPAN" :: id :: fields ->
          spans := (int_of_string id, Array.of_list (List.map int_of_string fields)) :: !spans
      | _ -> ())
    lines;
  (stats, !spans)

(* ------------------------------ driving ------------------------------ *)

(* Reply labels, counted per workload.  Everything but [ok] is a
   failure; [dropped] = unanswered because the connection died,
   [pending] = unanswered when the wait for stragglers ran out. *)
let labels =
  [| "ok"; "wrong"; "queue_full"; "latency_breach"; "deadline"; "read_only";
     "shutting_down"; "error"; "dropped"; "pending" |]

let l_ok = 0
let l_wrong = 1
let l_dropped = 8
let l_pending = 9

let label_of_reply = function
  | P.Overloaded P.Queue_full -> 2
  | P.Overloaded P.Latency_breach -> 3
  | P.Deadline_exceeded -> 4
  | P.Read_only -> 5
  | P.Shutting_down -> 6
  | _ -> 7

type run = {
  plan : Kvplan.op array;
  ol : Openloop.t;
  model : string option array;  (** every key's value as last written *)
  last_write : int array;  (** per key: id of the last write sent, -1 for the preload *)
  expect : string option array;  (** per get: the model at send time *)
  after : int array;  (** per get: [last_write] of its key at send time *)
  status : int array;  (** label per request; -1 while unanswered *)
  traced : bool;
  mutable alive : bool;
  mutable value_replies : int;  (** gets answered with a value *)
  mutable bytes_out : int;
  mutable bytes_in : int;
  mutable enc_ns : int;
  mutable dec_ns : int;
  mutable decoded : int;
}

(* A run of [plan] at [rate], over the preload of [seed].  [start ()]
   gives the first due time; it is called after the model is built (100k
   values), so that work does not make the driver late. *)
let create ~seed ~traced ~rate ~start plan =
  let n = Array.length plan in
  let model = Array.init Kvplan.keys (fun k -> Some (Kvplan.value_of ~seed k 0)) in
  let last_write = Array.make Kvplan.keys (-1) in
  let expect = Array.make n None and after = Array.make n (-1) and status = Array.make n (-1) in
  {
    plan;
    ol = Openloop.create ~n ~rate ~t0:(start ());
    model;
    last_write;
    expect;
    after;
    status;
    traced;
    alive = true;
    value_replies = 0;
    bytes_out = 0;
    bytes_in = 0;
    enc_ns = 0;
    dec_ns = 0;
    decoded = 0;
  }

let trace_ctx r i =
  if r.traced && i mod Kvplan.trace_one_in = 0 then Obs.Trace.make ~sampled:true (i + 1)
  else Obs.Trace.none

let write_all fd b =
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    let n = Proc.restart (fun () -> Unix.write fd b !off (len - !off)) in
    off := !off + n
  done

(* Encode request [i], note what a get must return, and hand the frame
   to [write]. *)
let send r ~write i =
  let op = r.plan.(i) in
  (match op with
  | Kvplan.Get k ->
      r.expect.(i) <- r.model.(k);
      r.after.(i) <- r.last_write.(k)
  | Kvplan.Put (k, v) ->
      r.model.(k) <- Some v;
      r.last_write.(k) <- i
  | Kvplan.Remove k ->
      r.model.(k) <- None;
      r.last_write.(k) <- i);
  let req =
    { P.id = i; deadline_ns = Kvplan.deadline_ns; op = Kvplan.to_protocol op; trace = trace_ctx r i }
  in
  let t0 = if r.traced then Clock.monotonic_ns () else 0 in
  let b = P.encode_request req in
  if r.traced then r.enc_ns <- r.enc_ns + (Clock.monotonic_ns () - t0);
  r.bytes_out <- r.bytes_out + Bytes.length b;
  write b

(* A get reply that differs from the model is labelled [wrong] here and
   settled once every write's outcome is known ([settle]). *)
let on_reply r ~at payload =
  let t0 = if r.traced then Clock.monotonic_ns () else 0 in
  let d = P.decode_reply payload in
  if r.traced then begin
    r.dec_ns <- r.dec_ns + (Clock.monotonic_ns () - t0);
    r.decoded <- r.decoded + 1
  end;
  match d with
  | Error _ -> ()
  | Ok (id, reply) ->
      if id < r.ol.Openloop.sent && Openloop.complete r.ol id ~at then
        r.status.(id) <-
          (match (r.plan.(id), reply) with
          | Kvplan.Get _, P.Value v ->
              r.value_replies <- r.value_replies + 1;
              if r.expect.(id) = Some v then l_ok else l_wrong
          | Kvplan.Get _, P.Nil -> if r.expect.(id) = None then l_ok else l_wrong
          | Kvplan.Put _, P.Stored _ | Kvplan.Remove _, (P.Removed | P.Nil) -> l_ok
          | _, reply -> label_of_reply reply)

(* Whether write [w] (-1: the preload) is known to be applied: a write
   that was shed, missed its deadline or went unanswered may not be. *)
let write_ok r w = w < 0 || r.status.(w) = l_ok

(* After the last reply: label the unanswered requests, then clear the
   [wrong] label of every get sent after a write to its key that was
   not answered ok.  The server's value is unknown for those; their
   reply still counts as an answer. *)
let settle r =
  let unanswered = if r.alive then l_pending else l_dropped in
  Array.iteri (fun i s -> if s < 0 then r.status.(i) <- unanswered) r.status;
  Array.iteri
    (fun i s -> if s = l_wrong && not (write_ok r r.after.(i)) then r.status.(i) <- l_ok)
    r.status

(* Wait for replies until the clock reaches [until]; returns early
   after handling one read's worth of them. *)
let wait r fd frames chunk ~until =
  if not r.alive then false
  else
    let left = until - Clock.monotonic_ns () in
    if left <= 0 then true
    else
      match Proc.restart (fun () -> Unix.select [ fd ] [] [] (float_of_int left /. 1e9)) with
      | [], _, _ -> true
      | _ -> (
          match Proc.restart (fun () -> Unix.read fd chunk 0 (Bytes.length chunk)) with
          | 0 ->
              r.alive <- false;
              false
          | n ->
              let at = Clock.monotonic_ns () in
              r.bytes_in <- r.bytes_in + n;
              Frames.feed frames chunk 0 n;
              let rec drain () =
                match Frames.next frames with
                | Some p ->
                    on_reply r ~at p;
                    drain ()
                | None -> ()
              in
              drain ();
              true
          | exception Unix.Unix_error _ ->
              r.alive <- false;
              false)

let drive ~seed ~workload ~traced ~seconds fd =
  let n = max 1 (int_of_float (rate workload *. seconds)) in
  let plan = Kvplan.plan ~seed (profile workload) n in
  let r =
    create ~seed ~traced ~rate:(rate workload)
      ~start:(fun () -> Clock.monotonic_ns () + 1_000_000)
      plan
  in
  let write b =
    if r.alive then try write_all fd b with Unix.Unix_error _ -> r.alive <- false
  in
  let frames = Frames.create () and chunk = Bytes.create 65536 in
  let now = Clock.monotonic_ns in
  ignore (Openloop.run r.ol ~now ~send:(send r ~write) ~wait:(wait r fd frames chunk));
  Openloop.finish r.ol ~now ~wait:(wait r fd frames chunk) ~timeout_ns:10_000_000_000;
  settle r;
  r

(* ------------------------------ results ------------------------------ *)

type phase = {
  setup_s : float;
  attempted : int;
  counts : int array;  (** per label *)
  read_ns : int array;  (** sorted, ok gets *)
  write_ns : int array;  (** sorted, ok puts and removes *)
  read_at : (int * int) array;  (** ok gets: (due time, latency) *)
  write_at : (int * int) array;
  late_ns : int array;  (** sorted, per sent request *)
  value_replies : int;  (** gets answered with a value *)
  stats : (string, float) Hashtbl.t;  (** what the child reported *)
  spans : (int * int array) list;
  client_ns : (int, int) Hashtbl.t;  (** trace id -> client latency *)
  store_bad : int;  (** acked writes missing after reopen *)
  child_ok : bool;
  child_cpu_s : float;  (** from the reaped child *)
  run : run;
}

let stat p k = Option.value ~default:0.0 (Hashtbl.find_opt p.stats k)

(* Reopen the store the child closed and compare every key whose last
   write was acked with the driver's model. *)
let verify_store r dir =
  match Kv.Durable.open_ ~dir () with
  | Error _ -> Kvplan.keys
  | Ok (st, _) ->
      let m = Kv.Durable.map st in
      let bad = ref 0 in
      Array.iteri
        (fun k w -> if write_ok r w && Kv.Durable.Map.lookup m k <> r.model.(k) then incr bad)
        r.last_write;
      ignore (Kv.Durable.close st);
      !bad

let measure ~seed ~workload ~traced ~seconds s =
  let r = drive ~seed ~workload ~traced ~seconds s.fd in
  let stats, spans = stop_server s in
  let store_bad = match workload with Durable -> verify_store r s.dir | Read -> 0 in
  let counts = Array.make (Array.length labels) 0 in
  Array.iter (fun l -> counts.(l) <- counts.(l) + 1) r.status;
  let is_get = function Kvplan.Get _ -> true | _ -> false in
  let timed kind =
    let acc = ref [] in
    Array.iteri
      (fun i op ->
        if r.status.(i) = l_ok && kind op then
          acc := (Openloop.due r.ol i - r.ol.Openloop.t0, Openloop.latency r.ol i) :: !acc)
      r.plan;
    Array.of_list !acc
  in
  let reads = timed is_get and writes = timed (fun op -> not (is_get op)) in
  let late = Array.sub r.ol.Openloop.late 0 r.ol.Openloop.sent in
  Array.sort compare late;
  let client_ns = Hashtbl.create 1024 in
  Array.iteri
    (fun i _ ->
      if Obs.Trace.sampled (trace_ctx r i) && r.status.(i) = l_ok then
        Hashtbl.replace client_ns (i + 1) (Openloop.latency r.ol i))
    r.plan;
  {
    setup_s = s.setup_s;
    attempted = Array.length r.plan;
    counts;
    read_ns = Pctl.sorted_copy (Array.map snd reads);
    write_ns = Pctl.sorted_copy (Array.map snd writes);
    read_at = reads;
    write_at = writes;
    late_ns = late;
    value_replies = r.value_replies;
    stats;
    spans;
    client_ns;
    store_bad;
    child_ok = Proc.exited_ok s.child;
    child_cpu_s = s.child.Proc.cpu_s;
    run = r;
  }

(* A set-up that is timed and then thrown away. *)
let setup_only ~exe ~workload ~seed ~dir =
  with_server ~exe ~workload ~seed ~traced:false ~dir (fun s ->
      ignore (Proc.stop s.child);
      s.setup_s)

let phase ~exe ~workload ~seed ~traced ~seconds ~dir =
  with_server ~exe ~workload ~seed ~traced ~dir (measure ~seed ~workload ~traced ~seconds)

(* Server-side codec cost, from replaying this run's own requests:
   mean ns per [decode_request] of their payloads and per
   [encode_reply] of the replies they got. *)
let replay_codec r =
  let n = min (Array.length r.plan) 20_000 in
  let payloads =
    Array.init n (fun i ->
        let f =
          P.encode_request
            { P.id = i; deadline_ns = Kvplan.deadline_ns; op = Kvplan.to_protocol r.plan.(i);
              trace = trace_ctx r i }
        in
        Bytes.sub f 4 (Bytes.length f - 4))
  in
  let replies =
    Array.init n (fun i ->
        match r.plan.(i) with
        | Kvplan.Get _ -> ( match r.expect.(i) with Some v -> P.Value v | None -> P.Nil)
        | Kvplan.Put _ -> P.Stored true
        | Kvplan.Remove _ -> P.Removed)
  in
  let time f =
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Clock.monotonic_ns () in
      for i = 0 to n - 1 do
        f i
      done;
      best := Float.min !best (float_of_int (Clock.monotonic_ns () - t0) /. float_of_int n)
    done;
    !best
  in
  let dec = time (fun i -> ignore (P.decode_request payloads.(i))) in
  let enc = time (fun i -> ignore (P.encode_reply ~id:i replies.(i))) in
  (dec, enc)
