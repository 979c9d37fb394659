(* KV serving layer (DESIGN.md §12): wire protocol, end-to-end
   request/reply, pipelined frames run in order by one loop, the
   overload defences (deadlines, per-read backpressure, p99 admission
   control, slow-loris drops), graceful drain under live traffic, and
   the load generator's zero-silent-drop ledger. *)

module Protocol = Kv.Protocol
module Loadgen = Kv.Loadgen
module M = Cachetrie.Make (Ct_util.Hashing.Int_key)
module S = Kv.Server.Make (M)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let small_config ?(workers = 2) ?(queue = 64) () =
  {
    (Kv.Server.default_config ()) with
    Kv.Server.workers;
    queue_capacity = queue;
    tick_interval = 0.005;
  }

let with_server ?config ?progress f =
  let map = M.create () in
  let srv = S.start ?config ?progress map in
  Fun.protect
    ~finally:(fun () -> ignore (S.drain ~timeout:5.0 srv))
    (fun () -> f srv map)

let with_client srv f =
  let c = Kv.Client.connect ~port:(S.port srv) () in
  Fun.protect ~finally:(fun () -> Kv.Client.close c) (fun () -> f c)

(* Send every request in one [write] on a fresh connection, then read
   until each has its reply.  Returns the replies in arrival order and
   how many reads they took. *)
let pipeline srv reqs =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, S.port srv));
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      let frames =
        Bytes.concat Bytes.empty (List.map Protocol.encode_request reqs)
      in
      check_int "one write carries every frame" (Bytes.length frames)
        (Unix.write fd frames 0 (Bytes.length frames));
      let r = Protocol.Reader.create () in
      let rec collect acc n reads =
        if n = 0 then (List.rev acc, reads)
        else
          match Protocol.Reader.next_frame r with
          | Some p -> (
              match Protocol.decode_reply p with
              | Ok ir -> collect (ir :: acc) (n - 1) reads
              | Error e -> Alcotest.failf "bad reply: %s" e)
          | None ->
              if Protocol.Reader.fill r fd = 0 then
                Alcotest.fail "connection closed early";
              collect acc n (reads + 1)
      in
      collect [] (List.length reqs) 0)

let req ?(deadline_ns = 0) id op = { Protocol.id; deadline_ns; op; trace = 0 }

(* ------------------------------ protocol --------------------------- *)

let strip_prefix frame =
  Bytes.sub frame 4 (Bytes.length frame - 4)

let test_protocol_roundtrip () =
  let ops =
    [
      Protocol.Ping;
      Protocol.Get 42;
      Protocol.Get (-7);
      Protocol.Put (0, "");
      Protocol.Put (max_int, String.make 100 'v');
      Protocol.Remove min_int;
    ]
  in
  List.iteri
    (fun i op ->
      let req = { Protocol.id = i + 1; deadline_ns = i * 1000; op; trace = 0 } in
      match Protocol.decode_request (strip_prefix (Protocol.encode_request req)) with
      | Ok got ->
          check_bool "request roundtrips" true (got = req)
      | Error e -> Alcotest.failf "decode_request: %s" e)
    ops;
  let replies =
    [
      Protocol.Value "hello";
      Protocol.Value "";
      Protocol.Nil;
      Protocol.Stored true;
      Protocol.Stored false;
      Protocol.Removed;
      Protocol.Pong;
      Protocol.Overloaded Protocol.Queue_full;
      Protocol.Overloaded Protocol.Latency_breach;
      Protocol.Deadline_exceeded;
      Protocol.Shutting_down;
      Protocol.Read_only;
      Protocol.Bad_request "nope";
      Protocol.Server_error "boom";
    ]
  in
  List.iteri
    (fun i r ->
      let id = (i * 7919) land 0xFFFF_FFFF in
      match Protocol.decode_reply (strip_prefix (Protocol.encode_reply ~id r)) with
      | Ok (gid, got) ->
          check_int "reply id echoes" id gid;
          check_bool "reply roundtrips" true (got = r)
      | Error e -> Alcotest.failf "decode_reply: %s" e)
    replies;
  check_string "label" "overloaded_queue_full"
    (Protocol.reply_label (Protocol.Overloaded Protocol.Queue_full));
  (* Corrupt opcode decodes to an error, not an exception. *)
  let bad = strip_prefix (Protocol.encode_request
      { Protocol.id = 1; deadline_ns = 0; op = Protocol.Ping; trace = 0 }) in
  Bytes.set bad 0 '\xee';
  check_bool "bad opcode is Error" true
    (Result.is_error (Protocol.decode_request bad))

(* Trace extension (opcode bit 6): sampled and unsampled contexts ride
   the frame, a truncated extension degrades to an untraced request
   rather than a decode error, and the pre-trace frame format still
   parses byte-for-byte. *)
let test_protocol_trace_propagation () =
  let roundtrip req =
    match
      Protocol.decode_request (strip_prefix (Protocol.encode_request req))
    with
    | Ok got -> got
    | Error e -> Alcotest.failf "decode_request: %s" e
  in
  let sctx = Obs.Trace.make ~sampled:true 0x1234_5678_9ABC in
  let req =
    { Protocol.id = 9; deadline_ns = 77; op = Protocol.Get 3; trace = sctx }
  in
  let got = roundtrip req in
  check_bool "sampled trace roundtrips" true (got = req);
  check_bool "sampled flag survives the wire" true
    (Obs.Trace.sampled got.Protocol.trace);
  check_int "trace id survives the wire" 0x1234_5678_9ABC
    (Obs.Trace.id got.Protocol.trace);
  let uctx = Obs.Trace.make ~sampled:false 42 in
  let got = roundtrip { req with Protocol.trace = uctx } in
  check_bool "unsampled context roundtrips" true (got.Protocol.trace = uctx);
  check_bool "unsampled stays unsampled" true
    (not (Obs.Trace.sampled got.Protocol.trace));
  (* Put frames carry the extension between the key and the value. *)
  let put =
    { Protocol.id = 2; deadline_ns = 0; op = Protocol.Put (5, "five");
      trace = sctx }
  in
  check_bool "traced put roundtrips" true (roundtrip put = put);
  (* Trace bit set but too few bytes for the 9-byte extension: the
     request decodes untraced — corrupted metadata must not poison the
     connection. *)
  let p =
    strip_prefix
      (Protocol.encode_request
         { Protocol.id = 3; deadline_ns = 0; op = Protocol.Get 7;
           trace = sctx })
  in
  let cut = Bytes.sub p 0 (Bytes.length p - 4) in
  (match Protocol.decode_request cut with
  | Ok got ->
      check_bool "truncated extension degrades to untraced" true
        (got.Protocol.trace = Obs.Trace.none);
      check_bool "request fields still decode" true
        (got.Protocol.op = Protocol.Get 7)
  | Error e -> Alcotest.failf "truncated extension must not poison: %s" e);
  (* An untraced request emits the pre-trace format: bit 6 clear, no
     extension bytes — old readers and old frames interoperate. *)
  let old =
    strip_prefix
      (Protocol.encode_request
         { Protocol.id = 4; deadline_ns = 0; op = Protocol.Get 7; trace = 0 })
  in
  check_bool "untraced frame has no extension bit" true
    (Char.code (Bytes.get old 0) land 0x40 = 0);
  let traced =
    strip_prefix
      (Protocol.encode_request
         { Protocol.id = 4; deadline_ns = 0; op = Protocol.Get 7;
           trace = sctx })
  in
  check_int "extension adds exactly 9 bytes"
    (Bytes.length old + 9) (Bytes.length traced);
  match Protocol.decode_request old with
  | Ok got ->
      check_bool "pre-trace format parses untraced" true
        (got.Protocol.trace = Obs.Trace.none)
  | Error e -> Alcotest.failf "old format: %s" e

(* Frames reassemble across arbitrarily chunked delivery, and an
   oversized announced length poisons the connection. *)
let test_reader_framing () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with _ -> ());
      try Unix.close b with _ -> ())
    (fun () ->
      let f1 =
        Protocol.encode_request
          { Protocol.id = 1; deadline_ns = 0; op = Protocol.Put (7, "seven"); trace = 0 }
      and f2 =
        Protocol.encode_request
          { Protocol.id = 2; deadline_ns = 9; op = Protocol.Get 7; trace = 0 }
      in
      let all = Bytes.cat f1 f2 in
      (* Trickle both frames 3 bytes at a time from a helper thread. *)
      let th =
        Thread.create
          (fun () ->
            let len = Bytes.length all in
            let off = ref 0 in
            while !off < len do
              let n = min 3 (len - !off) in
              ignore (Unix.write a all !off n);
              off := !off + n
            done)
          ()
      in
      let r = Protocol.Reader.create () in
      (match Protocol.Reader.read_frame r b with
      | Some p ->
          check_bool "frame 1" true
            (Protocol.decode_request p
            = Ok { Protocol.id = 1; deadline_ns = 0; op = Protocol.Put (7, "seven"); trace = 0 })
      | None -> Alcotest.fail "expected frame 1");
      (match Protocol.Reader.read_frame r b with
      | Some p ->
          check_bool "frame 2" true
            (Protocol.decode_request p
            = Ok { Protocol.id = 2; deadline_ns = 9; op = Protocol.Get 7; trace = 0 })
      | None -> Alcotest.fail "expected frame 2");
      Thread.join th;
      check_bool "no partial frame pending" false (Protocol.Reader.pending r);
      (* Announce a frame bigger than max_frame: must raise, not
         allocate or wait for a gigabyte. *)
      let huge = Bytes.create 4 in
      Bytes.set_int32_be huge 0 (Int32.of_int (Protocol.max_frame + 1));
      ignore (Unix.write a huge 0 4);
      (match Protocol.Reader.read_frame r b with
      | exception Protocol.Protocol_error _ -> ()
      | _ -> Alcotest.fail "oversized frame must poison the stream"))

(* Traced frames through the same trickle-fed reader: the 9-byte
   extension straddles chunk boundaries like any other field and the
   context emerges intact; untraced frames interleave untouched. *)
let test_reader_traced_framing () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with _ -> ());
      try Unix.close b with _ -> ())
    (fun () ->
      let ctx1 = Obs.Trace.make ~sampled:true 0xFACE
      and ctx2 = Obs.Trace.make ~sampled:false 0xBEEF in
      let f1 =
        Protocol.encode_request
          { Protocol.id = 1; deadline_ns = 0; op = Protocol.Put (7, "seven");
            trace = ctx1 }
      and f2 =
        Protocol.encode_request
          { Protocol.id = 2; deadline_ns = 9; op = Protocol.Get 7;
            trace = ctx2 }
      and f3 =
        Protocol.encode_request
          { Protocol.id = 3; deadline_ns = 0; op = Protocol.Ping; trace = 0 }
      in
      let all = Bytes.cat f1 (Bytes.cat f2 f3) in
      let th =
        Thread.create
          (fun () ->
            let len = Bytes.length all in
            let off = ref 0 in
            while !off < len do
              let n = min 3 (len - !off) in
              ignore (Unix.write a all !off n);
              off := !off + n
            done)
          ()
      in
      let r = Protocol.Reader.create () in
      let read_req () =
        match Protocol.Reader.read_frame r b with
        | Some p -> (
            match Protocol.decode_request p with
            | Ok q -> q
            | Error e -> Alcotest.failf "decode_request: %s" e)
        | None -> Alcotest.fail "unexpected EOF"
      in
      let q1 = read_req () in
      let q2 = read_req () in
      let q3 = read_req () in
      Thread.join th;
      check_bool "sampled trace survives trickled reassembly" true
        (q1.Protocol.trace = ctx1);
      check_bool "traced put op intact" true
        (q1.Protocol.op = Protocol.Put (7, "seven"));
      check_bool "unsampled trace survives trickled reassembly" true
        (q2.Protocol.trace = ctx2);
      check_bool "untraced frame interleaves cleanly" true
        (q3.Protocol.trace = Obs.Trace.none
        && q3.Protocol.op = Protocol.Ping))

(* ----------------------------- end to end -------------------------- *)

let test_e2e_basic () =
  with_server ~config:(small_config ()) (fun srv _map ->
      with_client srv (fun c ->
          check_bool "ping" true (Kv.Client.ping c);
          check_bool "get miss" true (Kv.Client.get c 1 = Protocol.Nil);
          check_bool "fresh put" true (Kv.Client.put c 1 "one" = Protocol.Stored false);
          check_bool "get hit" true (Kv.Client.get c 1 = Protocol.Value "one");
          check_bool "replacing put" true
            (Kv.Client.put c 1 "uno" = Protocol.Stored true);
          check_bool "remove hit" true (Kv.Client.remove c 1 = Protocol.Removed);
          check_bool "remove miss" true (Kv.Client.remove c 1 = Protocol.Nil);
          check_bool "executed counted" true (S.stat srv "executed" >= 5));
      check_bool "drain flushes" true (S.drain srv);
      check_bool "drain idempotent" true (S.drain srv))

(* A request that waits out its deadline behind a stalled execution
   gets the typed [Deadline_exceeded], and the late request never
   executes.  Both frames travel in one write on one connection, so
   the Get is read with the blocker and waits behind its stalled
   exec. *)
let test_deadline_exceeded () =
  let stall =
    Chaos.Net.stall_sites ~one_in:1 ~max_stalls:1 ~duration:0.4
      "server.worker."
  in
  Fun.protect ~finally:Chaos.clear (fun () ->
      with_server ~config:(small_config ~workers:1 ()) (fun srv map ->
          ignore (M.add map 5 "five");
          let replies, _ =
            pipeline srv
              [ req 1 (Protocol.Get 5); req ~deadline_ns:50_000_000 2 (Protocol.Get 5) ]
          in
          (match List.assoc_opt 2 replies with
          | Some Protocol.Deadline_exceeded -> ()
          | Some r ->
              Alcotest.failf "expected Deadline_exceeded, got %s"
                (Protocol.reply_label r)
          | None -> Alcotest.fail "no reply for the deadline request");
          check_bool "the blocker executed" true
            (List.assoc_opt 1 replies = Some (Protocol.Value "five"));
          check_bool "stall fired" true (Chaos.Net.stalls_fired stall >= 1);
          check_bool "deadline miss counted" true
            (S.stat srv "deadline_expired" >= 1)))

(* A flood pipelined in one write against a stalled loop with a bound
   of 2 frames per read: the overflow comes back as typed
   [Overloaded Queue_full] replies — every id answered exactly once,
   none silently dropped. *)
let test_queue_full_shed () =
  ignore
    (Chaos.Net.stall_sites ~one_in:1 ~max_stalls:1 ~duration:0.5
       "server.worker.");
  Fun.protect ~finally:Chaos.clear (fun () ->
      with_server ~config:(small_config ~workers:1 ~queue:2 ()) (fun srv _map ->
          let n = 16 in
          let replies, _ =
            pipeline srv (List.init n (fun i -> req (i + 1) (Protocol.Get 3)))
          in
          let seen = Array.make (n + 1) 0 in
          let sheds = ref 0 in
          List.iter
            (fun (id, reply) ->
              seen.(id) <- seen.(id) + 1;
              if reply = Protocol.Overloaded Protocol.Queue_full then incr sheds)
            replies;
          for id = 1 to n do
            check_int
              (Printf.sprintf "id %d answered exactly once" id)
              1 seen.(id)
          done;
          check_bool "some requests were shed" true (!sheds >= 1);
          check_bool "some requests were executed" true (!sheds < n);
          check_int "server counted the sheds" !sheds
            (S.stat srv "shed_queue_full")))

(* Frames pipelined on one connection run in order, and the replies of
   one read go back in one write: the five replies arrive in request
   order with the values a serial execution gives, in a single read. *)
let test_pipelined_fifo () =
  with_server ~config:(small_config ()) (fun srv _map ->
      let replies, reads =
        pipeline srv
          [
            req 1 (Protocol.Put (9, "a"));
            req 2 (Protocol.Put (9, "b"));
            req 3 (Protocol.Get 9);
            req 4 (Protocol.Remove 9);
            req 5 (Protocol.Get 9);
          ]
      in
      check_bool "replies in request order with serial values" true
        (replies
        = [
            (1, Protocol.Stored false);
            (2, Protocol.Stored true);
            (3, Protocol.Value "b");
            (4, Protocol.Removed);
            (5, Protocol.Nil);
          ]);
      check_int "the five replies arrive in a single read" 1 reads)

(* Admission control: with the p99 bound set below the floor of real
   request latency, the control loop starts shedding with typed
   [Overloaded Latency_breach] replies, and recovers (duty-cycle
   probing) rather than shedding forever. *)
let test_latency_breach_shed () =
  let config =
    {
      (* The ticker engages shedding only when >= p99_window requests
         complete within one tick, so a synchronous client must sustain
         window/tick round-trips per second for the breach to be seen
         at all.  window 2 over a 20ms tick needs one round-trip per
         10ms — slack enough for a loaded 1-core host, where the
         original 4-per-5ms bar was flaky. *)
      (small_config ~workers:2 ())
      with Kv.Server.p99_bound_ns = 1; p99_window = 2; tick_interval = 0.02;
    }
  in
  with_server ~config (fun srv _map ->
      with_client srv (fun c ->
          (* Feed the histogram window. *)
          for i = 1 to 50 do
            ignore (Kv.Client.put c i "v")
          done;
          let breached = ref false in
          let attempts = ref 0 in
          while (not !breached) && !attempts < 500 do
            incr attempts;
            (match Kv.Client.get c (!attempts mod 50) with
            | Protocol.Overloaded Protocol.Latency_breach -> breached := true
            | _ -> ());
            if !attempts mod 20 = 0 then Unix.sleepf 0.01
          done;
          check_bool "latency-breach shed observed" true !breached;
          check_bool "counted" true (S.stat srv "shed_latency_breach" >= 1);
          (* Duty cycle: once traffic pauses, the thin window turns
             shedding back off. *)
          let recovered = ref false in
          let tries = ref 0 in
          while (not !recovered) && !tries < 100 do
            incr tries;
            Unix.sleepf 0.01;
            if not (S.shedding srv) then recovered := true
          done;
          check_bool "shedding recovers when the episode ends" true !recovered))

(* Slow-loris: a peer that leaves a frame partial for longer than the
   idle timeout loses its connection (typed counter, loop freed). *)
let test_slow_loris_dropped () =
  let config = { (small_config ()) with Kv.Server.idle_timeout = 0.1 } in
  with_server ~config (fun srv _map ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, S.port srv));
          let f =
            Protocol.encode_request
              { Protocol.id = 1; deadline_ns = 0; op = Protocol.Get 1; trace = 0 }
          in
          (* Half a frame, then silence past the idle timeout. *)
          ignore (Unix.write fd f 0 (Bytes.length f / 2));
          let deadline = Unix.gettimeofday () +. 5.0 in
          let dropped () = S.stat srv "conns_dropped_slow" >= 1 in
          while (not (dropped ())) && Unix.gettimeofday () < deadline do
            Unix.sleepf 0.02
          done;
          check_bool "loris connection dropped" true (dropped ());
          (* The server still serves healthy clients afterwards. *)
          with_client srv (fun c -> check_bool "still alive" true (Kv.Client.ping c))))

(* ------------------------------ loadgen ---------------------------- *)

let test_loadgen_trace_roundtrip () =
  let plan =
    {
      Loadgen.default_plan with
      Loadgen.seed = 77;
      n = 1234;
      conns = 3;
      rate = 4567.25;
      deadline_ns = 9_000_000;
      trace_one_in = 5;
      net =
        { Chaos.Net.default with Chaos.Net.seed = 99; drop_one_in = 123 };
    }
  in
  (match Loadgen.of_string (Loadgen.to_string plan) with
  | Ok p -> check_bool "plan roundtrips" true (p = plan)
  | Error e -> Alcotest.failf "of_string: %s" e);
  check_bool "bad header rejected" true
    (Result.is_error (Loadgen.of_string "bogus v9\nseed=1"));
  check_bool "unknown key rejected" true
    (Result.is_error (Loadgen.of_string "kvload-trace v1\nwat=1"));
  check_bool "bad int rejected" true
    (Result.is_error (Loadgen.of_string "kvload-trace v1\nseed=xyz"))

(* Trace minting is a pure function of the plan: every request gets a
   deterministic id, every [trace_one_in]-th is head-sampled, and the
   ledger's trace ids regenerate from the serialized plan alone. *)
let test_loadgen_trace_minting () =
  let mk () =
    { Loadgen.default_plan with Loadgen.seed = 11; n = 100; trace_one_in = 4 }
  in
  let plan = mk () and plan' = mk () in
  (match Loadgen.of_string (Loadgen.to_string plan) with
  | Ok p -> check_int "trace_one_in survives serialization" 4 p.Loadgen.trace_one_in
  | Error e -> Alcotest.failf "of_string: %s" e);
  let sampled = ref 0 in
  for i = 0 to plan.Loadgen.n - 1 do
    let ctx = Loadgen.ctx_for plan i in
    check_bool "ctx_for is deterministic" true (ctx = Loadgen.ctx_for plan' i);
    check_bool "every request carries a nonzero id" true
      (Obs.Trace.id ctx <> 0);
    check_int "trace_id_for matches ctx_for" (Obs.Trace.id ctx)
      (Loadgen.trace_id_for plan i);
    if Obs.Trace.sampled ctx then incr sampled
  done;
  check_int "exactly 1-in-4 head-sampled" 25 !sampled;
  check_bool "ids depend on the seed" true
    (Loadgen.trace_id_for plan 0
    <> Loadgen.trace_id_for { plan with Loadgen.seed = 12 } 0);
  check_bool "tracing off mints none" true
    (Loadgen.ctx_for { plan with Loadgen.trace_one_in = 0 } 0
    = Obs.Trace.none)

(* End to end through a live server: a sampled client request leaves a
   complete server-side span tree in the installed sink under its own
   trace id, an unsampled one carries its id but records nothing, and
   a traced loadgen run fills the ledger's trace-id column. *)
let test_e2e_trace_spans () =
  let tr = Obs.Trace.create ~size:4096 () in
  Obs.Trace.install tr;
  Fun.protect
    ~finally:(fun () -> Obs.Trace.uninstall ())
    (fun () ->
      with_server ~config:(small_config ~queue:256 ()) (fun srv _map ->
          with_client srv (fun c ->
              let sctx = Obs.Trace.make ~sampled:true 0xD00D in
              (match Kv.Client.request c ~trace:sctx (Protocol.Put (1, "one")) with
              | Protocol.Stored _ -> ()
              | r -> Alcotest.failf "put: %s" (Protocol.reply_label r));
              let uctx = Obs.Trace.make ~sampled:false 0xFEED in
              match Kv.Client.request c ~trace:uctx (Protocol.Get 1) with
              | Protocol.Value "one" -> ()
              | r -> Alcotest.failf "get: %s" (Protocol.reply_label r));
          (* Spans are recorded before the reply is sent, so by the
             time the client returned they are resident. *)
          let spans = Obs.Trace.spans_of tr ~id:0xD00D in
          let has st = List.exists (fun s -> s.Obs.Trace.stage = st) spans in
          check_bool "root request span recorded" true (has Obs.Trace.Request);
          check_bool "queue-wait span recorded" true (has Obs.Trace.Queue_wait);
          check_bool "exec span recorded" true (has Obs.Trace.Exec);
          check_bool "map-op span recorded" true (has Obs.Trace.Map_op);
          check_bool "unsampled request records no spans" true
            (Obs.Trace.spans_of tr ~id:0xFEED = []);
          (* Ledger: every request's minted id lands in its slot. *)
          let plan =
            {
              Loadgen.default_plan with
              Loadgen.n = 200;
              conns = 2;
              rate = 20_000.0;
              deadline_ns = 2_000_000_000;
              trace_one_in = 8;
            }
          in
          let s = Loadgen.run ~port:(S.port srv) plan in
          (match Loadgen.verify s with
          | Ok () -> ()
          | Error e -> Alcotest.fail e);
          check_int "ledger has one trace id per request" plan.Loadgen.n
            (Array.length s.Loadgen.trace_ids);
          let ok = ref true in
          Array.iteri
            (fun i id ->
              if id <> Loadgen.trace_id_for plan i then ok := false)
            s.Loadgen.trace_ids;
          check_bool "ledger ids regenerate from the plan" true !ok))

(* Healthy server, fault-free plan: the ledger accounts every request
   and nothing is pending. *)
let test_loadgen_healthy_ledger () =
  with_server ~config:(small_config ~queue:256 ()) (fun srv _map ->
      let plan =
        {
          Loadgen.default_plan with
          Loadgen.n = 3000;
          conns = 4;
          rate = 30_000.0;
          deadline_ns = 2_000_000_000;
        }
      in
      let s = Loadgen.run ~port:(S.port srv) plan in
      (match Loadgen.verify s with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      check_int "everything accounted" plan.Loadgen.n (Loadgen.accounted s);
      check_int "no silent drops" 0 s.Loadgen.pending;
      check_int "no connection drops on a quiet plan" 0 s.Loadgen.dropped;
      check_bool "most requests succeeded" true
        (s.Loadgen.ok > (plan.Loadgen.n * 9 / 10)))

(* Same plan, same seed → same trace text and same offered schedule;
   the replay path the repro CLI uses. *)
let test_loadgen_deterministic_trace () =
  let p1 = { Loadgen.default_plan with Loadgen.seed = 5; n = 500 } in
  let p2 = { Loadgen.default_plan with Loadgen.seed = 5; n = 500 } in
  check_string "identical plans serialize identically"
    (Loadgen.to_string p1) (Loadgen.to_string p2);
  let t1 = Harness.Trace.generate ~seed:p1.Loadgen.seed p1.Loadgen.profile 500
  and t2 = Harness.Trace.generate ~seed:p2.Loadgen.seed p2.Loadgen.profile 500 in
  check_bool "identical op traces" true (t1 = t2)

(* Traffic-path chaos on: connections are severed and reads paused by
   the fault plan, yet the ledger still balances — drops are accounted
   as drops, not silence — and the server survives to serve again. *)
let test_loadgen_chaos_ledger () =
  with_server ~config:(small_config ~queue:256 ()) (fun srv _map ->
      let plan =
        {
          Loadgen.default_plan with
          Loadgen.n = 2000;
          conns = 4;
          rate = 20_000.0;
          deadline_ns = 2_000_000_000;
          net =
            {
              Chaos.Net.quiet with
              Chaos.Net.seed = 31;
              drop_one_in = 120;
              pause_reads_one_in = 60;
              pause_reads_s = 0.005;
            };
        }
      in
      let s = Loadgen.run ~port:(S.port srv) plan in
      (match Loadgen.verify s with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      check_bool "fault plan actually fired" true (s.Loadgen.fault_drops >= 1);
      check_bool "drops were accounted" true (s.Loadgen.dropped >= 1);
      check_bool "generator reconnected" true (s.Loadgen.reconnects >= 1);
      with_client srv (fun c ->
          check_bool "server survives the chaos run" true (Kv.Client.ping c)))

(* Drain under live traffic: post-drain requests get typed
   [Shutting_down] replies, queued work is flushed (drain returns
   true), and the ledger still balances. *)
let test_drain_under_traffic () =
  let map = M.create () in
  let srv = S.start ~config:(small_config ~queue:128 ()) map in
  let plan =
    {
      Loadgen.default_plan with
      Loadgen.n = 6000;
      conns = 4;
      rate = 30_000.0;
      deadline_ns = 2_000_000_000;
    }
  in
  let result = ref None in
  let gen =
    Thread.create
      (fun () -> result := Some (Loadgen.run ~port:(S.port srv) plan))
      ()
  in
  Unix.sleepf 0.05;
  check_bool "drain flushed everything" true (S.drain ~timeout:5.0 srv);
  Thread.join gen;
  match !result with
  | None -> Alcotest.fail "load generator never finished"
  | Some s -> (
      (match Loadgen.verify s with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      check_bool "some requests executed before the drain" true (s.Loadgen.ok >= 1);
      check_bool "drain produced typed shutdown replies or drops" true
        (s.Loadgen.shutting_down >= 1 || s.Loadgen.dropped >= 1))

(* Loops attach progress slots, heartbeat while idle (every select
   timeout ends a pass), and detach on drain — so a watchdog over the
   same progress sees no stall from a clean shutdown. *)
let test_progress_clean_drain () =
  let progress = Ct_util.Progress.create ~slots:4 () in
  let wd = Harness.Watchdog.create ~stall_epochs:2 progress in
  let map = M.create () in
  let srv = S.start ~config:(small_config ~workers:2 ()) ~progress map in
  with_client srv (fun c ->
      for i = 1 to 20 do
        ignore (Kv.Client.put c i "v")
      done);
  (* Idle interval: ticker-driven heartbeats keep beats moving. *)
  let b0 = Array.fold_left ( + ) 0 (Ct_util.Progress.snapshot progress) in
  Unix.sleepf 0.1;
  let b1 = Array.fold_left ( + ) 0 (Ct_util.Progress.snapshot progress) in
  check_bool "idle workers still heartbeat" true (b1 > b0);
  check_bool "drain" true (S.drain srv);
  (* After a clean drain every slot is vacated: no false stalls. *)
  for _ = 1 to 5 do
    check_int "no stall after clean drain" 0
      (List.length (Harness.Watchdog.step wd))
  done

(* Regression: the drain flush deadline must come from the monotonic
   clock ([Clock.now_ns], virtualizable), not wall time.  A stepped
   fake clock makes a generous timeout elapse almost instantly in wall
   time; the old [Unix.gettimeofday] deadline would have sat out the
   full 60 s (and, under a backwards NTP step, past it). *)
let test_drain_monotonic_deadline () =
  let module Slow = struct
    include M

    (* Pin the loop inside a lookup so the drain flush wait has a live
       in-flight request to time out on. *)
    let lookup t k =
      Thread.delay 1.5;
      M.lookup t k
  end in
  let module S2 = Kv.Server.Make (Slow) in
  let map = Slow.create () in
  let srv = S2.start ~config:(small_config ~workers:1 ()) map in
  Fun.protect
    ~finally:(fun () -> Ct_util.Clock.set_source None)
    (fun () ->
      let got_reply = Atomic.make false in
      let requester =
        Thread.create
          (fun () ->
            let c = Kv.Client.connect ~port:(S2.port srv) () in
            Fun.protect
              ~finally:(fun () -> Kv.Client.close c)
              (fun () ->
                (* A stopping loop finishes its pass, so this returns
                   once the slow lookup does. *)
                ignore (Kv.Client.request c (Kv.Protocol.Get 1));
                Atomic.set got_reply true))
          ()
      in
      (* Let the request reach the sleeping loop. *)
      Unix.sleepf 0.3;
      (* Fake monotonic time that advances 0.25 s per reading: a 60 s
         drain timeout elapses after ~240 polls of the flush loop. *)
      let fake = Atomic.make 1_000_000_000 in
      Ct_util.Clock.set_source
        (Some (fun () -> Atomic.fetch_and_add fake 250_000_000));
      let wall0 = Ct_util.Clock.monotonic_ns () in
      let flushed = S2.drain ~timeout:60.0 srv in
      let wall_s =
        float_of_int (Ct_util.Clock.monotonic_ns () - wall0) *. 1e-9
      in
      Thread.join requester;
      check_bool "flush window expired on the fake clock" false flushed;
      check_bool "deadline tracked the injected clock, not wall time" true
        (wall_s < 20.0);
      check_bool "queued request was still answered, not abandoned" true
        (Atomic.get got_reply))

let suite =
  [
    ("protocol_roundtrip", `Quick, test_protocol_roundtrip);
    ("protocol_trace_propagation", `Quick, test_protocol_trace_propagation);
    ("reader_framing", `Quick, test_reader_framing);
    ("reader_traced_framing", `Quick, test_reader_traced_framing);
    ("e2e_basic", `Quick, test_e2e_basic);
    ("deadline_exceeded", `Quick, test_deadline_exceeded);
    ("queue_full_shed", `Quick, test_queue_full_shed);
    ("pipelined_fifo", `Quick, test_pipelined_fifo);
    ("latency_breach_shed", `Quick, test_latency_breach_shed);
    ("slow_loris_dropped", `Quick, test_slow_loris_dropped);
    ("loadgen_trace_roundtrip", `Quick, test_loadgen_trace_roundtrip);
    ("loadgen_trace_minting", `Quick, test_loadgen_trace_minting);
    ("loadgen_deterministic_trace", `Quick, test_loadgen_deterministic_trace);
    ("e2e_trace_spans", `Slow, test_e2e_trace_spans);
    ("loadgen_healthy_ledger", `Slow, test_loadgen_healthy_ledger);
    ("loadgen_chaos_ledger", `Slow, test_loadgen_chaos_ledger);
    ("drain_under_traffic", `Slow, test_drain_under_traffic);
    ("drain_monotonic_deadline", `Slow, test_drain_monotonic_deadline);
    ("progress_clean_drain", `Quick, test_progress_clean_drain);
  ]
