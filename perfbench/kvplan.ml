(* What the server workloads send, shared by the driver and the server
   child so both derive identical data from the seed. *)

let keys = 100_000  (* preloaded keys; also both profiles' universe *)
let value_bytes = 32

(* Fixed offered rates (requests per second).  They are constants, never
   calibrated per run: a calibrated rate would give the parent commit
   and a change different loads.  At 2k req/s the durable server idled
   between requests and its latencies tracked the host's slow wake-ups
   from idle (read p50 37-83 us over three runs); at 5k they held
   (31-36 us), see NOTES.md. *)
let read_rate = 20_000.0
let durable_rate = 5_000.0

(* Per-request budget and worker-queue bound.  Both are far above what
   a host stall costs, so a stall shows as latency, not as failures:
   4096 slots hold 205 ms of arrivals at 20k req/s. *)
let deadline_ns = 2_000_000_000
let queue_capacity = 4096

(* Traced runs mark 1 request in this many as sampled. *)
let trace_one_in = 64

(* The value bound to key [k] by write number [ver] (0 = preload):
   [value_bytes] bytes that name both, so a value served for the wrong
   key or from the wrong write never compares equal. *)
let value_of ~seed k ver =
  Printf.sprintf "%016x%016x" k (Ct_util.Rng.mix64 (seed lxor (ver lsl 24)) land 0xFFF_FFFF_FFFF_FFFF)

type op = Get of int | Put of int * string | Remove of int

(* [n] requests of the [profile] mix, seeded.  Write [i] of the trace
   binds the value [value_of ~seed k (i + 1)]. *)
let plan ~seed profile n =
  Array.map
    (function
      | Harness.Trace.Lookup k -> Get k
      | Harness.Trace.Insert (k, i) -> Put (k, value_of ~seed k (i + 1))
      | Harness.Trace.Remove k -> Remove k)
    (Harness.Trace.generate ~seed profile n)

let to_protocol = function
  | Get k -> Kv.Protocol.Get k
  | Put (k, v) -> Kv.Protocol.Put (k, v)
  | Remove k -> Kv.Protocol.Remove k

let server_config () =
  {
    (Kv.Server.default_config ()) with
    Kv.Server.workers = 1;
    queue_capacity;
    (* Admission control sheds on the served p99; with the bound above
       the request deadline it can never fire before deadlines do. *)
    p99_bound_ns = 2 * deadline_ns;
    write_timeout = 5.0;
  }
