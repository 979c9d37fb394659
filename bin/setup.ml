(* Set-up shared by every repro runner: the one serving config, the
   check ledger self-checks report through, and the serve-a-plan step
   the serving runners (bench serve/persist, serve, trace) are built
   from. *)

module Loadgen = Kv.Loadgen

(* The integer-keyed cache-trie every runner that is not a sweep over
   [Harness.Suites.structures] fronts or measures. *)
module Trie = Cachetrie.Make (Ct_util.Hashing.Int_key)

(* Serving loops: leave two cores to the load generator and watchdog,
   but never fewer than two loops, so a stalled loop cannot park the
   whole server. *)
let workers = max 2 (min 4 (Harness.Parallel.available_domains () - 2))

(* A small per-read frame budget and a 150 ms admission bound make
   overload shed early; the 0.15 s idle timeout cuts a slow-loris off
   mid-frame. *)
let config =
  {
    Kv.Server.workers;
    queue_capacity = 64;
    p99_bound_ns = 150_000_000;
    p99_window = 32;
    tick_interval = 0.01;
    idle_timeout = 0.15;
    write_timeout = 0.5;
  }

let deadline_ns = 80_000_000

(* Every serving runner's traffic: the default mix and 8 connections,
   faults off, the shared per-request deadline. *)
let plan = { Loadgen.default_plan with Loadgen.deadline_ns }

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let read_file file =
  let ic = open_in_bin file in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ---------------------------- check ledger --------------------------- *)

(* A self-check's failures, newest first.  [check] prints one aligned
   ok/FAIL line per assertion; [exit_code] turns the ledger (or an
   escaping exception) into the process status, so CI and scripts can
   trust the status code instead of scraping output. *)
type ledger = string list ref

let check (l : ledger) what ok =
  if not ok then l := what :: !l;
  Printf.printf "%-56s %s\n%!" what (if ok then "ok" else "FAIL")

let exit_code name (run : ledger -> unit) =
  let l = ref [] in
  match run l with
  | () when !l = [] -> 0
  | () ->
      List.iter
        (fun f -> Printf.eprintf "repro %s: FAILED: %s\n%!" name f)
        (List.rev !l);
      1
  | exception e ->
      Printf.eprintf "repro %s: failed: %s\n%!" name (Printexc.to_string e);
      1

(* ------------------------------ serving ------------------------------ *)

(* One plan's outcome: the client ledger, whether it verifies (zero
   silent drops), and the server's accepted-request p99 so far. *)
type served = {
  summary : Loadgen.summary;
  verified : bool;
  accepted_p99 : float;
}

module Serving (M : Ct_util.Map_intf.CONCURRENT_MAP with type key = int) =
struct
  module Srv = Kv.Server.Make (M)

  (* Start a server over [map], run [body] against it, then drain —
     also when [body] raises, so no loop outlives its runner.  Drain
     is idempotent: a body may drain under live traffic itself. *)
  let with_server ?progress ?durable ?cache map body =
    let srv = Srv.start ~config ?progress ?durable ?cache map in
    Fun.protect ~finally:(fun () -> ignore (Srv.drain ~timeout:10.0 srv))
    @@ fun () -> body srv

  let offer srv plan =
    let summary = Loadgen.run ~port:(Srv.port srv) plan in
    {
      summary;
      verified = Loadgen.verify summary = Ok ();
      accepted_p99 = Obs.Latency.percentile (Srv.latency srv) 99.0;
    }
end
