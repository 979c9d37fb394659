type phase = Before | After

(* [id] is the registry's length at registration: dense and unique,
   since every successful CAS extends the list by one. *)
type site = { name : string; read_only : bool; id : int }

let registry : site list Atomic.t = Atomic.make []

let register_with ~read_only name =
  let rec go () =
    let cur = Atomic.get registry in
    match List.find_opt (fun s -> s.name = name) cur with
    | Some s -> s
    | None ->
        let s = { name; read_only; id = List.length cur } in
        if Atomic.compare_and_set registry cur (s :: cur) then s else go ()
  in
  go ()

let register name = register_with ~read_only:false name
let register_read name = register_with ~read_only:true name
let name s = s.name
let is_read s = s.read_only
let id s = s.id
let of_id i = List.find (fun s -> s.id = i) (Atomic.get registry)

let all () =
  List.sort (fun a b -> compare a.name b.name) (Atomic.get registry)

let with_prefix prefix =
  let n = String.length prefix in
  List.filter
    (fun s -> String.length s.name >= n && String.sub s.name 0 n = prefix)
    (all ())

let hook : (phase -> site -> unit) option Atomic.t = Atomic.make None

(* A second, independent slot for passive listeners (the progress
   watchdog).  Keeping it separate from [hook] lets a monitor observe
   every yield point while a chaos injector owns the main slot — the
   two concerns compose instead of clobbering each other. *)
let observer : (phase -> site -> unit) option Atomic.t = Atomic.make None

(* Domain-local hook slot for cooperative schedulers (lib/mc): a hook
   that must fire only for code running in the installing domain, with
   no [Domain.self] filtering in the hook body.  The model checker runs
   its virtual domains as fibers on one real domain and parks them here
   by performing an effect; other domains (the test runner's own
   helpers, concurrent suites) never see it.  [locals] counts domains
   with a local hook installed so that the production fast path pays
   one extra atomic load of a counter that is 0, and no DLS access. *)
let locals : int Atomic.t = Atomic.make 0

let local_key : (phase -> site -> unit) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let[@inline] here phase site =
  (match Atomic.get observer with None -> () | Some f -> f phase site);
  (if Atomic.get locals > 0 then
     match !(Domain.DLS.get local_key) with
     | None -> ()
     | Some f -> f phase site);
  match Atomic.get hook with None -> () | Some f -> f phase site

let install f = Atomic.set hook (Some f)
let clear () = Atomic.set hook None
let active () =
  match Atomic.get hook with None -> false | Some _ -> true

let install_observer f = Atomic.set observer (Some f)
let clear_observer () = Atomic.set observer None
let observer_active () =
  match Atomic.get observer with None -> false | Some _ -> true

let set_local f =
  let slot = Domain.DLS.get local_key in
  (match !slot with None -> Atomic.incr locals | Some _ -> ());
  slot := Some f

let clear_local () =
  let slot = Domain.DLS.get local_key in
  match !slot with
  | None -> ()
  | Some _ ->
      slot := None;
      Atomic.decr locals

