(* Operation scripts for the schedule explorer, instantiated for every
   lock-free map in the repository (DESIGN.md §10).

   Each scenario builds a fresh map, runs 2-3 fibers of small operation
   scripts over at most 4 keys, and checks three oracles at
   quiescence: [validate] (structural invariants, including the "no
   LNode with fewer than 2 entries" rule), linearizability of the
   recorded history against the sequential specification
   ([Lincheck.check] — the scheduler's global step counter gives every
   event a unique stamp, so the real-time order it checks is exact),
   and the §9 self-healing contract (one [scrub] restores [validate],
   a second [scrub] finds nothing).

   The key set is chosen hostile: keys 0 and 1 share a full 32-bit hash
   (LNode / binding-list collisions), key 2 shares only the level-0
   bucket (splits one level down), key 3 lives elsewhere. *)

module Yp = Ct_util.Yieldpoint
open Lincheck

(* Full-collision / same-bucket key geometry, shared by every
   structure.  [Hashing.mask] keeps the values in the canonical 32-bit
   hash domain the structures expect. *)
module Colliding_key = struct
  type t = int

  let equal = Int.equal

  let hash = function
    | 0 | 1 -> 0 (* full collision: forces LNodes / shared towers *)
    | 2 -> 1 lsl 5 (* same level-0 bucket as 0/1, splits at level 1 *)
    | k -> k land Ct_util.Hashing.mask
end

(* Extreme raw hashes: top bit set, all bits set, min_int.  The
   structures must mask these into the 32-bit domain before any shift
   or bit-reversal; a missed mask turns into a negative array index or
   a wrong bucket.  (Used by the hash-sign property tests as well.) *)
module Extreme_hash_key = struct
  type t = int

  let equal = Int.equal

  let hash = function
    | 0 -> min_int
    | 1 -> -1
    | 2 -> max_int
    | 3 -> 1 lsl 31
    | k -> k
end

(* A map module over int keys together with the global determinism
   switches it needs (the skiplist's height PRNG must be replaced by a
   counter for schedules to replay). *)
type target = {
  t_name : string;
  t_map : (module IMAP);
  t_setup : unit -> unit;
  t_teardown : unit -> unit;
}

let plain name m = { t_name = name; t_map = m; t_setup = ignore; t_teardown = ignore }

module CT = Cachetrie.Make (Colliding_key)
module CSN = Ctrie_snap.Make (Colliding_key)

(* The same Ctrie on the same key geometry pushed 20 bits down: every
   scenario then runs below a chain of single-branch I-nodes, so
   collisions, splits and contractions happen at depth. *)
module CTR = Ctrie_snap.Make (Ct_util.Hashing.Deep (Colliding_key))
module SO = Chm.Split_ordered.Make (Colliding_key)
module SL = Skiplist.Make (Colliding_key)

let targets : target list =
  [
    plain "cachetrie" (module CT);
    plain "ctrie" (module CTR);
    plain "ctrie_snap" (module CSN);
    plain "split_ordered" (module SO);
    {
      t_name = "skiplist";
      t_map = (module SL);
      t_setup = (fun () -> Skiplist.set_deterministic_heights true);
      t_teardown = (fun () -> Skiplist.set_deterministic_heights false);
    };
  ]

(* --------------------------- scenario builder ---------------------- *)

(* [Lincheck.record]'s op dispatch, applied one op at a time from
   inside a fiber, plus the crash-recovery oracle. *)
module Apply (M : IMAP) = struct
  include Lincheck.Apply (M)

  (* The §9 contract, checked at quiescence: one scrub help-completes
     all residue and restores validate; a second scrub finds nothing. *)
  let scrub_contract t =
    let _helped = M.scrub t in
    match M.validate t with
    | Error e -> Error ("validate after scrub: " ^ e)
    | Ok () ->
        let again = M.scrub t in
        if again <> 0 then
          Error (Printf.sprintf "second scrub still found %d residues" again)
        else Ok ()
end

let keys_of_scripts scripts =
  let key_of = function
    | Lookup k | Remove k | Insert (k, _) | Put_if_absent (k, _)
    | Replace (k, _) | Replace_if (k, _, _) | Remove_if (k, _) ->
        k
  in
  List.concat_map (List.map key_of) scripts |> List.sort_uniq compare

(* A scenario running [scripts] (one per fiber) against a fresh map.
   With [?crash_at], the designated fiber dies at its n-th yield and
   the oracle switches from linearizability to the crash-recovery
   contract (a crashed op has no response event, so its effect may
   legally be half-visible until scrubbed). *)
let map_scenario ?crash_at (target : target) ~name (scripts : op list list) :
    Mc_core.scenario =
  let (module M : IMAP) = target.t_map in
  let module A = Apply (M) in
  let sname = Printf.sprintf "%s.%s" target.t_name name in
  let prepare () =
    target.t_setup ();
    let t = M.create () in
    let stamp = ref 0 in
    let next () =
      let s = !stamp in
      incr stamp;
      s
    in
    let events = ref [] in
    let fiber thread script () =
      List.iter
        (fun op ->
          let inv = next () in
          let result = A.apply t op in
          let res = next () in
          events := { thread; op; result; inv; res } :: !events)
        script
    in
    let bodies = List.mapi fiber scripts in
    let keys = keys_of_scripts scripts in
    let oracle ~crashed =
      if crashed then A.scrub_contract t
      else
        match M.validate t with
        | Error e -> Error ("validate: " ^ e)
        | Ok () -> (
            (* Final reads as one pseudo-thread after everything:
               pins the final state to the linearization. *)
            let finals =
              List.map
                (fun k ->
                  let inv = next () in
                  let result = M.lookup t k in
                  let res = next () in
                  { thread = List.length scripts; op = Lookup k; result; inv; res })
                keys
            in
            if not (check (List.rev !events @ finals)) then
              Error "history is not linearizable"
            else A.scrub_contract t)
    in
    { Mc_core.bodies; oracle }
  in
  Mc_core.scenario ?crash_at ~teardown:target.t_teardown sname prepare

let crash_scrub_scenario (target : target) ~name ~crash_yield
    (script : op list) : Mc_core.scenario =
  let (module M : IMAP) = target.t_map in
  let module A = Apply (M) in
  let sname = Printf.sprintf "%s.%s" target.t_name name in
  let prepare () =
    target.t_setup ();
    let t = M.create () in
    (* Pre-populate outside the scheduler so only the racing ops are
       explored. *)
    M.insert t 0 100;
    M.insert t 1 101;
    let op_fiber () = List.iter (fun op -> ignore (A.apply t op)) script in
    (* The scrub fiber races the dying op: it may help-complete the
       very protocol the crash abandons, or run first and find nothing.
       Either way the §9 contract must hold afterwards. *)
    let scrub_fiber () = ignore (M.scrub t) in
    let oracle ~crashed:_ = A.scrub_contract t in
    { Mc_core.bodies = [ op_fiber; scrub_fiber ]; oracle }
  in
  Mc_core.scenario ~crash_at:(0, crash_yield) ~teardown:target.t_teardown sname
    prepare

(* ----------------------------- the scripts ------------------------- *)

(* Kept deliberately tiny: exhaustive exploration is exponential in
   yield points, and the acceptance bar is a 2-fiber script of <= 6
   yields per structure exploring completely inside the CI timeout. *)

let scenarios_for (target : target) : Mc_core.scenario list =
  let s = map_scenario target in
  [
    (* Two writers on one key: the fundamental CAS race. *)
    s ~name:"ins-ins-same-key"
      [ [ Insert (0, 10) ]; [ Insert (0, 20) ] ];
    (* Two removers on one key: at most one may get the binding, and
       the loser races the winner's unlinking (in the tries, entombing
       and parent contraction). *)
    s ~name:"rem-rem-same-key"
      [ [ Insert (0, 10); Remove 0 ]; [ Remove 0 ] ];
    (* Full-hash collision: builds and mutates LNodes / binding lists
       concurrently. *)
    s ~name:"lnode-build" [ [ Insert (0, 10) ]; [ Insert (1, 20) ] ];
    (* Remove racing remove on colliding keys: the LNode contraction
       path (singleton LNode must become an SNode, empty must vanish). *)
    s ~name:"lnode-remove"
      [ [ Insert (0, 10); Remove 1 ]; [ Insert (1, 20); Remove 0 ] ];
    (* Same level-0 bucket, different hash: bucket split racing an
       insert. *)
    s ~name:"bucket-split" [ [ Insert (0, 1); Insert (2, 2) ]; [ Remove 0 ] ];
    (* Reader racing writers: needs the read-path yield points to
       interleave at all. *)
    s ~name:"read-write"
      [ [ Insert (0, 1); Remove 0 ]; [ Lookup 0; Lookup 1 ] ];
    (* CAS-style conditional ops racing a plain writer. *)
    s ~name:"replace-if"
      [ [ Insert (0, 1); Replace_if (0, 1, 2) ]; [ Replace (0, 3) ] ];
    (* Three virtual domains: two writers on colliding keys plus a
       reader, single-op scripts to keep the 3-way product tractable. *)
    s ~name:"three-domains"
      [ [ Insert (0, 1) ]; [ Insert (1, 2) ]; [ Lookup 0 ] ];
  ]

let crash_scenarios_for (target : target) : Mc_core.scenario list =
  (* One crash scenario per early yield index: the op dies at its 1st,
     2nd, ... yield point, each under every interleaving with the
     scrub fiber.  Indices past the op's last yield degenerate to a
     crash-free run, which the contract also covers. *)
  List.concat_map
    (fun (opname, script) ->
      List.map
        (fun n ->
          crash_scrub_scenario target
            ~name:(Printf.sprintf "crash-%s-at-%d" opname n)
            ~crash_yield:n script)
        [ 1; 2; 3 ])
    [ ("insert", [ Insert (2, 7) ]); ("remove", [ Remove 0 ]) ]

let all : Mc_core.scenario list =
  List.concat_map
    (fun t -> scenarios_for t @ crash_scenarios_for t)
    targets

let find name = List.find_opt (fun s -> s.Mc_core.sname = name) all
