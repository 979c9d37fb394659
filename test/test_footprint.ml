(* The tries' [footprint_words] models are exact: between an empty map
   and a populated one, the model moves by exactly as many words as
   [Obj.reachable_words] does.  Keys and values are immediates, so
   every reachable word is a trie word.  Covered per map: a few sizes,
   full-hash collisions (LNodes, via [Hashing.Deep], whose 12
   significant hash bits make thousands of keys collide) and the state
   after a mass removal.  The cache-trie runs with its cache off; with
   the cache on, the model adds the cache levels on top. *)

open Ct_util

let heap_words m = Obj.reachable_words (Obj.repr m)

module Exact (M : Map_intf.CONCURRENT_MAP with type key = int) =
struct
  let check_exact what empty (m : int M.t) =
    (match M.validate m with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s %s: validate: %s" M.name what e);
    Alcotest.(check int)
      (Printf.sprintf "%s %s (%d keys): model delta = heap delta" M.name what
         (M.size m))
      (heap_words m - heap_words empty)
      (M.footprint_words m - M.footprint_words empty)

  let filled n =
    let m = M.create () in
    for i = 0 to n - 1 do
      M.insert m (i * 7919) i
    done;
    m

  let test_sizes () =
    let empty : int M.t = M.create () in
    List.iter
      (fun n -> check_exact "filled" empty (filled n))
      [ 1; 2; 17; 1_000; 30_000 ]

  let test_mass_removal () =
    let empty : int M.t = M.create () in
    let n = 30_000 in
    let m = filled n in
    for i = 100 to n - 1 do
      ignore (M.remove m (i * 7919))
    done;
    check_exact "after mass removal" empty m;
    for i = 0 to 99 do
      ignore (M.remove m (i * 7919))
    done;
    check_exact "emptied" empty m

  let suite =
    [
      (M.name ^ " sizes", `Quick, test_sizes);
      (M.name ^ " mass_removal", `Quick, test_mass_removal);
    ]
end

module Nocache (H : Hashing.HASHABLE with type t = int) = struct
  include Cachetrie.Make (H)

  let name = "cachetrie-nc"

  let create () =
    create_with ~config:{ Cachetrie.default_config with enable_cache = false } ()
end

module Deep = Hashing.Deep (Hashing.Int_key)
module CT = Exact (Nocache (Hashing.Int_key))

module CT_deep = Exact (struct
  include Nocache (Deep)

  let name = name ^ "-deep"
end)

module CS = Exact (Ctrie_snap.Make (Hashing.Int_key))

module CS_deep = Exact (struct
  include Ctrie_snap.Make (Deep)

  let name = name ^ "-deep"
end)

(* The deep-hash maps must actually hold collision lists, or the LNode
   terms of the models go untested. *)
let test_deep_has_collisions () =
  let n = 30_000 in
  let distinct = Hashtbl.create n in
  for i = 0 to n - 1 do
    Hashtbl.replace distinct (Deep.hash (i * 7919) land Hashing.mask) ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d keys share %d hashes" n (Hashtbl.length distinct))
    true
    (Hashtbl.length distinct < n / 2)

let suite =
  CT.suite @ CT_deep.suite @ CS.suite @ CS_deep.suite
  @ [ ("deep keys collide", `Quick, test_deep_has_collisions) ]
