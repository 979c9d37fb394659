(* The tries' [footprint_words] models are exact: between an empty map
   and a populated one, the model moves by exactly as many words as
   [Obj.reachable_words] does.  Keys and values are immediates, so
   every reachable word is a trie word.  Covered per map: a few sizes,
   full-hash collisions (LNodes, via [Hashing.Deep], whose 12
   significant hash bits make thousands of keys collide), the state
   after a mass removal and after insert/remove churn at a constant
   size.  The cache-trie runs with its cache off here; [test_cached]
   covers it with the cache on, where the model adds the cache levels
   on top. *)

open Ct_util

let heap_words m = Obj.reachable_words (Obj.repr m)

(* Slide a window of [n] live keys (from [filled n]) forward by [2 * n]:
   each step removes the oldest key and inserts a fresh one, so nodes
   split, expand and compress while the size stays [n].  The live keys
   end as [2n, 3n) times 7919. *)
let churn ~insert ~remove n =
  for i = n to (3 * n) - 1 do
    remove ((i - n) * 7919);
    insert (i * 7919) i
  done

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

  let test_churn () =
    let empty : int M.t = M.create () in
    let n = 20_000 in
    let m = filled n in
    churn ~insert:(M.insert m) ~remove:(fun k -> ignore (M.remove m k)) n;
    Alcotest.(check int) "size held" n (M.size m);
    check_exact "after churn" empty m

  let suite =
    [
      (M.name ^ " sizes", `Quick, test_sizes);
      (M.name ^ " mass_removal", `Quick, test_mass_removal);
      (M.name ^ " churn", `Quick, test_churn);
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

(* The cache-trie's node layout, pinned word for word: an ANode is one
   block of [1 + width] words (no constructor box around its slots) and
   an SNode one 4-word block (key, value, txn; no stored hash).  Two
   keys share root slot [a] and split on hash bits 4-5, so they live in
   a narrow (4-slot) child; two more share root slot [b] and bits 4-5
   but split on bits 6-7, so they live in a wide (16-slot) child.  With the cache off the heap then holds
   exactly those two children and four leaves beyond the empty trie. *)
module NC = Nocache (Hashing.Int_key)

let test_anode_layout () =
  let h k = Hashing.Int_key.hash k land Hashing.mask in
  let rec find_key from pred = if pred (h from) then from else find_key (from + 1) pred in
  let slot x = x land 15 and bits45 x = (x lsr 4) land 3 and bits67 x = (x lsr 6) land 3 in
  let n1 = find_key 1 (fun _ -> true) in
  let a = slot (h n1) in
  let n2 = find_key (n1 + 1) (fun x -> slot x = a && bits45 x <> bits45 (h n1)) in
  let w1 = find_key 1 (fun x -> slot x <> a) in
  let b = slot (h w1) in
  let w2 =
    find_key (w1 + 1) (fun x ->
        slot x = b && bits45 x = bits45 (h w1) && bits67 x <> bits67 (h w1))
  in
  let empty : int NC.t = NC.create () in
  let m : int NC.t = NC.create () in
  List.iter (fun k -> NC.insert m k k) [ n1; n2; w1; w2 ];
  (match NC.validate m with Ok () -> () | Error e -> Alcotest.failf "validate: %s" e);
  Alcotest.(check (array int)) "all four keys one level below the root"
    [| 0; 0; 4; 0; 0; 0; 0; 0; 0; 0 |] (NC.depth_histogram m);
  let model = (1 + 4) + (1 + 16) + (4 * 4) in
  Alcotest.(check int) "heap words = layout model" model (heap_words m - heap_words empty);
  Alcotest.(check int) "footprint_words = layout model" model
    (NC.footprint_words m - NC.footprint_words empty);
  (* The leaf block itself: a lone key sits in its root slot.  [root]
     is the map record's first field, and an SNode has the first
     non-constant constructor's tag, 0. *)
  let one : int NC.t = NC.create () in
  NC.insert one n1 n1;
  let leaf = Obj.field (Obj.field (Obj.repr one) 0) a in
  Alcotest.(check (pair int int)) "SNode block: tag 0, 3 fields" (0, 3)
    (Obj.tag leaf, Obj.size leaf)

(* Cache on: once [scrub] has dropped the entries whose nodes the trie
   replaced, every cache entry is a node the trie holds — an ANode
   entry is the node block itself — so the model (trie plus cache
   levels) moves exactly with the heap. *)
module Cached = Cachetrie.Make (Hashing.Int_key)

let test_cached ~churned () =
  let empty : int Cached.t = Cached.create () in
  let m : int Cached.t = Cached.create () in
  let n = if churned then 20_000 else 30_000 in
  for i = 0 to n - 1 do
    Cached.insert m (i * 7919) i
  done;
  let find_all from =
    for i = from to from + n - 1 do
      Alcotest.(check int) "find" i (Cached.find m (i * 7919))
    done
  in
  find_all 0;
  (* Constant-size churn leaves replaced nodes in the cache until
     [scrub] drops them. *)
  if churned then begin
    churn ~insert:(Cached.insert m) ~remove:(fun k -> ignore (Cached.remove m k)) n;
    find_all (2 * n)
  end;
  ignore (Cached.scrub m);
  Alcotest.(check bool)
    "a cache level exists" true
    ((Cached.cache_stats m).Cachetrie.cache_level <> None);
  (match Cached.validate m with
  | Ok () -> ()
  | Error e -> Alcotest.failf "validate: %s" e);
  Alcotest.(check int)
    (Printf.sprintf "cachetrie cached (%d keys%s): model delta = heap delta" n
       (if churned then ", churned" else ""))
    (heap_words m - heap_words empty)
    (Cached.footprint_words m - Cached.footprint_words empty)

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
  @ [
      ("cachetrie-nc anode_layout", `Quick, test_anode_layout);
      ("cachetrie cached_after_scrub", `Quick, test_cached ~churned:false);
      ("cachetrie cached_churn", `Quick, test_cached ~churned:true);
      ("deep keys collide", `Quick, test_deep_has_collisions);
    ]
