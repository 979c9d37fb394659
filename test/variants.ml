(* Configurations of the repository's maps that the per-structure
   registrations do not reach, shared by the battery, lincheck, chaos,
   soak and Ctrie suites:

   - [Deep_ctrie]: the Ctrie on hashes pushed 20 bits down
     ({!Ct_util.Hashing.Deep}), so every binding sits below a chain of
     single-branch I-nodes and large maps also build LNodes.  Splits,
     contractions and tomb cleaning all happen at depth.
   - [Boxed_cachetrie]: the cache-trie over boxed keys and values.
     Every call allocates a fresh key box, so the trie may compare keys
     only through [H.equal], never physically.
   - [Cow_clone]: a writable Ctrie snapshot of a trie populated with
     hidden ballast bindings.  All of its nodes start in the source's
     generation, so the first write or read along every path copies
     that path: the copy-on-write side of the snapshot. *)

open Ct_util

module Deep_ctrie (H : Hashing.HASHABLE) = struct
  include Ctrie_snap.Make (Hashing.Deep (H))

  let name = "ctrie"
end

(* Battery keys are [User k]; [Ballast i] keys are never visible
   through the int-keyed interface. *)
type box = User of int | Ballast of int
type 'v entry = Val of 'v | Pad

module Box_key (H : Hashing.HASHABLE with type t = int) = struct
  type t = box

  let equal a b =
    match (a, b) with
    | User x, User y -> H.equal x y
    | Ballast x, Ballast y -> Int.equal x y
    | User _, Ballast _ | Ballast _, User _ -> false

  let hash = function User k -> H.hash k | Ballast i -> Hashing.Int_key.hash i
end

(* An int-keyed map over a [box]-keyed one: keys go in as fresh
   [User k] boxes, values as fresh [Val v] boxes, and the [ballast]
   bindings [create] plants stay out of every answer. *)
module Boxed
    (M : Map_intf.CONCURRENT_MAP with type key = box)
    (C : sig
      val name : string
      val ballast : int
      val create : unit -> 'v entry M.t
    end) : Map_intf.CONCURRENT_MAP with type key = int and type 'v t = 'v entry M.t =
struct
  type key = int
  type 'v t = 'v entry M.t

  let name = C.name
  let create = C.create
  let value = function Some (Val v) -> Some v | Some Pad | None -> None
  let lookup t k = value (M.lookup t (User k))
  let find t k = match M.find t (User k) with Val v -> v | Pad -> raise Not_found
  let mem t k = M.mem t (User k)
  let insert t k v = M.insert t (User k) (Val v)
  let add t k v = value (M.add t (User k) (Val v))
  let put_if_absent t k v = value (M.put_if_absent t (User k) (Val v))
  let replace t k v = value (M.replace t (User k) (Val v))
  let remove t k = value (M.remove t (User k))

  (* The conditional updates compare values physically, and the map
     holds boxes: find the box whose payload is [expected] and CAS on
     that box.  A failed CAS means the binding moved on; re-read it. *)
  let rec replace_if t k ~expected v =
    match M.lookup t (User k) with
    | Some (Val cur as box) when cur == expected ->
        M.replace_if t (User k) ~expected:box (Val v) || replace_if t k ~expected v
    | Some (Val _ | Pad) | None -> false

  let rec remove_if t k ~expected =
    match M.lookup t (User k) with
    | Some (Val cur as box) when cur == expected ->
        M.remove_if t (User k) ~expected:box || remove_if t k ~expected
    | Some (Val _ | Pad) | None -> false

  let users keys = Array.map (fun k -> User k) keys

  let find_batch t keys ~miss out =
    let boxes = Array.make (Array.length out) Pad in
    let hits = M.find_batch t (users keys) ~miss:Pad boxes in
    for i = 0 to Array.length keys - 1 do
      out.(i) <- (match boxes.(i) with Val v -> v | Pad -> miss)
    done;
    hits


  let fold f acc t =
    M.fold
      (fun acc k e ->
        match (k, e) with User k, Val v -> f acc k v | (User _ | Ballast _), _ -> acc)
      acc t

  let iter f t = fold (fun () k v -> f k v) () t
  let to_list t = fold (fun l k v -> (k, v) :: l) [] t
  let size t = M.size t - C.ballast
  let is_empty t = size t = 0
  let footprint_words = M.footprint_words
  let validate = M.validate
  let metrics = M.metrics
  let stats = M.stats
  let reset_stats = M.reset_stats
  let scrub = M.scrub
end

module Boxed_cachetrie (H : Hashing.HASHABLE with type t = int) = struct
  module S = Cachetrie.Make (Box_key (H))

  include
    Boxed
      (S)
      (struct
        let name = "cachetrie-boxed"
        let ballast = 0
        let create = S.create
      end)
end

module Cow_clone (H : Hashing.HASHABLE with type t = int) = struct
  module S = Ctrie_snap.Make (Box_key (H))

  include
    Boxed
      (S)
      (struct
        let name = "cow-hamt"

        (* Enough bindings that every root slot leads into a shared
           I-node. *)
        let ballast = 512

        let create () =
          let src = S.create () in
          for i = 0 to ballast - 1 do
            S.insert src (Ballast i) Pad
          done;
          S.snapshot src
      end)

  let snapshot = S.snapshot
end
