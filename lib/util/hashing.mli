(** Hash-code preparation for the tries.

    The paper assumes a universal hash function producing uniformly
    distributed bits (Theorem 4.1 depends on it).  Raw OCaml hashes
    ([Hashtbl.hash], integer identity, ...) are not uniform, so the
    provided key modules pass them through the SplitMix64 finalizer.
    The maps themselves only truncate [H.hash] to {!hash_bits} bits,
    mirroring the paper's 32-bit JVM hash codes — which lets test-only
    key modules plant keys at chosen trie positions. *)

val hash_bits : int
(** Width of trie hash codes: 32. *)

val mask : int
(** [2^hash_bits - 1]. *)

val mix : int -> int
(** [mix h] avalanches [h] and truncates to {!hash_bits} bits. *)

module type HASHABLE = sig
  type t

  val equal : t -> t -> bool

  val hash : t -> int
  (** Should be well distributed; combine with {!mix} when unsure. *)
end

module Int_key : HASHABLE with type t = int
(** Integers hashed through {!mix}. *)

module String_key : HASHABLE with type t = string
(** Strings hashed with FNV-1a then {!mix}. *)

module Bad_hash_int : HASHABLE with type t = int
(** Pathological: hash is the identity, so sequential keys collide in
    the low trie levels — exercises deep tries and narrow-node
    expansion chains.  Test-only. *)

module Constant_hash_int : HASHABLE with type t = int
(** Pathological: every key hashes to 42 — all keys end up in one
    collision list (LNode).  Test-only. *)

module Deep (H : HASHABLE) : HASHABLE with type t = H.t
(** Pathological: [H]'s hash shifted left by 20 bits, so the low 20
    bits of every truncated hash are zero.  Every key sits below a
    chain of single-branch nodes and only 12 hash bits stay
    significant, so maps of more than a few thousand keys also build
    collision lists.  The result is not truncated, so raw hashes with
    high bits set still exercise the maps' own masking.  Test-only. *)

val fnv1a : string -> int
(** 32-bit FNV-1a string hash. *)
