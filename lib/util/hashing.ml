let hash_bits = 32
let mask = (1 lsl hash_bits) - 1

let mix h = Rng.mix64 h land mask
let mix_identity h = h land mask

module type HASHABLE = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

module Int_key = struct
  type t = int

  let equal = Int.equal
  let hash = mix
end

let fnv1a s =
  let h = ref 0x811C9DC5 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x01000193 land 0xFFFFFFFF)
    s;
  !h

module String_key = struct
  type t = string

  let equal = String.equal
  let hash s = mix (fnv1a s)
end

module Bad_hash_int = struct
  type t = int

  let equal = Int.equal
  let hash = mix_identity
end

module Constant_hash_int = struct
  type t = int

  let equal = Int.equal
  let hash _ = 42
end

module Deep (H : HASHABLE) = struct
  type t = H.t

  let equal = H.equal
  let hash k = H.hash k lsl 20
end
