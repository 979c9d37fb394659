(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the
   per-record checksum of the WAL and checkpoint formats.  A
   slice-by-8 C loop (lib/util/ct_crc32_stubs.c); results always fit
   32 bits, so they round-trip through the u32 frame fields
   unchanged. *)

external init : unit -> unit = "ct_crc32_init" [@@noalloc]

external unsafe_update : int -> Bytes.t -> int -> int -> int
  = "ct_crc32_update"
[@@noalloc]

let () = init ()

let update crc b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Crc32.update";
  unsafe_update crc b off len

let bytes b off len = update 0 b off len

let string s = bytes (Bytes.unsafe_of_string s) 0 (String.length s)
