/* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) for
 * Persist.Crc32: the record checksum of the WAL and checkpoint
 * formats.
 *
 * Slice-by-8: eight 256-entry tables let the loop fold eight input
 * bytes per step instead of one, which is what a checkpoint of ~100k
 * bindings spends most of its encoding time on.  Bit-identical to the
 * byte-at-a-time table loop.  The tables are built once by
 * [ct_crc32_init], which Crc32's module initializer calls before any
 * other thread can exist.  Bounds are checked on the OCaml side; the
 * stub touches no OCaml heap value other than reading the bytes, so it
 * is [@@noalloc]. */

#include <stdint.h>
#include <caml/mlvalues.h>

static uint32_t crc_tables[8][256];

CAMLprim value ct_crc32_init(value unit)
{
  (void)unit;
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int k = 0; k < 8; k++)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    crc_tables[0][n] = c;
  }
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = crc_tables[0][n];
    for (int s = 1; s < 8; s++) {
      c = crc_tables[0][c & 0xFF] ^ (c >> 8);
      crc_tables[s][n] = c;
    }
  }
  return Val_unit;
}

static inline uint32_t load_le32(const unsigned char *p)
{
  return (uint32_t)p[0] | ((uint32_t)p[1] << 8) | ((uint32_t)p[2] << 16)
         | ((uint32_t)p[3] << 24);
}

/* [update crc b off len]: extend the running checksum [crc] over
 * [len] bytes of [b] from [off]. */
CAMLprim value ct_crc32_update(value crc, value b, value off, value len)
{
  const unsigned char *p = (const unsigned char *)Bytes_val(b) + Long_val(off);
  intnat n = Long_val(len);
  uint32_t c = ~(uint32_t)Long_val(crc);
  while (n >= 8) {
    uint32_t lo = load_le32(p) ^ c;
    uint32_t hi = load_le32(p + 4);
    c = crc_tables[7][lo & 0xFF] ^ crc_tables[6][(lo >> 8) & 0xFF]
        ^ crc_tables[5][(lo >> 16) & 0xFF] ^ crc_tables[4][lo >> 24]
        ^ crc_tables[3][hi & 0xFF] ^ crc_tables[2][(hi >> 8) & 0xFF]
        ^ crc_tables[1][(hi >> 16) & 0xFF] ^ crc_tables[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0)
    c = crc_tables[0][(c ^ *p++) & 0xFF] ^ (c >> 8);
  return Val_long((intnat)(~c));
}
