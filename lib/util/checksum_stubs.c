/* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), slicing-by-16.

   [crc_tables[k][n]] advances byte [n] through k further zero bytes, so
   one step folds sixteen input bytes through sixteen independent table
   lookups; the tail runs a byte at a time on table 0, the classic table.
   Input words are assembled from bytes in little-endian order, which
   gives the bytewise algorithm's values on every host (compilers turn the
   assembly into one load on little-endian machines).

   The tables are filled once by [borg_crc32_init], which the OCaml module
   calls at initialisation, before any domain can checksum. */

#include <stdint.h>
#include <caml/mlvalues.h>

static uint32_t crc_tables[16][256];

CAMLprim value borg_crc32_init(value unit)
{
  (void)unit;
  for (int n = 0; n < 256; n++) {
    uint32_t c = (uint32_t)n;
    for (int k = 0; k < 8; k++) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    crc_tables[0][n] = c;
  }
  for (int k = 1; k < 16; k++)
    for (int n = 0; n < 256; n++) {
      uint32_t prev = crc_tables[k - 1][n];
      crc_tables[k][n] = (prev >> 8) ^ crc_tables[0][prev & 0xFF];
    }
  return Val_unit;
}

#define LE32(p)                                                         \
  ((uint32_t)(p)[0] | (uint32_t)(p)[1] << 8 | (uint32_t)(p)[2] << 16 |  \
   (uint32_t)(p)[3] << 24)

#define T(k, w, shift) crc_tables[k][((w) >> (shift)) & 0xFF]

/* Bounds are checked by the OCaml caller. No allocation, no callback: the
   string cannot move during the call. */
intnat borg_crc32_sub(value s, intnat pos, intnat len)
{
  const unsigned char *p = (const unsigned char *)String_val(s) + pos;
  uint32_t c = 0xFFFFFFFFu;
  while (len >= 16) {
    uint32_t a = c ^ LE32(p), b = LE32(p + 4), d = LE32(p + 8), e = LE32(p + 12);
    c = T(15, a, 0) ^ T(14, a, 8) ^ T(13, a, 16) ^ T(12, a, 24)
      ^ T(11, b, 0) ^ T(10, b, 8) ^ T(9, b, 16) ^ T(8, b, 24)
      ^ T(7, d, 0) ^ T(6, d, 8) ^ T(5, d, 16) ^ T(4, d, 24)
      ^ T(3, e, 0) ^ T(2, e, 8) ^ T(1, e, 16) ^ T(0, e, 24);
    p += 16;
    len -= 16;
  }
  while (len-- > 0) c = crc_tables[0][(c ^ *p++) & 0xFF] ^ (c >> 8);
  return (intnat)(c ^ 0xFFFFFFFFu);
}

CAMLprim value borg_crc32_sub_byte(value s, value pos, value len)
{
  return Val_long(borg_crc32_sub(s, Long_val(pos), Long_val(len)));
}
