#include "common/crc32.h"

namespace diads {
namespace {

/// Slicing-by-8 tables for the reflected polynomial 0xEDB88320. Row 0 is
/// the classic byte-at-a-time table; row k advances a byte's contribution
/// through k more zero bytes, so one step folds eight input bytes with
/// eight lookups instead of eight dependent ones.
struct Crc32Tables {
  uint32_t row[8][256];
  Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      row[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        row[k][i] = (row[k - 1][i] >> 8) ^ row[0][row[k - 1][i] & 0xFFu];
      }
    }
  }
};

const Crc32Tables& Tables() {
  static const Crc32Tables tables;
  return tables;
}

/// Bytes p[0..3] as a little-endian word, whatever the address's alignment
/// and the host's byte order.
uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32Update(uint32_t crc, const void* data, size_t size) {
  const auto& row = Tables().row;
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; size >= 8; size -= 8, bytes += 8) {
    const uint32_t low = LoadLe32(bytes) ^ c;
    const uint32_t high = LoadLe32(bytes + 4);
    c = row[7][low & 0xFFu] ^ row[6][(low >> 8) & 0xFFu] ^
        row[5][(low >> 16) & 0xFFu] ^ row[4][low >> 24] ^
        row[3][high & 0xFFu] ^ row[2][(high >> 8) & 0xFFu] ^
        row[1][(high >> 16) & 0xFFu] ^ row[0][high >> 24];
  }
  for (; size > 0; --size, ++bytes) {
    c = row[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32(const void* data, size_t size) {
  return Crc32Update(0, data, size);
}

}  // namespace diads
