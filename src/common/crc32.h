// CRC-32 (IEEE 802.3) checksums for on-disk record framing.
//
// The fleet segment log frames every appended record with a CRC over its
// payload so replay can tell a valid record from a torn or bit-flipped
// tail after a crash. The checksum is the classic reflected CRC-32
// (polynomial 0xEDB88320) — the same checksum zlib, PNG, and Ethernet use
// — so values are stable across platforms and easy to cross-check with
// external tools. It is computed eight bytes per step (slicing-by-8),
// which gives exactly the byte-at-a-time table loop's values, so segments
// written by either read back with the other.
#ifndef DIADS_COMMON_CRC32_H_
#define DIADS_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace diads {

/// CRC-32 of `size` bytes starting at `data`. Empty input yields 0.
uint32_t Crc32(const void* data, size_t size);

/// Incremental form: feed `crc` the result of a previous call to extend a
/// checksum across discontiguous buffers. Start from 0.
uint32_t Crc32Update(uint32_t crc, const void* data, size_t size);

}  // namespace diads

#endif  // DIADS_COMMON_CRC32_H_
