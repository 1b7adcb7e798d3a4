#ifndef STRATUS_COMMON_CHECKSUM_H_
#define STRATUS_COMMON_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace stratus {

// ---------------------------------------------------------------------------
// CRC32C (Castagnoli). Software slice-by-8; no hardware dependency, identical
// results everywhere. Matches the standard CRC-32C test vectors (e.g.
// Crc32c("123456789") == 0xE3069283). Shared by the wire codec (net/wire.h)
// and the on-disk persistence formats (persist/) so a page and a frame are
// checked by the same implementation.
// ---------------------------------------------------------------------------
uint32_t Crc32c(const char* data, size_t n, uint32_t crc = 0);
inline uint32_t Crc32c(const std::string& s) { return Crc32c(s.data(), s.size()); }

// ---------------------------------------------------------------------------
// Varints (LEB128, unsigned) and zigzag for signed payloads. The wire codec
// and the persistence layer pack SCNs, DBAs, object ids and row values with
// these — redo records are mostly small integers, so the varint form is
// several times denser than a fixed-width encoding.
// ---------------------------------------------------------------------------
void PutVarint64(std::string* out, uint64_t v);
bool GetVarint64(const char* data, size_t size, size_t* pos, uint64_t* v);
inline bool GetVarint64(const std::string& buf, size_t* pos, uint64_t* v) {
  return GetVarint64(buf.data(), buf.size(), pos, v);
}

inline uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

// ---------------------------------------------------------------------------
// Fixed-width u32 in host order (little-endian on every supported target):
// the magic, length and CRC fields of the two 12-byte envelopes
// (net::EncodeFrame, persist::WrapChecked) and the CRC's slice-by-8 loads.
// ---------------------------------------------------------------------------
inline void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}
inline uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

}  // namespace stratus

#endif  // STRATUS_COMMON_CHECKSUM_H_
