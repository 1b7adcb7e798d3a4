#include "common/checksum.h"

#include <array>

namespace stratus {

namespace {

// Slice-by-8 CRC32C tables, built once at first use (reflected polynomial
// 0x82F63B78).
struct Crc32cTables {
  std::array<std::array<uint32_t, 256>, 8> t;

  Crc32cTables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j)
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (size_t k = 1; k < 8; ++k)
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
};

const Crc32cTables& Tables() {
  static const Crc32cTables tables;
  return tables;
}

}  // namespace

uint32_t Crc32c(const char* data, size_t n, uint32_t crc) {
  const auto& t = Tables().t;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  crc = ~crc;
  while (n >= 8) {
    const uint32_t lo = crc ^ LoadU32(reinterpret_cast<const char*>(p));
    const uint32_t hi = LoadU32(reinterpret_cast<const char*>(p) + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xFF];
  return ~crc;
}

void PutVarint64(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

bool GetVarint64(const char* data, size_t size, size_t* pos, uint64_t* v) {
  uint64_t result = 0;
  for (uint32_t shift = 0; shift <= 63 && *pos < size; shift += 7) {
    const uint8_t byte = static_cast<uint8_t>(data[(*pos)++]);
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return true;
    }
  }
  return false;  // Truncated, or more than 10 continuation bytes.
}

}  // namespace stratus
