#include "common/binary_codec.h"

#include <algorithm>
#include <array>
#include <cstring>

namespace cqms {

namespace {

/// Slicing-by-8 tables: table[0] is the classic byte-at-a-time table,
/// table[k][b] the CRC of byte b followed by k zero bytes. Processing 8
/// bytes per step runs several GB/s — snapshots CRC whole multi-MB
/// sections, so the byte-at-a-time loop would dominate load time.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables BuildCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = t[0][i];
    for (size_t k = 1; k < 8; ++k) {
      c = t[0][c & 0xFFu] ^ (c >> 8);
      t[k][i] = c;
    }
  }
  return t;
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  static const CrcTables t = BuildCrcTables();
  uint32_t crc = 0xFFFFFFFFu;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  while (n >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
    // The slicing trick indexes bytes in little-endian order.
    lo = __builtin_bswap32(lo);
    hi = __builtin_bswap32(hi);
#endif
    lo ^= crc;
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = t[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void BinaryWriter::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    out_.push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out_.push_back(static_cast<char>(v));
}

void BinaryWriter::PutZigzag(int64_t v) { PutVarint(ZigzagEncode(v)); }

// Fixed-width values are little-endian on disk. On LE hosts (every
// supported target) that is a straight memcpy; the shift forms below
// keep BE hosts correct.
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
#define CQMS_LITTLE_ENDIAN 1
#else
#define CQMS_LITTLE_ENDIAN 0
#endif

void BinaryWriter::PutFixed32(uint32_t v) {
#if CQMS_LITTLE_ENDIAN
  out_.append(reinterpret_cast<const char*>(&v), sizeof(v));
#else
  for (int i = 0; i < 4; ++i) out_.push_back(static_cast<char>(v >> (8 * i)));
#endif
}

void BinaryWriter::PutFixed64(uint64_t v) {
#if CQMS_LITTLE_ENDIAN
  out_.append(reinterpret_cast<const char*>(&v), sizeof(v));
#else
  for (int i = 0; i < 8; ++i) out_.push_back(static_cast<char>(v >> (8 * i)));
#endif
}

void BinaryWriter::PatchFixed64(size_t pos, uint64_t v) {
  for (int i = 0; i < 8; ++i) out_[pos + i] = static_cast<char>(v >> (8 * i));
}

void BinaryWriter::PutDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutFixed64(bits);
}

void BinaryWriter::PutString(std::string_view s) {
  PutVarint(s.size());
  out_.append(s.data(), s.size());
}

void BinaryWriter::PutBytes(const void* data, size_t size) {
  out_.append(static_cast<const char*>(data), size);
}

std::vector<uint64_t> GetDeltaU64s(BinaryReader* r) {
  uint64_t n = r->GetVarint();
  if (r->failed() || n > r->remaining()) {  // >= 1 byte per element
    r->Invalidate();
    return {};
  }
  std::vector<uint64_t> out;
  out.reserve(std::min(n, kMaxDecodeReserve));
  uint64_t prev = 0;
  for (uint64_t i = 0; i < n && !r->failed(); ++i) {
    prev += r->GetVarint();
    out.push_back(prev);
  }
  return out;
}

uint64_t BinaryReader::GetVarintSlow() {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (!Need(1)) return 0;
    uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
  }
  failed_ = true;  // > 10 continuation bytes: not a valid varint64.
  return 0;
}

uint32_t BinaryReader::GetFixed32() {
  if (!Need(4)) return 0;
  uint32_t v;
#if CQMS_LITTLE_ENDIAN
  std::memcpy(&v, data_.data() + pos_, sizeof(v));
  pos_ += 4;
#else
  v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
  }
#endif
  return v;
}

uint64_t BinaryReader::GetFixed64() {
  if (!Need(8)) return 0;
  uint64_t v;
#if CQMS_LITTLE_ENDIAN
  std::memcpy(&v, data_.data() + pos_, sizeof(v));
  pos_ += 8;
#else
  v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
  }
#endif
  return v;
}

double BinaryReader::GetDouble() {
  uint64_t bits = GetFixed64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace cqms
