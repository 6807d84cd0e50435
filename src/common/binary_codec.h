#ifndef CQMS_COMMON_BINARY_CODEC_H_
#define CQMS_COMMON_BINARY_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace cqms {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `data`. The durability
/// layer frames every snapshot section and WAL record with it so torn or
/// bit-rotted bytes are detected before they reach a store.
uint32_t Crc32(std::string_view data);

class BinaryReader;

/// A decoder reserves at most this many elements of a list before they
/// decode. A count is only checked against "each element needs a
/// byte", and a decoded element takes far more memory than its bytes,
/// so a forged count in a short (even CRC-valid) input must not size an
/// allocation: the list grows only with elements that decode.
constexpr uint64_t kMaxDecodeReserve = 64;

/// Inverse of PutDeltaU64s; latches the reader's failure bit (and
/// returns empty) on a count that cannot fit the remaining bytes.
std::vector<uint64_t> GetDeltaU64s(BinaryReader* r);

/// Zigzag mapping of a signed value onto an unsigned varint payload
/// (small magnitudes of either sign stay short).
inline uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

/// Append-only encoder for the binary snapshot / WAL payloads (the one
/// exception, PatchFixed64, back-fills a length reserved earlier).
///
/// Integers use LEB128 varints (zigzag for signed) — query ids and
/// timestamps are small in practice, so the on-disk form stays compact
/// without a compression pass. Fixed-width values (doubles,
/// fingerprints, lengths, CRCs) are little-endian byte dumps.
class BinaryWriter {
 public:
  void PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void PutVarint(uint64_t v);
  void PutZigzag(int64_t v);
  void PutFixed32(uint32_t v);
  void PutFixed64(uint64_t v);
  void PutDouble(double v);
  /// Varint length prefix + raw bytes.
  void PutString(std::string_view s);
  void PutBytes(const void* data, size_t size);

  /// Overwrites 8 already-written bytes at `pos` with `v` (little-endian)
  /// — a length prefix reserved before its payload was encoded.
  void PatchFixed64(size_t pos, uint64_t v);
  /// Pre-sizes the buffer for `bytes` in total, so an encoder that
  /// knows its output size (a ByteCounter pass) never reallocates.
  void Reserve(size_t bytes) { out_.reserve(bytes); }

  const std::string& data() const { return out_; }
  std::string Take() { return std::move(out_); }
  size_t size() const { return out_.size(); }
  void Clear() { out_.clear(); }

 private:
  std::string out_;
};

/// Counts the bytes a BinaryWriter would append, writing none: the same
/// Put* surface, so an encoder templated on its writer can run once
/// over a ByteCounter to learn its exact output size, then once over a
/// BinaryWriter reserved to that size.
class ByteCounter {
 public:
  void PutU8(uint8_t) { size_ += 1; }
  void PutVarint(uint64_t v) {
    size_ += 1;
    while (v >= 0x80) {
      v >>= 7;
      ++size_;
    }
  }
  void PutZigzag(int64_t v) { PutVarint(ZigzagEncode(v)); }
  void PutFixed32(uint32_t) { size_ += 4; }
  void PutFixed64(uint64_t) { size_ += 8; }
  void PutDouble(double) { size_ += 8; }
  void PutString(std::string_view s) {
    PutVarint(s.size());
    size_ += s.size();
  }
  void PutBytes(const void*, size_t size) { size_ += size; }

  size_t size() const { return size_; }

 private:
  size_t size_ = 0;
};

/// Checks the bytes a BinaryWriter would append against `expected`,
/// writing none: the same Put* surface again, so an encoder templated on
/// its writer can test whether it would reproduce a byte string without
/// building a second copy of it.
class ByteMatcher {
 public:
  /// `expected` is not copied and must outlive the matcher.
  explicit ByteMatcher(std::string_view expected) : rest_(expected) {}

  void PutU8(uint8_t v) { Match(&v, 1); }
  void PutVarint(uint64_t v) {
    uint8_t buf[10];
    size_t n = 0;
    while (v >= 0x80) {
      buf[n++] = static_cast<uint8_t>(v | 0x80);
      v >>= 7;
    }
    buf[n++] = static_cast<uint8_t>(v);
    Match(buf, n);
  }
  void PutZigzag(int64_t v) { PutVarint(ZigzagEncode(v)); }
  void PutFixed32(uint32_t v) { PutLittleEndian(v, 4); }
  void PutFixed64(uint64_t v) { PutLittleEndian(v, 8); }
  void PutDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutFixed64(bits);
  }
  void PutString(std::string_view s) {
    PutVarint(s.size());
    PutBytes(s.data(), s.size());
  }
  void PutBytes(const void* data, size_t size) {
    Match(static_cast<const uint8_t*>(data), size);
  }

  /// True when every byte matched and `expected` is used up.
  bool matched() const { return ok_ && rest_.empty(); }

 private:
  void PutLittleEndian(uint64_t v, size_t bytes) {
    uint8_t buf[8];
    for (size_t i = 0; i < bytes; ++i) buf[i] = static_cast<uint8_t>(v >> (8 * i));
    Match(buf, bytes);
  }
  void Match(const uint8_t* data, size_t size) {
    // Most puts are one byte (small varints, flags): skip memcmp there.
    if (!ok_ || rest_.size() < size ||
        (size == 1 ? static_cast<uint8_t>(rest_[0]) != *data
                   : std::memcmp(rest_.data(), data, size) != 0)) {
      ok_ = false;
      return;
    }
    rest_.remove_prefix(size);
  }

  std::string_view rest_;
  bool ok_ = true;
};

/// Delta-varint encoding of a sorted u64 vector (signature output-row
/// hashes): varint count, then per element the varint delta from its
/// predecessor. Shared by the snapshot and WAL codecs; `Writer` is a
/// BinaryWriter or a ByteCounter.
template <typename Writer>
void PutDeltaU64s(Writer* w, const std::vector<uint64_t>& values) {
  w->PutVarint(values.size());
  uint64_t prev = 0;
  for (uint64_t v : values) {
    w->PutVarint(v - prev);
    prev = v;
  }
}

/// Bounds-checked cursor over an encoded payload. Every read past the
/// end (or a malformed varint) latches `failed()` and returns zeros /
/// empty views instead of touching out-of-range bytes, so decoders can
/// run a whole record and check for corruption once at the end.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  // The hot accessors are inline: a bulk snapshot decode issues tens of
  // varint/byte reads per record, millions per load.
  uint8_t GetU8() {
    if (!Need(1)) return 0;
    return static_cast<uint8_t>(data_[pos_++]);
  }

  uint64_t GetVarint() {
    // Fast path: single-byte varint (the overwhelming majority — section
    // counts, deltas, small ids).
    if (!failed_ && pos_ < data_.size()) {
      uint8_t byte = static_cast<uint8_t>(data_[pos_]);
      if ((byte & 0x80) == 0) {
        ++pos_;
        return byte;
      }
    }
    return GetVarintSlow();
  }

  int64_t GetZigzag() {
    uint64_t v = GetVarint();
    return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
  }

  uint32_t GetFixed32();
  uint64_t GetFixed64();
  double GetDouble();

  /// Reads a varint length prefix + that many raw bytes. The view
  /// aliases the underlying buffer.
  std::string_view GetStringView() {
    uint64_t len = GetVarint();
    if (!Need(len)) return {};
    std::string_view s = data_.substr(pos_, len);
    pos_ += len;
    return s;
  }
  std::string GetString() { return std::string(GetStringView()); }

  /// Steps over `n` bytes (a field this reader no longer uses).
  void Skip(size_t n) {
    if (Need(n)) pos_ += n;
  }

  bool failed() const { return failed_; }
  /// Latches the failure bit from outside — for decoders that reject a
  /// value (e.g. an element count exceeding the remaining bytes) and
  /// want every subsequent read, and the final AtEnd() check, to fail.
  void Invalidate() { failed_ = true; }
  /// True when the cursor consumed every byte without failing.
  bool AtEnd() const { return !failed_ && pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  bool Need(size_t n) {
    if (failed_ || data_.size() - pos_ < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  uint64_t GetVarintSlow();

  std::string_view data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace cqms

#endif  // CQMS_COMMON_BINARY_CODEC_H_
