#ifndef CQMS_TESTS_WAL_REFERENCE_H_
#define CQMS_TESTS_WAL_REFERENCE_H_

// Whole-buffer WAL readers: the oracle for storage/wal.cc, which reads a
// log through a bounded window. Each function takes the whole log as one
// buffer and walks its frames the way ReplayWal did before the window,
// so for any bytes the windowed readers must give the same status and
// message, the same WalReplayStats, the same frames and the same store.
// The format constants are restated here on purpose: the oracle shares
// no code with the reader it checks.

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/binary_codec.h"
#include "common/status.h"
#include "storage/query_store.h"
#include "storage/wal.h"

namespace cqms::testing_util {

inline constexpr std::string_view kWalMagic = "CQMSWAL1";
inline constexpr size_t kWalHeaderSize = 8 + 4;    // magic + version
inline constexpr size_t kWalFrameOverhead = 4 + 4;  // length + CRC

inline Status ReferenceCorruptWal(const std::string& path,
                                  const std::string& what) {
  return Status::Corruption("corrupt WAL (" + what + "): " + path);
}

/// Checks the header of `file` as ReplayWal does. Sets `*frames_at` to
/// the offset of the first frame, or to 0 when the log holds no frames
/// (empty, or a torn prefix of the header).
inline Status ReferenceWalHeader(std::string_view file,
                                 const std::string& path,
                                 size_t* frames_at) {
  *frames_at = 0;
  if (file.empty()) return Status::Ok();
  BinaryWriter version;
  version.PutFixed32(1);
  const std::string header = std::string(kWalMagic) + version.data();
  if (file.size() < kWalHeaderSize) {
    if (header.compare(0, file.size(), file) == 0) return Status::Ok();
    return ReferenceCorruptWal(path, "bad header");
  }
  if (file.substr(0, kWalMagic.size()) != kWalMagic) {
    return ReferenceCorruptWal(path, "bad header");
  }
  BinaryReader r(file.substr(kWalMagic.size(), 4));
  const uint32_t v = r.GetFixed32();
  if (v != 1) {
    return Status::IoError("unsupported WAL version " + std::to_string(v) +
                           ": " + path);
  }
  *frames_at = kWalHeaderSize;
  return Status::Ok();
}

/// ReplayWal over a log held whole in `file`; `path` labels errors.
inline Status ReferenceReplayWal(std::string_view file,
                                 const std::string& path,
                                 storage::QueryStore* store,
                                 storage::WalReplayStats* stats,
                                 uint64_t min_sequence = 0) {
  *stats = storage::WalReplayStats{};
  size_t pos = 0;
  CQMS_RETURN_IF_ERROR(ReferenceWalHeader(file, path, &pos));
  if (pos == 0) {
    stats->torn_bytes = file.size();
    return Status::Ok();
  }
  stats->bytes_valid = pos;
  while (pos < file.size()) {
    if (file.size() - pos < kWalFrameOverhead) break;  // torn frame header
    BinaryReader frame(file.substr(pos, kWalFrameOverhead));
    const uint32_t len = frame.GetFixed32();
    const uint32_t stored_crc = frame.GetFixed32();
    if (file.size() - pos - kWalFrameOverhead < len) break;  // torn payload
    std::string_view payload = file.substr(pos + kWalFrameOverhead, len);
    if (Crc32(payload) != stored_crc) break;  // torn / corrupted frame
    BinaryReader r(payload);
    const uint64_t sequence = r.GetVarint();
    if (r.failed()) return ReferenceCorruptWal(path, "missing sequence");
    stats->max_sequence = std::max(stats->max_sequence, sequence);
    if (stats->min_sequence == 0 || sequence < stats->min_sequence) {
      stats->min_sequence = sequence;
    }
    if (sequence <= min_sequence) {
      ++stats->records_skipped;
    } else {
      CQMS_RETURN_IF_ERROR(storage::ApplyWalRecord(&r, store, path));
      if (!r.AtEnd()) return ReferenceCorruptWal(path, "trailing payload bytes");
      ++stats->records_applied;
    }
    pos += kWalFrameOverhead + len;
    stats->bytes_valid = pos;
  }
  stats->torn_bytes = file.size() - stats->bytes_valid;
  return Status::Ok();
}

/// ScanWalFrames over a log held whole in `file`: every intact frame's
/// (sequence, payload), in file order, into `frames`. The payloads view
/// `file`.
inline Status ReferenceScanWalFrames(
    std::string_view file, const std::string& path,
    std::vector<std::pair<uint64_t, std::string_view>>* frames) {
  frames->clear();
  size_t pos = 0;
  CQMS_RETURN_IF_ERROR(ReferenceWalHeader(file, path, &pos));
  if (pos == 0) return Status::Ok();
  while (file.size() - pos >= kWalFrameOverhead) {
    BinaryReader frame(file.substr(pos, kWalFrameOverhead));
    const uint32_t len = frame.GetFixed32();
    const uint32_t stored_crc = frame.GetFixed32();
    if (file.size() - pos - kWalFrameOverhead < len) break;
    std::string_view payload = file.substr(pos + kWalFrameOverhead, len);
    if (Crc32(payload) != stored_crc) break;
    BinaryReader r(payload);
    const uint64_t sequence = r.GetVarint();
    if (r.failed()) return ReferenceCorruptWal(path, "missing sequence");
    frames->emplace_back(sequence, payload);
    pos += kWalFrameOverhead + len;
  }
  return Status::Ok();
}

}  // namespace cqms::testing_util

#endif  // CQMS_TESTS_WAL_REFERENCE_H_
