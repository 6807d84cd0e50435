#ifndef CQMS_STORAGE_WAL_H_
#define CQMS_STORAGE_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "common/binary_codec.h"
#include "common/status.h"
#include "storage/env.h"
#include "storage/query_store.h"

namespace cqms::storage {

/// Write-ahead log record types. Every durable QueryStore mutation maps
/// to exactly one op; in-place stats edits are not logged (the next
/// checkpoint snapshot captures them — see docs/persistence.md).
enum class WalOp : uint8_t {
  kAppend = 1,
  kRewrite = 2,
  kAnnotate = 3,
  kFlagSet = 4,
  kFlagClear = 5,
  kSetSession = 6,
  kSetQuality = 7,
  kDelete = 8,
  kAddUser = 9,
  kSetVisibility = 10,
};

/// Payload encoders for each op (op byte included). Kept public so the
/// durability tests can forge records when simulating corruption.
namespace wal {
std::string EncodeAppend(const QueryRecord& record);
/// `signature` is the record's post-rewrite signature: rewrites
/// preserve the output summary, whose hash contribution must ride in
/// the frame (summaries are not persisted, so replay cannot refold it).
std::string EncodeRewrite(QueryId id, std::string_view new_text,
                          const SimilaritySignature& signature);
std::string EncodeAnnotate(QueryId id, const Annotation& annotation);
std::string EncodeFlagChange(QueryId id, QueryFlags flag, bool set);
std::string EncodeSetSession(QueryId id, SessionId session);
std::string EncodeSetQuality(QueryId id, double quality);
std::string EncodeDelete(QueryId id);
std::string EncodeAddUser(const std::string& user,
                          const std::vector<std::string>& groups);
std::string EncodeSetVisibility(QueryId id, Visibility visibility);
}  // namespace wal

/// Appends framed binary records to the log file. Each frame is
/// [fixed32 payload length | fixed32 CRC32(payload) | payload], after an
/// 8-byte magic + version header, and is flushed to the OS on every
/// append (optionally fsync'd), so a record is recoverable the moment
/// the mutation returns. A crash mid-frame leaves a torn tail that
/// ReplayWal detects by length/CRC and discards.
///
/// Write-failure discipline: after any failed append (or failed
/// per-record fsync) the writer latches and refuses further appends
/// until Reset() rewrites the log. The mutation that failed to log
/// still applied in memory, so any later frame would be inconsistent
/// with the store replay reconstructs (stranded behind a lost append's
/// id, or re-animating state a lost delete removed); only a checkpoint
/// — which snapshots the in-memory state wholesale and resets the log
/// — may reopen it, and DurableStore forces one while a WAL error is
/// latched. A partial frame is also rolled back to the last good
/// boundary so the on-disk prefix stays cleanly framed.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter() { Close(); }
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens `path` for appending through `env` (null = Env::Default()),
  /// writing the header first when the file is new or empty. Callers
  /// replay (and truncate) the log before opening a writer on it. With
  /// per-record fsync the fresh header — and the log's very directory
  /// entry — are synced before returning, so the first acknowledged
  /// append cannot outlive the file it was written to.
  Status Open(const std::string& path, bool fsync_each_record = false,
              Env* env = nullptr);

  /// Truncates the log back to a fresh header — the recovery path out
  /// of the latched failed state; safe to retry after a failure (a
  /// transient open error does not wedge the writer).
  Status Reset();

  /// The checkpoint step after a successful snapshot publish: the
  /// current log is renamed to `retired_path` (replacing the previous
  /// generation) and a fresh log started. Keeping one retired
  /// generation lets recovery fall back to the previous snapshot plus
  /// a longer replay when the newest snapshot turns out corrupt. Like
  /// Reset, safe to retry after a failure.
  Status Rotate(const std::string& retired_path);

  void Close();
  bool is_open() const { return file_ != nullptr; }

  Status Append(std::string_view payload);

  /// Current log size in bytes (header included) and records appended
  /// since Open/Reset — the checkpoint-policy inputs.
  uint64_t bytes() const { return bytes_; }
  uint64_t appended_records() const { return appended_records_; }

 private:
  /// Starts a fresh truncated log with a header at path_ (Reset and the
  /// second half of Rotate).
  Status OpenFresh();

  std::string path_;
  Env* env_ = nullptr;
  std::unique_ptr<WritableFile> file_;
  bool fsync_each_record_ = false;
  /// Latched when a failed append could not be rolled back to a frame
  /// boundary; cleared by Open/Reset.
  bool failed_ = false;
  uint64_t bytes_ = 0;
  uint64_t appended_records_ = 0;
};

struct WalReplayStats {
  uint64_t records_applied = 0;
  /// Intact frames whose sequence number the snapshot already covers
  /// (a crash landed between snapshot write and WAL truncation).
  uint64_t records_skipped = 0;
  /// Highest sequence number seen in any intact frame (applied or
  /// skipped); 0 for an empty log.
  uint64_t max_sequence = 0;
  /// Lowest sequence number seen in any intact frame; 0 for an empty
  /// log. Retention bookkeeping uses it to describe retired segments.
  uint64_t min_sequence = 0;
  /// Header plus every intact frame — the offset a torn log should be
  /// truncated to.
  uint64_t bytes_valid = 0;
  /// Trailing bytes discarded as a torn write (0 for a clean log).
  uint64_t torn_bytes = 0;
};

/// Replays every intact record of the log at `path` into `store`, in
/// order. Each frame's payload begins with a varint sequence number
/// (assigned by DurableStore, monotonic across checkpoints); frames
/// with sequence <= `min_sequence` — mutations the loaded snapshot
/// already contains, left behind by a crash between snapshot write and
/// WAL truncation — are counted but not re-applied, which makes the
/// snapshot+replay pair idempotent. A torn final frame (truncated or
/// failing its CRC) marks the end of the committed prefix: it and
/// anything after it are reported in `torn_bytes` and not applied. An
/// intact frame that fails to decode or apply is real corruption —
/// including a record-type tag this build does not know, which a newer
/// writer could have produced — and fails the replay with kCorruption.
/// A missing file replays zero records successfully (fresh deployment).
/// The log is read through a window of 1 MiB (a larger frame is read
/// whole), so replay memory does not grow with the log.
Status ReplayWal(const std::string& path, QueryStore* store,
                 WalReplayStats* stats, uint64_t min_sequence = 0,
                 Env* env = nullptr);

/// Applies one WAL record payload to `store`. `r` is positioned just
/// past the varint sequence number (i.e. at the op byte). `path` labels
/// error messages. Shared by ReplayWal and the replication follower,
/// which applies frames shipped off the primary's live WAL.
Status ApplyWalRecord(BinaryReader* r, QueryStore* store,
                      const std::string& path);

/// Iterates the intact frames of the log at `path` without applying
/// them, calling `fn(sequence, frame)` in file order where `frame` is
/// the full frame payload (varint sequence included) exactly as
/// WalWriter::Append framed it. `frame` views the reader's window and is
/// valid only inside the call. Stops early when `fn` returns false. The
/// header, torn-tail and missing-file rules and the read window are
/// ReplayWal's. Used by the WAL shipper to stream catch-up frames to a
/// subscribing follower.
Status ScanWalFrames(
    const std::string& path, Env* env,
    const std::function<bool(uint64_t sequence, std::string_view frame)>& fn);

}  // namespace cqms::storage

#endif  // CQMS_STORAGE_WAL_H_
