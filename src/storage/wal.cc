#include "storage/wal.h"

#include <algorithm>
#include <utility>

#include "common/binary_codec.h"
#include "obs/metrics.h"
#include "storage/record_builder.h"

namespace cqms::storage {

namespace {

constexpr std::string_view kWalMagic = "CQMSWAL1";
constexpr uint32_t kWalVersion = 1;
constexpr size_t kHeaderSize = 8 + 4;
constexpr size_t kFrameOverhead = 4 + 4;  // length + CRC
/// How much of a log the readers buffer at once (see FrameReader).
constexpr size_t kReadWindow = size_t{1} << 20;

std::string WalHeader() {
  std::string header(kWalMagic);
  BinaryWriter w;
  w.PutFixed32(kWalVersion);
  header.append(w.data());
  return header;
}

Status CorruptWal(const std::string& path, const std::string& what) {
  return Status::Corruption("corrupt WAL (" + what + "): " + path);
}

/// Reads a log's frames in file order through one reused buffer of
/// kReadWindow bytes, so restart replay and follower catch-up hold a
/// window of the log in memory, not the whole file. A frame larger than
/// the window is read whole, on its own. A log no larger than the window
/// is read with one Size and one Read.
class FrameReader {
 public:
  FrameReader(std::string path, Env* env)
      : path_(std::move(path)), env_(env != nullptr ? env : Env::Default()) {}

  /// Opens the log and checks its header. A missing or empty log, and a
  /// torn prefix of the header (a crash during the very first header
  /// write: nothing was ever committed), open with no frames; `size()`
  /// counts the torn bytes. Anything else that short, or without the
  /// magic, is not our file.
  Status Open() {
    if (!env_->FileExists(path_)) return Status::Ok();  // fresh deployment
    CQMS_RETURN_IF_ERROR(env_->NewRandomAccessFile(path_, &file_));
    CQMS_RETURN_IF_ERROR(file_->Size(&size_));
    CQMS_RETURN_IF_ERROR(ReadAt(0, std::min<uint64_t>(size_, kReadWindow)));
    if (size_ == 0) return Status::Ok();
    if (size_ < kHeaderSize) {
      if (WalHeader().compare(0, window_.size(), window_) == 0) {
        return Status::Ok();
      }
      return CorruptWal(path_, "bad header");
    }
    if (window_.compare(0, kWalMagic.size(), kWalMagic) != 0) {
      return CorruptWal(path_, "bad header");
    }
    BinaryReader header(View(kWalMagic.size(), 4));
    const uint32_t version = header.GetFixed32();
    if (version != kWalVersion) {
      return Status::IoError("unsupported WAL version " +
                             std::to_string(version) + ": " + path_);
    }
    end_ = kHeaderSize;
    return Status::Ok();
  }

  /// Advances to the next intact frame. `*more` turns false at the end
  /// of the committed prefix: the end of the log, or a torn frame or one
  /// that fails its CRC. Every frame's CRC is checked, including frames
  /// the caller then skips.
  Status Next(bool* more) {
    *more = false;
    if (end_ == 0) return Status::Ok();  // no header: nothing committed
    // The end of the log, or a torn frame header.
    if (size_ - end_ < kFrameOverhead) return Status::Ok();
    CQMS_RETURN_IF_ERROR(Fill(end_, kFrameOverhead));
    BinaryReader frame(View(end_, kFrameOverhead));
    const uint32_t len = frame.GetFixed32();
    const uint32_t stored_crc = frame.GetFixed32();
    if (size_ - end_ - kFrameOverhead < len) return Status::Ok();  // torn
    CQMS_RETURN_IF_ERROR(Fill(end_, kFrameOverhead + len));
    payload_ = View(end_ + kFrameOverhead, len);
    if (Crc32(payload_) != stored_crc) return Status::Ok();  // torn/corrupt
    body_ = BinaryReader(payload_);
    sequence_ = body_.GetVarint();
    if (body_.failed()) return CorruptWal(path_, "missing sequence");
    end_ += kFrameOverhead + len;
    *more = true;
    return Status::Ok();
  }

  /// The current frame: its sequence, its whole payload (sequence
  /// included) and a reader positioned just past the sequence. Valid
  /// until the next call to Next.
  uint64_t sequence() const { return sequence_; }
  std::string_view payload() const { return payload_; }
  BinaryReader* body() { return &body_; }

  /// Offset just past the current frame: past the header before the
  /// first frame, 0 when the log has no intact header.
  uint64_t end() const { return end_; }
  uint64_t size() const { return size_; }

 private:
  /// Makes bytes [offset, offset + n) of the log readable through View,
  /// reading a new window at `offset` when they are not all buffered.
  /// Callers have checked that the log holds them.
  Status Fill(uint64_t offset, size_t n) {
    if (offset >= window_offset_ &&
        offset + n <= window_offset_ + window_.size()) {
      return Status::Ok();
    }
    const uint64_t window = std::min<uint64_t>(kReadWindow, size_ - offset);
    return ReadAt(offset, std::max<uint64_t>(n, window));
  }

  /// Reads `n` bytes at `offset` into the window; a short read means the
  /// log changed under us.
  Status ReadAt(uint64_t offset, uint64_t n) {
    CQMS_RETURN_IF_ERROR(file_->Read(offset, static_cast<size_t>(n), &window_));
    if (window_.size() != n) return Status::IoError("read failed: " + path_);
    window_offset_ = offset;
    return Status::Ok();
  }

  std::string_view View(uint64_t offset, size_t n) const {
    return std::string_view(window_).substr(
        static_cast<size_t>(offset - window_offset_), n);
  }

  std::string path_;
  Env* env_;
  std::unique_ptr<RandomAccessFile> file_;
  uint64_t size_ = 0;
  std::string window_;  ///< The log's bytes from window_offset_ on.
  uint64_t window_offset_ = 0;
  uint64_t end_ = 0;
  uint64_t sequence_ = 0;
  std::string_view payload_;
  BinaryReader body_{std::string_view()};
};

}  // namespace

Status ApplyWalRecord(BinaryReader* r, QueryStore* store,
                      const std::string& path) {
  uint8_t raw_op = r->GetU8();
  WalOp op = static_cast<WalOp>(raw_op);
  switch (op) {
    case WalOp::kAppend: {
      bool parsed = r->GetU8() != 0;
      std::string text = r->GetString();
      std::string user = r->GetString();
      Micros ts = r->GetZigzag();
      SessionId session = r->GetZigzag();
      uint32_t flags = static_cast<uint32_t>(r->GetVarint());
      double quality = r->GetDouble();
      RuntimeStats stats;
      stats.execution_micros = r->GetZigzag();
      stats.result_rows = r->GetVarint();
      stats.rows_scanned = r->GetVarint();
      stats.succeeded = r->GetU8() != 0;
      stats.error = r->GetString();
      stats.plan = r->GetString();
      std::vector<uint64_t> output_rows = GetDeltaU64s(r);
      bool output_empty_computed = r->GetU8() != 0;
      QueryId expected_id = static_cast<QueryId>(r->GetVarint());
      if (r->failed()) return CorruptWal(path, "append payload");
      QueryRecord record;
      QueryId id;
      if (parsed) {
        // A text some live record already has shares that statement;
        // only a new text is parsed and tokenized. Either way the cost
        // is bounded by the checkpoint interval, unlike the snapshot body.
        record = store->RecordForText(std::move(text), std::move(user), ts,
                                      StatementPath::kWal);
        record.session_id = session;
        record.flags = flags;
        record.quality = quality;
        record.stats = std::move(stats);
        // The output summary itself is not logged (refreshable cache),
        // but its signature contribution — the hashes output-similarity
        // ranking reads — is, so ranking stays crash-consistent for
        // WAL-tail records too. RestoreAppend trusts the patched
        // signature instead of refolding the (absent) summary the way
        // Append would.
        SetOutputSignature(&record, std::move(output_rows),
                           output_empty_computed);
        id = store->RestoreAppend(std::move(record));
      } else {
        // Original was logged without parsing (text-only profiling level
        // or unparsable text that BuildRecordFromText degraded); Append
        // computes the signature exactly as it did originally. Such
        // records never carry an output summary.
        record.MutableStatement()->text = std::move(text);
        record.user = std::move(user);
        record.timestamp = ts;
        record.session_id = session;
        record.flags = flags;
        record.quality = quality;
        record.stats = std::move(stats);
        id = store->Append(std::move(record));
      }
      if (id != expected_id) {
        return CorruptWal(path, "append id mismatch");
      }
      return Status::Ok();
    }
    case WalOp::kRewrite: {
      QueryId id = static_cast<QueryId>(r->GetVarint());
      std::string text = r->GetString();
      std::vector<uint64_t> output_rows = GetDeltaU64s(r);
      bool output_empty_computed = r->GetU8() != 0;
      if (r->failed()) return CorruptWal(path, "rewrite payload");
      CQMS_RETURN_IF_ERROR(store->RewriteQueryText(id, text));
      // The rewrite preserved the (unpersisted) summary; restore its
      // hash contribution so output-similarity ranking stays
      // crash-consistent across a rewritten tail record.
      return store->RestoreOutputSignature(id, std::move(output_rows),
                                           output_empty_computed);
    }
    case WalOp::kAnnotate: {
      QueryId id = static_cast<QueryId>(r->GetVarint());
      Annotation a;
      a.author = r->GetString();
      a.timestamp = r->GetZigzag();
      a.text = r->GetString();
      a.fragment = r->GetString();
      if (r->failed()) return CorruptWal(path, "annotate payload");
      return store->Annotate(id, std::move(a));
    }
    case WalOp::kFlagSet:
    case WalOp::kFlagClear: {
      QueryId id = static_cast<QueryId>(r->GetVarint());
      QueryFlags flag = static_cast<QueryFlags>(r->GetVarint());
      if (r->failed()) return CorruptWal(path, "flag payload");
      return op == WalOp::kFlagSet ? store->AddFlag(id, flag)
                                   : store->ClearFlag(id, flag);
    }
    case WalOp::kSetSession: {
      QueryId id = static_cast<QueryId>(r->GetVarint());
      SessionId session = r->GetZigzag();
      if (r->failed()) return CorruptWal(path, "session payload");
      return store->SetSession(id, session);
    }
    case WalOp::kSetQuality: {
      QueryId id = static_cast<QueryId>(r->GetVarint());
      double quality = r->GetDouble();
      if (r->failed()) return CorruptWal(path, "quality payload");
      return store->SetQuality(id, quality);
    }
    case WalOp::kDelete: {
      QueryId id = static_cast<QueryId>(r->GetVarint());
      if (r->failed()) return CorruptWal(path, "delete payload");
      // The owner check already passed when the op was logged.
      return store->Delete(id, "", /*is_admin=*/true);
    }
    case WalOp::kAddUser: {
      std::string user = r->GetString();
      uint64_t n = r->GetVarint();
      if (r->failed() || n > r->remaining()) {
        return CorruptWal(path, "adduser payload");
      }
      std::vector<std::string> groups;
      groups.reserve(std::min(n, kMaxDecodeReserve));
      for (uint64_t i = 0; i < n && !r->failed(); ++i) {
        groups.push_back(r->GetString());
      }
      if (r->failed()) return CorruptWal(path, "adduser payload");
      store->acl().AddUser(user, groups);
      return Status::Ok();
    }
    case WalOp::kSetVisibility: {
      QueryId id = static_cast<QueryId>(r->GetVarint());
      uint8_t vis = r->GetU8();
      if (r->failed() || vis > static_cast<uint8_t>(Visibility::kPublic)) {
        return CorruptWal(path, "visibility payload");
      }
      // A frame is logged only for a stored record, so a later id is
      // forged; it must not reach (or resize) the visibility column.
      if (id < 0 || static_cast<size_t>(id) >= store->size()) {
        return CorruptWal(path, "visibility id");
      }
      return store->acl().SetVisibility(id, "", "",
                                        static_cast<Visibility>(vis));
    }
  }
  // A tag this build does not know: either corruption that survived the
  // CRC (vanishingly unlikely) or a log written by a newer version.
  // Either way the frame cannot be decoded — refuse with a typed status
  // instead of guessing at its payload.
  return CorruptWal(path,
                    "unknown WAL record type " + std::to_string(raw_op));
}

namespace wal {

std::string EncodeAppend(const QueryRecord& record) {
  BinaryWriter w;
  w.PutU8(static_cast<uint8_t>(WalOp::kAppend));
  w.PutU8(record.parse_failed() ? 0 : 1);
  w.PutString(record.text);
  w.PutString(record.user);
  w.PutZigzag(record.timestamp);
  w.PutZigzag(record.session_id);
  w.PutVarint(record.flags);
  w.PutDouble(record.quality);
  w.PutZigzag(record.stats.execution_micros);
  w.PutVarint(record.stats.result_rows);
  w.PutVarint(record.stats.rows_scanned);
  w.PutU8(record.stats.succeeded ? 1 : 0);
  w.PutString(record.stats.error);
  w.PutString(record.stats.plan);
  const SimilaritySignature& signature = record.statement().signature;
  PutDeltaU64s(&w, signature.output_rows);
  w.PutU8(signature.output_empty_computed ? 1 : 0);
  w.PutVarint(static_cast<uint64_t>(record.id));
  return w.Take();
}

std::string EncodeRewrite(QueryId id, std::string_view new_text,
                          const SimilaritySignature& signature) {
  BinaryWriter w;
  w.PutU8(static_cast<uint8_t>(WalOp::kRewrite));
  w.PutVarint(static_cast<uint64_t>(id));
  w.PutString(new_text);
  PutDeltaU64s(&w, signature.output_rows);
  w.PutU8(signature.output_empty_computed ? 1 : 0);
  return w.Take();
}

std::string EncodeAnnotate(QueryId id, const Annotation& annotation) {
  BinaryWriter w;
  w.PutU8(static_cast<uint8_t>(WalOp::kAnnotate));
  w.PutVarint(static_cast<uint64_t>(id));
  w.PutString(annotation.author);
  w.PutZigzag(annotation.timestamp);
  w.PutString(annotation.text);
  w.PutString(annotation.fragment);
  return w.Take();
}

std::string EncodeFlagChange(QueryId id, QueryFlags flag, bool set) {
  BinaryWriter w;
  w.PutU8(static_cast<uint8_t>(set ? WalOp::kFlagSet : WalOp::kFlagClear));
  w.PutVarint(static_cast<uint64_t>(id));
  w.PutVarint(flag);
  return w.Take();
}

std::string EncodeSetSession(QueryId id, SessionId session) {
  BinaryWriter w;
  w.PutU8(static_cast<uint8_t>(WalOp::kSetSession));
  w.PutVarint(static_cast<uint64_t>(id));
  w.PutZigzag(session);
  return w.Take();
}

std::string EncodeSetQuality(QueryId id, double quality) {
  BinaryWriter w;
  w.PutU8(static_cast<uint8_t>(WalOp::kSetQuality));
  w.PutVarint(static_cast<uint64_t>(id));
  w.PutDouble(quality);
  return w.Take();
}

std::string EncodeDelete(QueryId id) {
  BinaryWriter w;
  w.PutU8(static_cast<uint8_t>(WalOp::kDelete));
  w.PutVarint(static_cast<uint64_t>(id));
  return w.Take();
}

std::string EncodeAddUser(const std::string& user,
                          const std::vector<std::string>& groups) {
  BinaryWriter w;
  w.PutU8(static_cast<uint8_t>(WalOp::kAddUser));
  w.PutString(user);
  w.PutVarint(groups.size());
  for (const std::string& g : groups) w.PutString(g);
  return w.Take();
}

std::string EncodeSetVisibility(QueryId id, Visibility visibility) {
  BinaryWriter w;
  w.PutU8(static_cast<uint8_t>(WalOp::kSetVisibility));
  w.PutVarint(static_cast<uint64_t>(id));
  w.PutU8(static_cast<uint8_t>(visibility));
  return w.Take();
}

}  // namespace wal

Status WalWriter::Open(const std::string& path, bool fsync_each_record,
                       Env* env) {
  Close();
  path_ = path;
  env_ = env != nullptr ? env : Env::Default();
  fsync_each_record_ = fsync_each_record;
  failed_ = false;
  Status s = env_->NewWritableFile(path, Env::WriteMode::kAppend, &file_);
  if (!s.ok()) {
    return Status(s.code(),
                  "cannot open WAL for appending: " + path + " (" +
                      s.message() + ")");
  }
  s = env_->GetFileSize(path, &bytes_);
  if (!s.ok()) {
    Close();
    return Status(s.code(), "cannot size WAL: " + path);
  }
  appended_records_ = 0;
  if (bytes_ == 0) {
    std::string header = WalHeader();
    s = file_->Append(header);
    if (s.ok()) s = file_->Flush();
    if (s.ok() && fsync_each_record_) {
      // Under power-loss guarantees the header — and the directory
      // entry of a freshly created log — must be durable before any
      // append is acknowledged: fsync(2) of the file alone does not
      // persist its name, and a log whose entry vanishes takes every
      // acked record with it.
      s = file_->Sync();
      if (s.ok()) s = env_->SyncDir(DirnameOf(path_));
    }
    if (!s.ok()) {
      Close();
      return Status(s.code(), "cannot write WAL header: " + path + " (" +
                                  s.message() + ")");
    }
    bytes_ = header.size();
  }
  return Status::Ok();
}

Status WalWriter::OpenFresh() {
  Status s = env_->NewWritableFile(path_, Env::WriteMode::kTruncate, &file_);
  if (!s.ok()) {
    // Leave the writer retryable: the next Reset/Rotate tries again.
    failed_ = true;
    return Status(s.code(), "cannot truncate WAL: " + path_);
  }
  std::string header = WalHeader();
  s = file_->Append(header);
  if (s.ok()) s = file_->Flush();
  if (s.ok() && fsync_each_record_) {
    s = file_->Sync();
    if (s.ok()) s = env_->SyncDir(DirnameOf(path_));
  }
  if (!s.ok()) {
    failed_ = true;
    return Status(s.code(),
                  "cannot write WAL header: " + path_ + " (" + s.message() +
                      ")");
  }
  bytes_ = header.size();
  appended_records_ = 0;
  failed_ = false;
  return Status::Ok();
}

Status WalWriter::Reset() {
  if (path_.empty()) return Status::Internal("WAL writer never opened");
  Close();
  return OpenFresh();
}

Status WalWriter::Rotate(const std::string& retired_path) {
  if (path_.empty()) return Status::Internal("WAL writer never opened");
  Close();
  // A retried Rotate after a failed fresh-log open finds the rename
  // already done; skip it rather than fail on the missing source.
  if (env_->FileExists(path_)) {
    Status s = env_->RenameFile(path_, retired_path);
    if (!s.ok()) {
      failed_ = true;
      return s;
    }
  }
  return OpenFresh();
}

void WalWriter::Close() {
  if (file_ != nullptr) {
    (void)file_->Close();
    file_.reset();
  }
}

Status WalWriter::Append(std::string_view payload) {
  if (file_ == nullptr) return Status::Internal("WAL writer not open");
  if (failed_) {
    return Status::IoError("WAL writer failed; awaiting checkpoint reset: " +
                           path_);
  }
  BinaryWriter frame;
  frame.PutFixed32(static_cast<uint32_t>(payload.size()));
  frame.PutFixed32(Crc32(payload));
  frame.PutBytes(payload.data(), payload.size());
  const std::string& bytes = frame.data();
  Status s = file_->Append(bytes);
  if (s.ok()) s = file_->Flush();
  if (!s.ok()) {
    // A partial frame may have reached the file; roll back to the last
    // good frame boundary so the on-disk prefix stays cleanly framed.
    // (If the rollback fails too, the torn frame stays and replay will
    // stop at it — the same consistent prefix.) Either way the writer
    // latches: the mutation applied in memory but was never logged, so
    // any *later* frame would be inconsistent with the store it
    // replays into (an append frame's expected id, a delete a lost
    // delete should have preceded). Only a checkpoint — which captures
    // the in-memory state wholesale — may reopen the log.
    (void)file_->Truncate(bytes_);
    failed_ = true;
    return Status(s.code(),
                  "WAL append failed: " + path_ + " (" + s.message() + ")");
  }
  if (fsync_each_record_) {
    s = file_->Sync();
    if (!s.ok()) {
      // The caller was promised power-loss durability; an unsynced
      // frame breaks it, and on Linux the error may be consumed by
      // this very call (later fsyncs would lie). Same discipline as a
      // failed write: latch until a checkpoint repairs.
      failed_ = true;
      return Status(s.code(),
                    "WAL fsync failed: " + path_ + " (" + s.message() + ")");
    }
    static obs::Counter* fsyncs = obs::MetricsRegistry::Global().GetCounter(
        "cqms_wal_fsyncs_total");
    fsyncs->Increment();
  }
  bytes_ += bytes.size();
  ++appended_records_;
  static obs::Counter* wal_bytes =
      obs::MetricsRegistry::Global().GetCounter("cqms_wal_bytes_total");
  static obs::Counter* wal_appends =
      obs::MetricsRegistry::Global().GetCounter("cqms_wal_appends_total");
  wal_bytes->Add(bytes.size());
  wal_appends->Increment();
  return Status::Ok();
}

Status ReplayWal(const std::string& path, QueryStore* store,
                 WalReplayStats* stats, uint64_t min_sequence, Env* env) {
  *stats = WalReplayStats{};
  FrameReader frames(path, env);
  CQMS_RETURN_IF_ERROR(frames.Open());
  stats->bytes_valid = frames.end();
  for (;;) {
    bool more = false;
    CQMS_RETURN_IF_ERROR(frames.Next(&more));
    if (!more) break;
    const uint64_t sequence = frames.sequence();
    stats->max_sequence = std::max(stats->max_sequence, sequence);
    if (stats->min_sequence == 0 || sequence < stats->min_sequence) {
      stats->min_sequence = sequence;
    }
    if (sequence <= min_sequence) {
      // The snapshot already contains this mutation: a crash landed
      // between the snapshot write and the WAL truncation. CRC already
      // vouched for the frame; don't re-apply it.
      ++stats->records_skipped;
    } else {
      BinaryReader* r = frames.body();
      CQMS_RETURN_IF_ERROR(ApplyWalRecord(r, store, path));
      if (!r->AtEnd()) return CorruptWal(path, "trailing payload bytes");
      ++stats->records_applied;
    }
    stats->bytes_valid = frames.end();
  }
  stats->torn_bytes = frames.size() - stats->bytes_valid;
  return Status::Ok();
}

Status ScanWalFrames(
    const std::string& path, Env* env,
    const std::function<bool(uint64_t sequence, std::string_view frame)>& fn) {
  FrameReader frames(path, env);
  CQMS_RETURN_IF_ERROR(frames.Open());
  for (;;) {
    bool more = false;
    CQMS_RETURN_IF_ERROR(frames.Next(&more));
    if (!more || !fn(frames.sequence(), frames.payload())) return Status::Ok();
  }
}

}  // namespace cqms::storage
