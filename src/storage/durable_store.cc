#include "storage/durable_store.h"

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "common/binary_codec.h"
#include "common/clock.h"
#include "obs/metrics.h"
#include "storage/persistence.h"
#include "storage/snapshot_v2.h"

namespace cqms::storage {

namespace {

// Checkpoint / durability health series, resolved once per process.
struct DurableSeries {
  obs::Histogram* checkpoint_micros;
  obs::Counter* checkpoints;
  obs::Counter* checkpoint_failures;
  obs::Gauge* failure_streak;
  obs::Gauge* read_only;
  obs::Gauge* repl_backlog;
};

const DurableSeries& Series() {
  static const DurableSeries s = [] {
    auto& reg = obs::MetricsRegistry::Global();
    DurableSeries d;
    d.checkpoint_micros = reg.GetHistogram("cqms_checkpoint_micros");
    d.checkpoints = reg.GetCounter("cqms_checkpoints_total");
    d.checkpoint_failures = reg.GetCounter("cqms_checkpoint_failures_total");
    d.failure_streak = reg.GetGauge("cqms_checkpoint_failure_streak");
    d.read_only = reg.GetGauge("cqms_durable_read_only");
    d.repl_backlog = reg.GetGauge("cqms_repl_backlog_bytes");
    return d;
  }();
  return s;
}

/// Corruption of a snapshot generation is recoverable when the previous
/// one survives; everything else (including a plain missing file) has
/// its own handling.
bool IsCorruption(const Status& s) {
  return s.code() == StatusCode::kCorruption;
}

/// Hands the whole pages of a buffer that a single-pass reader is done
/// with back to the kernel as the reader moves on, so a decode's peak
/// is the decoded state plus the bytes still ahead of it rather than
/// the decoded state plus the whole buffer. Released bytes read back as
/// zeros. Linux only; elsewhere nothing is released.
class ConsumedPageReleaser {
 public:
  explicit ConsumedPageReleaser(std::string* buffer)
      : base_(reinterpret_cast<uintptr_t>(buffer->data())) {
#if defined(__linux__)
    page_ = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
    next_ = (base_ + page_ - 1) & ~(page_ - 1);  // the first whole page
#endif
  }

  /// Releases the whole pages below byte `offset` of the buffer.
  void ReleaseBelow(size_t offset) {
#if defined(__linux__)
    const uintptr_t end = (base_ + offset) & ~(page_ - 1);
    if (end <= next_) return;
    (void)madvise(reinterpret_cast<void*>(next_), end - next_, MADV_DONTNEED);
    next_ = end;
#else
    (void)offset;
#endif
  }

 private:
  uintptr_t base_;
  uintptr_t page_ = 0;
  uintptr_t next_ = 0;  ///< First page not released yet.
};

}  // namespace

DurableStore::DurableStore(QueryStore* store, std::string dir,
                           DurabilityOptions options)
    : store_(store),
      dir_(std::move(dir)),
      snapshot_path_(dir_ + "/snapshot.cqms"),
      wal_path_(dir_ + "/wal.log"),
      prev_snapshot_path_(dir_ + "/snapshot.cqms.1"),
      prev_wal_path_(dir_ + "/wal.log.1"),
      options_(options),
      env_(options.env != nullptr ? options.env : Env::Default()) {}

DurableStore::~DurableStore() {
  if (open_) store_->RemoveListener(this);
}

void DurableStore::SweepStaleTmpFiles() {
  // A crash between a tmp write and its rename strands `*.tmp` files;
  // they are never read, only republished, so removal is always safe.
  // Best effort: a failure to sweep must not block recovery.
  std::vector<std::string> names;
  if (!env_->ListDir(dir_, &names).ok()) return;
  for (const std::string& name : names) {
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      (void)env_->RemoveFile(dir_ + "/" + name);
    }
  }
}

Status DurableStore::Open() {
  if (open_) return Status::Internal("DurableStore already open");
  // The epoch also guards the ACL: memberships or visibility registered
  // before the listener attaches would exist only in memory — logged
  // queries would be durable while the rules governing who may see
  // them silently evaporate at the next recovery.
  if (store_->size() != 0 || std::as_const(*store_).acl().epoch() != 0) {
    return Status::InvalidArgument(
        "durable recovery requires a pristine store (no records, no ACL "
        "mutations)");
  }
  CQMS_RETURN_IF_ERROR(env_->CreateDirIfMissing(dir_));
  SweepStaleTmpFiles();

  // Pick the snapshot generation to restore from. The newest one is
  // read once, and its bytes are CRC-verified (v2 only — a v1 text
  // snapshot predates both the framing and the retention scheme) before
  // they are decoded, so a torn or bit-rotted file routes to the
  // previous generation instead of failing the load.
  recovered_from_fallback_ = false;
  uint64_t snapshot_sequence = 0;
  const bool primary_exists = env_->FileExists(snapshot_path_);
  const bool prev_exists = env_->FileExists(prev_snapshot_path_);
  bool use_fallback = false;
  std::string image;  // the newest generation's bytes
  Status read;
  if (primary_exists) {
    read = ReadFileToString(snapshot_path_, &image, env_);
    Status verify = read.ok() ? VerifySnapshotV2Image(image, snapshot_path_)
                              : read;
    if (IsCorruption(verify)) {
      // "bad magic" also covers legacy v1 text snapshots, which have
      // no CRC framing to verify — those go straight to the decode.
      // Anything else (broken v2 image, or garbage that is neither
      // format — e.g. bit rot inside the magic itself) routes to the
      // previous generation when one exists.
      const bool is_v1_text =
          std::string_view(image).substr(0, kSnapshotV2Magic.size()) ==
          "CQMS-SNA";
      if (!is_v1_text) {
        if (prev_exists) {
          use_fallback = true;
        } else {
          return verify;  // corrupt and nothing to fall back to
        }
      }
    }
  } else if (prev_exists) {
    // A crash between the checkpoint's two renames leaves no primary
    // but a good previous generation plus a complete WAL.
    use_fallback = true;
  }

  if (use_fallback) {
    std::string().swap(image);
    Status s = LoadSnapshot(store_, prev_snapshot_path_, &snapshot_sequence,
                            env_);
    if (!s.ok()) {
      return Status(s.code(), "both snapshot generations unusable: " +
                                  s.message());
    }
    recovered_from_fallback_ = true;
  } else if (primary_exists) {
    CQMS_RETURN_IF_ERROR(read);
    // The decode reads the image once, front to back, so the pages it
    // has passed go back to the kernel as it goes: the restore never
    // holds the whole image beside the decoded store.
    ConsumedPageReleaser releaser(&image);
    CQMS_RETURN_IF_ERROR(LoadSnapshotFromString(
        store_, image, snapshot_path_, &snapshot_sequence,
        [&releaser](size_t consumed) { releaser.ReleaseBelow(consumed); }));
    std::string().swap(image);
  }

  // Replay the retired logs first (oldest generation first), then the
  // active one. With a healthy primary snapshot every retired frame is
  // covered by its stamp and skipped; after a fallback (or a crash
  // mid-rotation) the newest retired log carries the mutations between
  // the two generations. Sequence stamps are monotonic across
  // checkpoints, so replaying everything is idempotent either way.
  // Retention (see RetireActiveWal) may have kept several generations
  // for follower catch-up: `wal.log.1` is the newest; the contiguous
  // run upward from it is the retained set.
  std::vector<std::string> retired_paths;  // index k <-> wal.log.(k+1)
  for (uint32_t i = 1;; ++i) {
    std::string path = RetiredWalPath(i);
    if (!env_->FileExists(path)) break;
    retired_paths.push_back(std::move(path));
  }
  retired_segments_.assign(retired_paths.size(), WalSegmentInfo{});
  uint64_t min_sequence = snapshot_sequence;
  replayed_records_ = 0;
  for (size_t k = retired_paths.size(); k-- > 0;) {  // oldest first
    WalReplayStats seg_stats;
    CQMS_RETURN_IF_ERROR(ReplayWal(retired_paths[k], store_, &seg_stats,
                                   min_sequence, env_));
    WalSegmentInfo& info = retired_segments_[k];
    info.path = retired_paths[k];
    if (seg_stats.max_sequence > 0) {
      info.min_sequence = seg_stats.min_sequence;
      info.max_sequence = seg_stats.max_sequence;
    } else {
      // Empty generation (a checkpoint with no mutations since the
      // last): describe it as the empty range after its predecessor.
      info.min_sequence = min_sequence + 1;
      info.max_sequence = min_sequence;
    }
    (void)env_->GetFileSize(info.path, &info.bytes);
    min_sequence = std::max(min_sequence, seg_stats.max_sequence);
    replayed_records_ += seg_stats.records_applied;
  }
  CQMS_RETURN_IF_ERROR(
      ReplayWal(wal_path_, store_, &replay_stats_, min_sequence, env_));
  replayed_records_ += replay_stats_.records_applied;
  last_sequence_ = std::max(min_sequence, replay_stats_.max_sequence);
  active_base_sequence_ = replay_stats_.min_sequence > 0
                              ? replay_stats_.min_sequence - 1
                              : last_sequence_;
  UpdateBacklogGauge();
  if (replay_stats_.torn_bytes > 0) {
    // Drop the torn tail so future appends start on a frame boundary.
    CQMS_RETURN_IF_ERROR(
        env_->TruncateFile(wal_path_, replay_stats_.bytes_valid));
  }
  CQMS_RETURN_IF_ERROR(
      wal_.Open(wal_path_, options_.fsync_each_record, env_));
  store_->AddListener(this);
  open_ = true;
  return Status::Ok();
}

Status DurableStore::PublishSnapshot(const std::string& encoded) {
  // tmp write + fsync, then the two renames, then one directory sync.
  // Every crash point leaves a recoverable pair: before the renames the
  // old primary + full WAL; between them the previous generation + both
  // WALs (Open's fallback path); after them the new primary.
  const std::string tmp = snapshot_path_ + ".tmp";
  std::unique_ptr<WritableFile> out;
  CQMS_RETURN_IF_ERROR(
      env_->NewWritableFile(tmp, Env::WriteMode::kTruncate, &out));
  Status s = out->Append(encoded);
  if (s.ok()) s = out->Flush();
  if (s.ok()) s = out->Sync();
  Status close_status = out->Close();
  if (s.ok()) s = close_status;
  if (!s.ok()) {
    (void)env_->RemoveFile(tmp);
    return s;
  }
  if (env_->FileExists(snapshot_path_)) {
    CQMS_RETURN_IF_ERROR(
        env_->RenameFile(snapshot_path_, prev_snapshot_path_));
  }
  CQMS_RETURN_IF_ERROR(env_->RenameFile(tmp, snapshot_path_));
  return env_->SyncDir(dir_);
}

Status DurableStore::Checkpoint() {
  WallTimer timer;
  Status s = CheckpointImpl();
  const DurableSeries& series = Series();
  if (s.ok()) {
    series.checkpoint_micros->Record(
        static_cast<uint64_t>(timer.ElapsedMicros()));
    series.checkpoints->Increment();
    series.read_only->Set(0);
  } else {
    series.checkpoint_failures->Increment();
  }
  return s;
}

Status DurableStore::CheckpointImpl() {
  if (!open_) return Status::Internal("DurableStore not open");
  // Deliberately ignores any deferred WAL error: the snapshot is taken
  // from the in-memory store, which is ahead of a failing log, so a
  // successful checkpoint *repairs* durability rather than being
  // blocked by the failure.
  std::string encoded;
  CQMS_RETURN_IF_ERROR(EncodeSnapshotV2(*store_, last_sequence_, &encoded));
  CQMS_RETURN_IF_ERROR(PublishSnapshot(encoded));
  CQMS_RETURN_IF_ERROR(RetireActiveWal());
  replayed_records_ = 0;
  deferred_error_ = Status::Ok();
  read_only_.store(false, std::memory_order_relaxed);
  return Status::Ok();
}

std::string DurableStore::RetiredWalPath(uint32_t index) const {
  return dir_ + "/wal.log." + std::to_string(index);
}

Status DurableStore::RetireActiveWal() {
  // Decide which existing retired generations a registered shipper
  // still needs: a segment is live while some follower's next frame
  // falls at or below its top. Without a hook — or with every follower
  // acked past everything — nothing is kept and the rotate below
  // replaces wal.log.1 exactly as before retention existed. The caps
  // bound a dead follower's hold on the primary's disk; a follower that
  // falls off the window re-bootstraps from a snapshot stream.
  const uint64_t min_required = shipping_hook_ != nullptr
                                    ? shipping_hook_->MinRequiredSequence()
                                    : UINT64_MAX;
  const uint64_t new_segment_bytes = wal_.bytes();
  size_t keep = 0;
  uint64_t kept_bytes = new_segment_bytes;
  while (keep < retired_segments_.size()) {
    const WalSegmentInfo& seg = retired_segments_[keep];
    if (seg.max_sequence < min_required) break;  // everyone acked past it
    // The just-rotated log always becomes wal.log.1, so the retained
    // count is keep + 1.
    if (keep + 2 > options_.repl_backlog_max_segments) break;
    if (kept_bytes + seg.bytes > options_.repl_backlog_max_bytes) break;
    kept_bytes += seg.bytes;
    ++keep;
  }
  for (size_t i = retired_segments_.size(); i-- > keep;) {
    (void)env_->RemoveFile(retired_segments_[i].path);
  }
  retired_segments_.resize(keep);
  // Shift survivors one index up, highest first so nothing is
  // clobbered. A retried checkpoint may find a source already shifted;
  // skip it (same tolerance as WalWriter::Rotate).
  for (size_t i = keep; i-- > 0;) {
    if (env_->FileExists(RetiredWalPath(static_cast<uint32_t>(i) + 1))) {
      CQMS_RETURN_IF_ERROR(
          env_->RenameFile(RetiredWalPath(static_cast<uint32_t>(i) + 1),
                           RetiredWalPath(static_cast<uint32_t>(i) + 2)));
    }
    retired_segments_[i].path = RetiredWalPath(static_cast<uint32_t>(i) + 2);
  }
  CQMS_RETURN_IF_ERROR(wal_.Rotate(prev_wal_path_));
  WalSegmentInfo info;
  info.path = prev_wal_path_;
  info.min_sequence = active_base_sequence_ + 1;
  info.max_sequence = last_sequence_;
  info.bytes = new_segment_bytes;
  retired_segments_.insert(retired_segments_.begin(), std::move(info));
  active_base_sequence_ = last_sequence_;
  UpdateBacklogGauge();
  return Status::Ok();
}

void DurableStore::UpdateBacklogGauge() {
  backlog_bytes_ = 0;
  for (const WalSegmentInfo& seg : retired_segments_) {
    backlog_bytes_ += seg.bytes;
  }
  Series().repl_backlog->Set(static_cast<int64_t>(backlog_bytes_));
}

Status DurableStore::MaybeCheckpoint(bool* checkpointed) {
  if (checkpointed != nullptr) *checkpointed = false;
  if (!open_) return Status::Internal("DurableStore not open");
  if (deferred_error_.ok() && wal_.bytes() < options_.checkpoint_wal_bytes &&
      wal_records() < options_.checkpoint_wal_records) {
    return Status::Ok();
  }
  if (checkpoint_backoff_remaining_.load(std::memory_order_relaxed) > 0) {
    checkpoint_backoff_remaining_.fetch_sub(1, std::memory_order_relaxed);
    checkpoints_backed_off_.fetch_add(1, std::memory_order_relaxed);
    return Status(last_checkpoint_error_.code(),
                  "checkpoint backed off after failure: " +
                      last_checkpoint_error_.message());
  }
  Status s = Checkpoint();
  if (s.ok()) {
    checkpoint_failure_streak_.store(0, std::memory_order_relaxed);
    Series().failure_streak->Set(0);
    last_checkpoint_error_ = Status::Ok();
    if (checkpointed != nullptr) *checkpointed = true;
  } else {
    const uint32_t streak =
        checkpoint_failure_streak_.load(std::memory_order_relaxed) + 1;
    checkpoint_failure_streak_.store(streak, std::memory_order_relaxed);
    Series().failure_streak->Set(streak);
    last_checkpoint_error_ = s;
    if (options_.checkpoint_backoff_cap > 0) {
      uint32_t shift = std::min<uint32_t>(streak - 1, 16u);
      checkpoint_backoff_remaining_.store(
          std::min<uint64_t>(1ull << shift, options_.checkpoint_backoff_cap),
          std::memory_order_relaxed);
    }
  }
  return s;
}

void DurableStore::Log(std::string_view op_payload) {
  BinaryWriter frame;
  frame.PutVarint(++last_sequence_);
  frame.PutBytes(op_payload.data(), op_payload.size());
  Status s = wal_.Append(frame.data());
  if (!s.ok() && deferred_error_.ok()) {
    deferred_error_ = s;
    read_only_.store(true, std::memory_order_relaxed);
    Series().read_only->Set(1);
  }
  // Ship only frames that reached the log: a latched append failure is
  // repaired by a checkpoint, after which behind followers re-bootstrap
  // from the snapshot — never from frames the disk never saw.
  if (s.ok() && shipping_hook_ != nullptr) {
    shipping_hook_->OnWalFrame(last_sequence_, frame.data());
  }
}

void DurableStore::OnAppend(const QueryRecord& record) {
  Log(wal::EncodeAppend(record));
}

void DurableStore::OnRewrite(QueryId id, const std::string& new_text) {
  Log(wal::EncodeRewrite(id, new_text, store_->Get(id)->statement().signature));
}

void DurableStore::OnAnnotate(QueryId id, const Annotation& annotation) {
  Log(wal::EncodeAnnotate(id, annotation));
}

void DurableStore::OnFlagChange(QueryId id, QueryFlags flag, bool set) {
  Log(wal::EncodeFlagChange(id, flag, set));
}

void DurableStore::OnSetSession(QueryId id, SessionId session) {
  Log(wal::EncodeSetSession(id, session));
}

void DurableStore::OnSetQuality(QueryId id, double quality) {
  Log(wal::EncodeSetQuality(id, quality));
}

void DurableStore::OnDelete(QueryId id) { Log(wal::EncodeDelete(id)); }

void DurableStore::OnAclAddUser(const std::string& user,
                                const std::vector<std::string>& groups) {
  Log(wal::EncodeAddUser(user, groups));
}

void DurableStore::OnAclSetVisibility(QueryId id, Visibility visibility) {
  Log(wal::EncodeSetVisibility(id, visibility));
}

}  // namespace cqms::storage
