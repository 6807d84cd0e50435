#ifndef CQMS_STORAGE_PERSISTENCE_H_
#define CQMS_STORAGE_PERSISTENCE_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "storage/env.h"
#include "storage/query_store.h"
#include "storage/snapshot_v2.h"

namespace cqms::storage {

/// Writes a snapshot of the query log to `path` in the v1 line-oriented,
/// percent-escaped text format: per record the raw text, user, timestamp,
/// session, flags, quality, runtime stats and annotations, plus ACL user
/// memberships and per-query visibility. Kept as the debuggable /
/// greppable format; production paths should prefer SaveSnapshotV2
/// (snapshot_v2.h), which restores without re-parsing. The write is
/// atomic (tmp file + rename).
///
/// Output summaries are intentionally not persisted: they are data-
/// dependent caches the profiler rebuilds, and the paper's maintenance
/// component treats them as refreshable state anyway.
///
/// All functions here perform their I/O through `env` (null =
/// Env::Default(), the real filesystem); tests inject a
/// FaultInjectingEnv to exercise every failure path.
Status SaveSnapshot(const QueryStore& store, const std::string& path,
                    Env* env = nullptr);

/// Loads a snapshot into an empty store, dispatching on the file header:
/// the binary v2 magic routes to LoadSnapshotV2 (bulk restore, no
/// re-tokenization); anything else is read as the v1 text format, whose
/// parse-derived features (components, fingerprints, signatures) are
/// rebuilt from the stored text via the same path the profiler uses. In
/// both cases the loaded store is fully indexed and meta-queryable.
/// `wal_sequence` (optional) receives the v2 durability stamp — the
/// highest WAL sequence the snapshot covers — or 0 for v1 snapshots.
Status LoadSnapshot(QueryStore* store, const std::string& path,
                    uint64_t* wal_sequence = nullptr, Env* env = nullptr);

/// The same load from a snapshot's bytes already in memory; `label`
/// names them in error messages. A v2 image reports its decode progress
/// to `on_consumed` (see SnapshotConsumed); a v1 one never calls it.
Status LoadSnapshotFromString(QueryStore* store, std::string_view data,
                              const std::string& label,
                              uint64_t* wal_sequence = nullptr,
                              const SnapshotConsumed& on_consumed = {});

/// Writes `contents` to `path` atomically and durably: the bytes land
/// in `<path>.tmp`, are fsync'd (POSIX), and rename(2) moves them over
/// the target (whose directory entry is fsync'd too), so a crash — or a
/// power cut — mid-save can never clobber the last good snapshot, and a
/// published snapshot is on stable storage before anything (like the
/// WAL truncation that follows a checkpoint) relies on it. A failure of
/// the directory fsync (or of opening the directory) is a real
/// durability gap — the rename may not survive power loss — and is
/// propagated, not swallowed.
Status WriteFileAtomic(const std::string& path, std::string_view contents,
                       Env* env = nullptr);

/// Reads the whole file into `out` with one sized block read (the
/// istreambuf-iterator idiom reads per character — ruinous at snapshot
/// sizes). kIoError when the file cannot be opened or read.
Status ReadFileToString(const std::string& path, std::string* out,
                        Env* env = nullptr);

}  // namespace cqms::storage

#endif  // CQMS_STORAGE_PERSISTENCE_H_
