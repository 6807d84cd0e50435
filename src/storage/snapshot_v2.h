#ifndef CQMS_STORAGE_SNAPSHOT_V2_H_
#define CQMS_STORAGE_SNAPSHOT_V2_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "storage/env.h"
#include "storage/query_store.h"

namespace cqms::storage {

/// First bytes of a binary snapshot file; LoadSnapshot dispatches on
/// them (anything else falls back to the v1 text reader).
inline constexpr std::string_view kSnapshotV2Magic = "CQMSNAP2";

/// Writes the binary snapshot of `store` to `path` (format version 4 under
/// the "CQMSNAP2" magic), atomically (tmp file + rename). The format —
/// magic + version, then length-prefixed CRC32-framed sections —
/// serializes everything the store derived from the query text at
/// append time: the referenced slice of the global interner table,
/// similarity-signature Symbol vectors and output-row hashes,
/// canonical/skeleton texts, fingerprints, syntactic components, runtime
/// stats, annotations, and the full ACL. Everything a record derives
/// from its text and its execution outcome is written once per distinct
/// statement, in a statement table; each record keeps an index into it
/// plus its own owner, time, session, flags, quality, execution time and
/// annotations. LoadSnapshot can therefore
/// bulk-restore the store — indexes, scoring-column arenas, LSH buckets
/// (sketched from the stored signatures), feature relations — from one
/// sequential read, with zero re-parsing and zero re-tokenization. See
/// docs/persistence.md for the byte-level spec.
///
/// Output summaries are still not persisted (same policy as v1): they
/// are refreshable profiler caches. Their *signature contribution* (the
/// output-row hashes similarity ranking reads) is persisted, so ranking
/// is byte-identical across a save/load pair.
///
/// `wal_sequence` stamps the highest WAL sequence number this snapshot
/// covers (a durability-metadata section); DurableStore uses it to make
/// snapshot + WAL-replay idempotent across a crash between snapshot
/// write and WAL truncation. Plain saves leave it 0.
Status SaveSnapshotV2(const QueryStore& store, const std::string& path,
                      uint64_t wal_sequence = 0, Env* env = nullptr);

/// Same format, encoded from a published read view instead of the live
/// store — a consistent mutation prefix, safe to run on any thread
/// concurrently with the writer (hold the view via
/// QueryStore::SharedView for the duration).
Status SaveSnapshotV2(const ReadViewState& view, const std::string& path,
                      uint64_t wal_sequence = 0, Env* env = nullptr);

/// The serialized snapshot bytes without touching the filesystem —
/// SaveSnapshotV2 is EncodeSnapshotV2 + WriteFileAtomic. DurableStore
/// uses this directly so its checkpoint can sequence the writes itself
/// (it keeps the previous snapshot generation alive across the
/// publish; see docs/persistence.md), and so does the replication
/// bootstrap. The image is encoded into one buffer sized exactly up
/// front, so the encode's peak memory is the image itself (the statement
/// table's dedupe keeps a hash per entry and an index per record, never
/// a copy of an entry). Equal stores encode to equal bytes. kInternal
/// when a stored signature references a symbol outside the interner
/// table.
Status EncodeSnapshotV2(const QueryStore& store, uint64_t wal_sequence,
                        std::string* out);

/// View-backed encode (see the SaveSnapshotV2 overload).
Status EncodeSnapshotV2(const ReadViewState& view, uint64_t wal_sequence,
                        std::string* out);

/// Structural validation without mutating any store: magic, a readable
/// version (2, 3 or 4), section framing and every section CRC.
/// kCorruption on any mismatch.
/// This is how DurableStore::Open decides whether to fall back to the
/// previous snapshot generation — cheap (one sequential read, no
/// decode) and it catches exactly the faults retention protects
/// against (torn writes, bit rot).
Status VerifySnapshotV2(const std::string& path, Env* env = nullptr);

/// The same validation of an image already in memory; `label` names it
/// in error messages. DurableStore::Open reads its newest snapshot once
/// and verifies and decodes that one buffer.
Status VerifySnapshotV2Image(std::string_view file, const std::string& label);

/// Loads a version-2, -3 or -4 snapshot into an empty store. Symbols
/// are remapped through the process-global interner (bulk re-intern of
/// the stored table slice): in a fresh process the mapping is the
/// identity; in a process whose interner already diverged, signature
/// vectors are remapped — still without touching the tokenizer or the
/// SQL parser. A version-4 statement entry is decoded and remapped once
/// into one Statement that every record referencing it shares (each
/// record copies only the entry's fingerprint and outcome); QueryStore
/// shares equal version-2/3 statements the same way. Either way the LSH
/// index sketches each record from its restored signature; a version-2
/// record's stored sketch slots are skipped. Versions above 4 are
/// refused (kIoError), so a snapshot is never restored by a binary that
/// would misread it. Corruption (bad magic, section CRC mismatch,
/// truncation, malformed payload, a count larger than the bytes left to
/// hold it, a statement index past the table) is rejected with
/// kCorruption; a load that fails
/// mid-restore leaves the store partially populated, so callers must
/// discard it (the v1 loader has the same contract). `wal_sequence`
/// (optional) receives the stored durability stamp (0 when absent).
Status LoadSnapshotV2(QueryStore* store, const std::string& path,
                      uint64_t* wal_sequence = nullptr, Env* env = nullptr);

/// Called as a load decodes an image with an offset into it, rising
/// from call to call: the decoder reads none of the bytes below it
/// again, so the caller may release them (DurableStore::Open returns
/// their pages to the kernel). Reported after each section and every
/// few thousand statements or records.
using SnapshotConsumed = std::function<void(size_t consumed)>;

/// Same decode from in-memory bytes — the replication follower bootstraps
/// from a snapshot image streamed off the primary without staging it on
/// disk. `label` names the source in error messages. `on_consumed`, when
/// set, hears how far the decode has read (see SnapshotConsumed). Every
/// section's CRC is checked before it is decoded, and the decode is
/// single-pass.
Status LoadSnapshotV2FromString(QueryStore* store, std::string_view data,
                                const std::string& label,
                                uint64_t* wal_sequence = nullptr,
                                const SnapshotConsumed& on_consumed = {});

}  // namespace cqms::storage

#endif  // CQMS_STORAGE_SNAPSHOT_V2_H_
