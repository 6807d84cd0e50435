#ifndef CQMS_STORAGE_STORE_LISTENER_H_
#define CQMS_STORAGE_STORE_LISTENER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/query_record.h"

namespace cqms::storage {

enum class Visibility : uint8_t;

/// Observer of every durable mutation of a QueryStore (and its embedded
/// AccessControl). The write-ahead log subscribes through this interface
/// so existing call sites — the profiler's Append, the maintenance
/// pass's repairs and flags, the facade's ACL administration — become
/// durable without rerouting a single caller. The incremental mining
/// engine's ChangeTracker subscribes through the same interface to
/// accumulate per-cycle dirty sets; a store carries any number of
/// listeners (see QueryStore::AddListener).
///
/// Callbacks fire synchronously, after the mutation has been applied
/// and only when it succeeded. In-place edits through GetMutable()
/// (e.g. the maintenance stats refresh) are intentionally not observed:
/// they mutate refreshable profiling state that the next checkpoint
/// snapshot captures wholesale (see docs/persistence.md).
class StoreListener {
 public:
  virtual ~StoreListener() = default;

  /// `record` is the stored record, after id assignment and signature
  /// finalization.
  virtual void OnAppend(const QueryRecord& record) = 0;
  virtual void OnRewrite(QueryId id, const std::string& new_text) = 0;
  virtual void OnAnnotate(QueryId id, const Annotation& annotation) = 0;
  /// AddFlag (`set`) or ClearFlag (`!set`).
  virtual void OnFlagChange(QueryId id, QueryFlags flag, bool set) = 0;
  virtual void OnSetSession(QueryId id, SessionId session) = 0;
  /// `quality` is the clamped, stored value.
  virtual void OnSetQuality(QueryId id, double quality) = 0;
  virtual void OnDelete(QueryId id) = 0;
  virtual void OnAclAddUser(const std::string& user,
                            const std::vector<std::string>& groups) = 0;
  virtual void OnAclSetVisibility(QueryId id, Visibility visibility) = 0;

  /// The record's output-derived signature section was recomputed
  /// (QueryStore::SyncOutputSignature after a maintenance stats
  /// refresh). Defaulted to a no-op: the WAL deliberately ignores it —
  /// refreshed stats are refreshable state the next checkpoint snapshot
  /// captures wholesale — but similarity-derived state must not outlive
  /// it: the miner marks the id dirty, so its retained distance-matrix
  /// rows are re-scored, since output rows feed CombinedSimilarity.
  virtual void OnSyncOutputSignature(QueryId id) { (void)id; }
};

}  // namespace cqms::storage

#endif  // CQMS_STORAGE_STORE_LISTENER_H_
