#ifndef CQMS_STORAGE_CHANGE_TRACKER_H_
#define CQMS_STORAGE_CHANGE_TRACKER_H_

#include <string>
#include <vector>

#include "storage/query_record.h"
#include "storage/store_listener.h"

namespace cqms::storage {

class QueryStore;

/// Dirty sets accumulated between two mining refreshes. Every vector is
/// sorted and deduplicated (appends arrive with monotonically increasing
/// ids, so `appended` is additionally in append order). The same id may
/// appear in several sets within one cycle — e.g. appended then deleted
/// — consumers are expected to *resync* each dirty id against the
/// store's current state rather than replay the events in order, which
/// makes consumption order-free and idempotent.
struct ChangeDelta {
  std::vector<QueryId> appended;
  /// Text rewritten: components, signature and sketch all replaced.
  std::vector<QueryId> rewritten;
  /// Only the output-derived signature section changed (maintenance
  /// stats refresh). Retained distances are re-scored; sessionization,
  /// transactions and popularity are text/feature-derived and need not.
  std::vector<QueryId> output_synced;
  /// kFlagDeleted transitioned to set (Delete or AddFlag).
  std::vector<QueryId> deleted;
  /// kFlagDeleted transitioned to clear (administrative undelete).
  std::vector<QueryId> undeleted;
  /// Session id overwritten by someone other than the suppressed
  /// writer (external reassignment; the sessionizer re-segments the
  /// affected users).
  std::vector<QueryId> session_reassigned;

  bool Empty() const {
    return appended.empty() && rewritten.empty() && output_synced.empty() &&
           deleted.empty() && undeleted.empty() && session_reassigned.empty();
  }

  /// Dirty ids other than plain appends — the part that forces
  /// re-derivation rather than pure extension.
  size_t StructuralSize() const {
    return rewritten.size() + deleted.size() + undeleted.size() +
           session_reassigned.size();
  }
};

/// A StoreListener that accumulates the per-cycle dirty sets the
/// incremental mining engine consumes. Attach() subscribes it to a
/// store (alongside the WAL — stores carry any number of listeners);
/// Drain() hands the accumulated delta to the consumer and starts a
/// fresh cycle.
///
/// Events that cannot change any mining input are ignored: annotations,
/// quality scores and ACL mutations (mining reads the log unfiltered;
/// visibility applies at query time). Flag flips other than
/// kFlagDeleted are likewise ignored — schema/staleness flags do not
/// feed sessionization, transactions, popularity or clustering.
///
/// The miner writes session assignments back into the store as part of
/// every run; a ScopedSuppress around that write-back keeps the tracker
/// from observing its owner's own writes as external dirt.
class ChangeTracker : public StoreListener {
 public:
  ChangeTracker() = default;
  ~ChangeTracker() override;

  ChangeTracker(const ChangeTracker&) = delete;
  ChangeTracker& operator=(const ChangeTracker&) = delete;

  /// Subscribes to `store` (which must outlive the tracker or the
  /// tracker must be destroyed first — destruction detaches).
  void Attach(QueryStore* store);
  void Detach();

  /// Returns the accumulated dirty sets and clears them.
  ChangeDelta Drain();

  const ChangeDelta& pending() const { return pending_; }

  /// RAII guard silencing the tracker while its owner writes back
  /// derived state (session assignments) it already accounts for.
  class ScopedSuppress {
   public:
    explicit ScopedSuppress(ChangeTracker* tracker) : tracker_(tracker) {
      ++tracker_->suppress_depth_;
    }
    ~ScopedSuppress() { --tracker_->suppress_depth_; }
    ScopedSuppress(const ScopedSuppress&) = delete;
    ScopedSuppress& operator=(const ScopedSuppress&) = delete;

   private:
    ChangeTracker* tracker_;
  };

  // --- StoreListener -------------------------------------------------------
  void OnAppend(const QueryRecord& record) override;
  void OnRewrite(QueryId id, const std::string& new_text) override;
  void OnAnnotate(QueryId id, const Annotation& annotation) override;
  void OnFlagChange(QueryId id, QueryFlags flag, bool set) override;
  void OnSetSession(QueryId id, SessionId session) override;
  void OnSetQuality(QueryId id, double quality) override;
  void OnDelete(QueryId id) override;
  void OnSyncOutputSignature(QueryId id) override;
  void OnAclAddUser(const std::string& user,
                    const std::vector<std::string>& groups) override;
  void OnAclSetVisibility(QueryId id, Visibility visibility) override;

 private:
  bool Suppressed() const { return suppress_depth_ > 0; }

  QueryStore* store_ = nullptr;
  ChangeDelta pending_;
  int suppress_depth_ = 0;
};

}  // namespace cqms::storage

#endif  // CQMS_STORAGE_CHANGE_TRACKER_H_
