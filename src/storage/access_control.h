#ifndef CQMS_STORAGE_ACCESS_CONTROL_H_
#define CQMS_STORAGE_ACCESS_CONTROL_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/query_record.h"
#include "storage/store_listener.h"

namespace cqms::storage {

/// Who may see a logged query (§2.4 User Administrative Interaction:
/// "define access control rules on their queries, e.g. sharing them only
/// with members of the same research group").
enum class Visibility : uint8_t {
  kPrivate,  ///< Owner only.
  kGroup,    ///< Owner plus users sharing at least one group. Default.
  kPublic,   ///< Everyone.
};

/// Users, groups and per-query visibility rules. Every read path of the
/// CQMS (search, browse, recommendations, mining inputs) filters through
/// `CanSee` so knowledge transfer respects collaboration boundaries.
///
/// The visibility of each query sits in a dense column, one byte per
/// record of the owning QueryStore, which grows it (AddRecord) as it
/// appends; a record nobody changed holds the kGroup default.
class AccessControl {
 public:
  AccessControl() = default;

  /// Copying carries everything, the listeners included: QueryStore
  /// copies its ACL on the first write after a publish, and the copy
  /// goes on as the live ACL, so it must keep notifying the write-ahead
  /// log and the view tick. The original left to published views is
  /// const from then on and never notifies. The visibility column keeps
  /// its spare capacity, so the append after the copy does not
  /// reallocate it.
  AccessControl(const AccessControl& other);
  AccessControl& operator=(const AccessControl&) = delete;

  /// Registers `user` as a member of `groups` (creates groups on demand;
  /// repeated calls merge memberships).
  void AddUser(const std::string& user, const std::vector<std::string>& groups);

  /// True when the user has been registered.
  bool HasUser(const std::string& user) const { return memberships_.count(user) > 0; }

  /// Groups of `user` (empty set for unknown users).
  const std::set<std::string>& GroupsOf(const std::string& user) const;

  bool ShareGroup(const std::string& a, const std::string& b) const;

  /// Sets the visibility of one query. Only the owner may change it;
  /// `requester` must equal `owner`. kNotFound for an id the column does
  /// not hold: no id ever resizes it.
  Status SetVisibility(QueryId id, const std::string& owner,
                       const std::string& requester, Visibility visibility);

  /// kGroup for an id the column does not hold.
  Visibility GetVisibility(QueryId id) const {
    return id >= 0 && static_cast<size_t>(id) < visibility_.size()
               ? visibility_[static_cast<size_t>(id)]
               : Visibility::kGroup;
  }

  /// Adds the kGroup default for the next record; QueryStore calls it
  /// for every record it stores.
  void AddRecord() { visibility_.push_back(Visibility::kGroup); }
  void Reserve(size_t records) { visibility_.reserve(records); }

  /// Core check: may `viewer` see a query owned by `owner` with the
  /// visibility registered for `id`? Owners always see their own queries.
  bool CanSee(const std::string& viewer, const std::string& owner, QueryId id) const;

  /// All registered users with their group memberships (for persistence
  /// and administrative listing).
  const std::map<std::string, std::set<std::string>>& memberships() const {
    return memberships_;
  }

  /// Monotonic counter bumped by every mutation that can change a
  /// CanSee outcome (group membership merges, per-query visibility
  /// changes). Long-lived VisibilityCaches compare it against the value
  /// they snapshotted and drop their memoized decisions on mismatch, so
  /// caching never outlives an ACL change.
  uint64_t epoch() const { return epoch_; }

  /// Registers / detaches a mutation observer. Managed by
  /// QueryStore::AddListener/RemoveListener so one call covers store
  /// and ACL; double registration is a no-op.
  void AddListener(StoreListener* listener);
  void RemoveListener(StoreListener* listener);

 private:
  std::map<std::string, std::set<std::string>> memberships_;
  /// Per record, indexed by id.
  std::vector<Visibility> visibility_;
  uint64_t epoch_ = 0;
  std::vector<StoreListener*> listeners_;
  std::set<std::string> empty_;
};

}  // namespace cqms::storage

#endif  // CQMS_STORAGE_ACCESS_CONTROL_H_
