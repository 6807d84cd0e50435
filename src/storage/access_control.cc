#include "storage/access_control.h"

#include <algorithm>

namespace cqms::storage {

AccessControl::AccessControl(const AccessControl& other)
    : memberships_(other.memberships_),
      epoch_(other.epoch_),
      listeners_(other.listeners_) {
  visibility_.reserve(other.visibility_.capacity());
  visibility_.assign(other.visibility_.begin(), other.visibility_.end());
}

void AccessControl::AddUser(const std::string& user,
                            const std::vector<std::string>& groups) {
  // Idempotent re-registration (apps re-register their user set on
  // every startup) is a no-op: no epoch bump — which would invalidate
  // every VisibilityCache — and no WAL record.
  auto known = memberships_.find(user);
  if (known != memberships_.end()) {
    bool all_present = true;
    for (const std::string& g : groups) {
      if (known->second.count(g) == 0) {
        all_present = false;
        break;
      }
    }
    if (all_present) return;
  }
  auto& set = memberships_[user];
  for (const std::string& g : groups) set.insert(g);
  ++epoch_;
  for (StoreListener* l : listeners_) l->OnAclAddUser(user, groups);
}

void AccessControl::AddListener(StoreListener* listener) {
  if (listener == nullptr) return;
  if (std::find(listeners_.begin(), listeners_.end(), listener) ==
      listeners_.end()) {
    listeners_.push_back(listener);
  }
}

void AccessControl::RemoveListener(StoreListener* listener) {
  listeners_.erase(std::remove(listeners_.begin(), listeners_.end(), listener),
                   listeners_.end());
}

const std::set<std::string>& AccessControl::GroupsOf(const std::string& user) const {
  auto it = memberships_.find(user);
  return it == memberships_.end() ? empty_ : it->second;
}

bool AccessControl::ShareGroup(const std::string& a, const std::string& b) const {
  const auto& ga = GroupsOf(a);
  const auto& gb = GroupsOf(b);
  // Iterate the smaller set.
  const auto& small = ga.size() <= gb.size() ? ga : gb;
  const auto& large = ga.size() <= gb.size() ? gb : ga;
  for (const std::string& g : small) {
    if (large.count(g) > 0) return true;
  }
  return false;
}

Status AccessControl::SetVisibility(QueryId id, const std::string& owner,
                                    const std::string& requester,
                                    Visibility visibility) {
  if (id < 0 || static_cast<size_t>(id) >= visibility_.size()) {
    return Status::NotFound("no query " + std::to_string(id));
  }
  if (owner != requester) {
    return Status::PermissionDenied("only the owner may change visibility of query " +
                                    std::to_string(id));
  }
  visibility_[static_cast<size_t>(id)] = visibility;
  ++epoch_;
  for (StoreListener* l : listeners_) l->OnAclSetVisibility(id, visibility);
  return Status::Ok();
}

bool AccessControl::CanSee(const std::string& viewer, const std::string& owner,
                           QueryId id) const {
  if (viewer == owner) return true;
  switch (GetVisibility(id)) {
    case Visibility::kPrivate:
      return false;
    case Visibility::kGroup:
      return ShareGroup(viewer, owner);
    case Visibility::kPublic:
      return true;
  }
  return false;
}

}  // namespace cqms::storage
