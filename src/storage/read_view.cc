#include "storage/read_view.h"

#include <algorithm>

#include "common/sorted_vector.h"
#include "common/string_util.h"
#include "storage/query_store.h"

namespace cqms::storage {

namespace {

template <typename Id>
const std::vector<Id>& Empty() {
  static const std::vector<Id> empty;
  return empty;
}

template <typename Key>
const std::vector<StatementId>& Lookup(
    const std::unordered_map<Key, std::vector<StatementId>>& map,
    const Key& key) {
  auto it = map.find(key);
  return it == map.end() ? Empty<StatementId>() : it->second;
}

}  // namespace

const std::vector<StatementId>& PostingIndex::StatementsUsingTable(
    const std::string& table) const {
  // Find() never inserts, so probing unseen names cannot grow the
  // global interner.
  return StatementsUsingTableSymbol(GlobalInterner().Find(ToLower(table)));
}

const std::vector<StatementId>& PostingIndex::StatementsUsingTableSymbol(
    Symbol table) const {
  if (table == kInvalidSymbol) return Empty<StatementId>();
  return Lookup(by_table, table);
}

std::vector<StatementId> PostingIndex::StatementsUsingAnyTableSymbol(
    const std::vector<Symbol>& tables) const {
  std::vector<StatementId> out;
  if (tables.size() == 1) {
    out = StatementsUsingTableSymbol(tables[0]);
    return out;
  }
  size_t total = 0;
  for (Symbol t : tables) total += StatementsUsingTableSymbol(t).size();
  out.reserve(total);
  for (Symbol t : tables) {
    const std::vector<StatementId>& ids = StatementsUsingTableSymbol(t);
    out.insert(out.end(), ids.begin(), ids.end());
  }
  SortUnique(&out);
  return out;
}

const std::vector<StatementId>& PostingIndex::StatementsUsingAttribute(
    const std::string& relation, const std::string& attribute) const {
  Symbol qualified =
      GlobalInterner().Find(ToLower(relation) + "." + ToLower(attribute));
  if (qualified == kInvalidSymbol) return Empty<StatementId>();
  return Lookup(by_attribute, qualified);
}

const std::vector<StatementId>& PostingIndex::StatementsWithKeyword(
    const std::string& word) const {
  return StatementsWithKeywordSymbol(GlobalInterner().Find(ToLower(word)));
}

const std::vector<StatementId>& PostingIndex::StatementsWithKeywordSymbol(
    Symbol token) const {
  if (token == kInvalidSymbol) return Empty<StatementId>();
  return Lookup(by_keyword, token);
}

const std::vector<StatementId>& PostingIndex::StatementsWithSkeleton(
    uint64_t skeleton_fp) const {
  return Lookup(by_skeleton, skeleton_fp);
}

const std::vector<QueryId>& PostingIndex::ByUser(
    const std::string& user) const {
  auto it = by_user.find(user);
  return it == by_user.end() ? Empty<QueryId>() : it->second;
}

const std::vector<QueryId>& PostingIndex::RecordsOf(StatementId s) const {
  return s < records_of.size() ? records_of[s] : Empty<QueryId>();
}

std::vector<QueryId> PostingIndex::RecordsOf(
    const std::vector<StatementId>& statements) const {
  std::vector<QueryId> out;
  out.reserve(RecordCount(statements));
  for (StatementId s : statements) {
    const std::vector<QueryId>& ids = RecordsOf(s);
    out.insert(out.end(), ids.begin(), ids.end());
  }
  if (statements.size() > 1) std::sort(out.begin(), out.end());
  return out;
}

size_t PostingIndex::RecordCount(
    const std::vector<StatementId>& statements) const {
  size_t total = 0;
  for (StatementId s : statements) total += RecordsOf(s).size();
  return total;
}

// Out-of-line: ~map<..., unique_ptr<VisibilityCache>> needs the
// complete VisibilityCache.
ReadViewState::~ReadViewState() = default;

VisibilityCache& ReadViewState::CacheFor(const std::string& viewer) const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto key = std::make_pair(viewer, std::this_thread::get_id());
  std::unique_ptr<VisibilityCache>& slot = caches_[key];
  if (slot == nullptr) {
    slot = std::make_unique<VisibilityCache>(StoreView(*this), viewer);
  }
  return *slot;
}

VisibilityCache::VisibilityCache(const QueryStore* store, std::string viewer)
    : view_(*store), viewer_(std::move(viewer)) {}

bool VisibilityCache::AclVisible(QueryId id) const {
  // Invalidate-on-mutation: group memberships or per-query visibility
  // may have changed since the entries were memoized. (Frozen views
  // never bump their ACL epoch, so view-backed caches fill once.)
  uint64_t epoch = view_.acl().epoch();
  if (epoch != acl_epoch_) {
    acl_epoch_ = epoch;
    acl_ok_.clear();
    shares_group_.clear();
  }
  size_t idx = static_cast<size_t>(id);
  if (idx >= acl_ok_.size()) {
    acl_ok_.resize(view_.size(), kUnknown);
    // Find() never inserts; resolving here (not per candidate) keeps the
    // interner mutex off the hot path.
    viewer_symbol_ = GlobalInterner().Find(viewer_);
  }
  uint8_t cached = acl_ok_[idx];
  if (cached != kUnknown) {
    ++acl_hits_;
    return cached == kVisible;
  }
  ++acl_misses_;

  // Owner identity via the columns' interned Symbol — equality of ids is
  // equality of names, with no record-log touch.
  Symbol owner = view_.scoring().owner(id);
  bool visible = false;
  if (owner == viewer_symbol_ && owner != kInvalidSymbol) {
    visible = true;
  } else {
    switch (view_.acl().GetVisibility(id)) {
      case Visibility::kPrivate:
        visible = false;
        break;
      case Visibility::kPublic:
        visible = true;
        break;
      case Visibility::kGroup: {
        auto [it, inserted] = shares_group_.try_emplace(owner, false);
        if (inserted) {
          it->second = view_.acl().ShareGroup(
              viewer_, std::string(GlobalInterner().NameOf(owner)));
        }
        visible = it->second;
        break;
      }
    }
  }
  acl_ok_[idx] = visible ? kVisible : kHidden;
  return visible;
}

}  // namespace cqms::storage
