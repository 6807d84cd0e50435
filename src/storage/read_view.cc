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
  std::unique_ptr<VisibilityCache>& slot = caches_[viewer];
  if (slot == nullptr) {
    slot = std::make_unique<VisibilityCache>(StoreView(*this), viewer);
  }
  return *slot;
}

VisibilityCache::VisibilityCache(StoreView view, std::string viewer)
    : view_(view), viewer_(std::move(viewer)) {
  Reset();
}

VisibilityCache::VisibilityCache(const QueryStore* store, std::string viewer)
    : VisibilityCache(StoreView(*store), std::move(viewer)) {}

void VisibilityCache::Reset() const {
  acl_epoch_ = view_.acl().epoch();
  words_.reset();
  word_count_ = 0;
  Grow();
}

void VisibilityCache::Grow() const {
  resolved_size_ = view_.size();
  const size_t count = (resolved_size_ + kIdsPerWord - 1) / kIdsPerWord;
  if (count > word_count_) {
    // Value-initialized: every new entry unknown.
    std::unique_ptr<std::atomic<uint64_t>[]> grown(
        new std::atomic<uint64_t>[count]());
    for (size_t i = 0; i < word_count_; ++i) {
      grown[i].store(words_[i].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    }
    words_ = std::move(grown);
    word_count_ = count;
  }
  // Find() never inserts; resolving here (not per fill) keeps the
  // interner mutex off the hot path. A user whose name is not interned
  // owns no record yet, and the store grows before one of theirs can be
  // looked up.
  const AccessControl& acl = view_.acl();
  viewer_symbol_ = GlobalInterner().Find(viewer_);
  group_owners_.clear();
  if (!acl.GroupsOf(viewer_).empty()) {
    for (const auto& [user, groups] : acl.memberships()) {
      const Symbol owner = GlobalInterner().Find(user);
      if (owner != kInvalidSymbol && acl.ShareGroup(viewer_, user)) {
        group_owners_.push_back(owner);
      }
    }
    std::sort(group_owners_.begin(), group_owners_.end());
  }
}

uint64_t VisibilityCache::FillWord(size_t word) const {
  // Only the live store changes under a cache: a frozen view keeps its
  // epoch and size, so a cache over one writes nothing here but the
  // word.
  if (view_.acl().epoch() != acl_epoch_) {
    Reset();
  } else if (view_.size() != resolved_size_) {
    Grow();
  }
  const ScoringColumns& cols = view_.scoring();
  const AccessControl& acl = view_.acl();
  const size_t first = word * kIdsPerWord;
  const size_t end = std::min(first + kIdsPerWord, view_.size());
  uint64_t bits = 0;
  for (size_t id = first; id < end; ++id) {
    const QueryId qid = static_cast<QueryId>(id);
    // Owner identity via the columns' interned Symbol — equality of ids
    // is equality of names, with no record-log touch.
    const Symbol owner = cols.owner(qid);
    bool visible = false;
    if (owner == viewer_symbol_ && owner != kInvalidSymbol) {
      visible = true;
    } else {
      switch (acl.GetVisibility(qid)) {
        case Visibility::kPrivate:
          visible = false;
          break;
        case Visibility::kPublic:
          visible = true;
          break;
        case Visibility::kGroup:
          visible = std::binary_search(group_owners_.begin(),
                                       group_owners_.end(), owner);
          break;
      }
    }
    bits |= (visible ? kKnown | kVisible : kKnown) << ((id - first) * 2);
  }
  words_[word].store(bits, std::memory_order_relaxed);
  return bits;
}

}  // namespace cqms::storage
