#ifndef CQMS_STORAGE_READ_VIEW_H_
#define CQMS_STORAGE_READ_VIEW_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "storage/access_control.h"
#include "storage/epoch.h"
#include "storage/lsh_index.h"
#include "storage/query_record.h"
#include "storage/record_log.h"
#include "storage/scoring_columns.h"

namespace cqms::storage {

class QueryStore;
class ReadViewState;
class VisibilityCache;

/// The QueryStore's feature posting lists as one copyable value. The
/// store maintains the live instance through Append / Rewrite / output
/// refreshes; a published read view shares it, and the writer's first
/// change after a publish copies it wholesale, so every lookup below
/// works identically against the live store and a frozen view.
/// Symbol-keyed maps use the same interned ids the similarity
/// signatures carry (see QueryStore's index commentary).
///
/// Feature lists hold StatementIds: a statement is indexed once, when
/// it gains its first record, and unindexed when its last record moves
/// off. `records_of` expands a statement to its records (deleted ones
/// included: visibility filters them). `by_user` is per record.
struct PostingIndex {
  std::unordered_map<Symbol, std::vector<StatementId>> by_table;
  std::unordered_map<Symbol, std::vector<StatementId>> by_attribute;
  std::unordered_map<Symbol, std::vector<StatementId>> by_keyword;
  std::unordered_map<uint64_t, std::vector<StatementId>> by_skeleton;
  std::unordered_map<std::string, std::vector<QueryId>> by_user;
  /// Ascending ids of each statement's records; empty for ids no live
  /// statement holds.
  std::vector<std::vector<QueryId>> records_of;

  // Statement lookups; unknown keys (including kInvalidSymbol from
  // probing strings the interner never saw) return a shared empty list.
  const std::vector<StatementId>& StatementsUsingTable(
      const std::string& table) const;
  const std::vector<StatementId>& StatementsUsingTableSymbol(
      Symbol table) const;
  /// Sorted, deduplicated union over `tables` — kNN candidate
  /// generation.
  std::vector<StatementId> StatementsUsingAnyTableSymbol(
      const std::vector<Symbol>& tables) const;
  const std::vector<StatementId>& StatementsUsingAttribute(
      const std::string& relation, const std::string& attribute) const;
  const std::vector<StatementId>& StatementsWithKeyword(
      const std::string& word) const;
  const std::vector<StatementId>& StatementsWithKeywordSymbol(
      Symbol token) const;
  const std::vector<StatementId>& StatementsWithSkeleton(
      uint64_t skeleton_fp) const;

  const std::vector<QueryId>& ByUser(const std::string& user) const;
  /// The records of statement `s` (empty for an unknown id).
  const std::vector<QueryId>& RecordsOf(StatementId s) const;
  /// Ascending ids of every record of `statements` (a statement's
  /// records belong to no other, so the expansion has no duplicates).
  std::vector<QueryId> RecordsOf(
      const std::vector<StatementId>& statements) const;
  /// RecordsOf(statements).size(), without materializing it.
  size_t RecordCount(const std::vector<StatementId>& statements) const;
};

/// Uniform read facade over either the live QueryStore or a published
/// ReadViewState, with the accessor names the meta-query planner uses —
/// the planner's one scoring pipeline serves both the single-threaded
/// live path and concurrent readers without branching per call site.
/// Cheap to copy (two raw pointers); does not own or pin anything — the
/// caller keeps the underlying store or view alive (typically via a
/// PinnedView on the read path).
///
/// Every accessor resolves its part through the store or view on each
/// call and never caches a part's address: the live store replaces a
/// part with a copy on the writer's first change to it after a publish,
/// so an address taken before a write may belong to a part only a
/// retired view still holds (see QueryStore::PublishView).
class StoreView {
 public:
  StoreView() = default;
  explicit StoreView(const QueryStore& store) : store_(&store) {}
  explicit StoreView(const ReadViewState& view) : view_(&view) {}

  // Defined in query_store.h (they need the complete QueryStore).
  const PostingIndex& postings() const;
  const ScoringColumns& scoring() const;
  const LshIndex& lsh() const;
  const AccessControl& acl() const;
  const QueryRecord* Get(QueryId id) const;
  size_t size() const;
  Micros max_timestamp() const;

  /// The live store behind this facade, or null when it wraps a view.
  const QueryStore* live_store() const { return store_; }
  /// The frozen view behind this facade, or null when it wraps the
  /// live store.
  const ReadViewState* view() const { return view_; }

 private:
  const QueryStore* store_ = nullptr;
  const ReadViewState* view_ = nullptr;
};

/// One published, immutable snapshot of everything the read path
/// touches: the record log, the scoring columns, the posting lists, the
/// LSH index and the ACL. Built by QueryStore::PublishView on the writer
/// thread, it holds each part through a shared_ptr to the very object
/// the live store held at the publish: publishing copies five pointers,
/// and the writer copies a part only on its first change to it after
/// the publish (the record log's chunks are shared with the store as
/// well, copy-on-write per chunk). After publication nothing a view
/// reaches is ever mutated (the per-viewer visibility caches below are
/// thread-safe memoization, not state), so any number of readers may
/// execute meta-queries against it concurrently with zero coordination.
/// Lifetime: the store keeps the latest view alive and retires
/// predecessors through epoch-based reclamation (see EpochDomain);
/// long-lived consumers hold a shared_ptr instead
/// (QueryStore::SharedView).
///
/// Not in the snapshot: the feature-relation database (SQL meta-queries
/// stay a live-store feature — see MetaQueryExecutor::Sql) and query
/// re-execution for query-by-data with `reexecute_on` set.
class ReadViewState {
 public:
  ReadViewState() = default;
  ~ReadViewState();
  ReadViewState(const ReadViewState&) = delete;
  ReadViewState& operator=(const ReadViewState&) = delete;

  /// Publish sequence number (1 = the first view the store published).
  uint64_t sequence() const { return sequence_; }
  /// Store mutations applied when this view was published — the
  /// prefix-consistency stamp the stress oracle replays to.
  uint64_t mutations() const { return mutations_; }

  size_t size() const { return records_->size(); }
  const RecordLog& records() const { return *records_; }
  const QueryRecord* Get(QueryId id) const {
    if (id < 0 || static_cast<size_t>(id) >= records_->size()) return nullptr;
    return &(*records_)[static_cast<size_t>(id)];
  }
  Micros max_timestamp() const { return max_timestamp_; }
  const PostingIndex& postings() const { return *postings_; }
  const ScoringColumns& scoring() const { return *scoring_; }
  const LshIndex& lsh() const { return *lsh_; }
  const AccessControl& acl() const { return *acl_; }

  /// The memoizing visibility cache for `viewer`, one per viewer and
  /// shared by every thread that serves them (see VisibilityCache); the
  /// mutex guards only the pool lookup, never the scoring loop. Caches
  /// live as long as the view and stay warm across every query against
  /// it; the view's ACL is frozen, so they never self-invalidate.
  VisibilityCache& CacheFor(const std::string& viewer) const;

 private:
  friend class QueryStore;

  uint64_t sequence_ = 0;
  uint64_t mutations_ = 0;
  Micros max_timestamp_ = 0;
  std::shared_ptr<const RecordLog> records_;
  std::shared_ptr<const PostingIndex> postings_;
  std::shared_ptr<const ScoringColumns> scoring_;
  std::shared_ptr<const LshIndex> lsh_;
  std::shared_ptr<const AccessControl> acl_;

  mutable std::mutex cache_mu_;
  mutable std::map<std::string, std::unique_ptr<VisibilityCache>> caches_;
};

/// RAII handle of one pinned published view: holds an EpochDomain slot
/// for its lifetime, which guarantees the view (and everything it
/// references) stays allocated while the reader executes against it.
/// Acquire via QueryStore::PinView — lock-free, a few atomic ops —
/// scope it to one meta-query execution, and let it unpin on
/// destruction. A pinned slot blocks reclamation of every later-retired
/// view too, so long-running consumers (miner cycles, checkpoint
/// backups) should hold QueryStore::SharedView instead.
class PinnedView {
 public:
  PinnedView() = default;
  PinnedView(EpochDomain* domain, size_t slot, const ReadViewState* view)
      : domain_(domain), slot_(slot), view_(view) {}
  PinnedView(PinnedView&& other) noexcept
      : domain_(other.domain_), slot_(other.slot_), view_(other.view_) {
    other.domain_ = nullptr;
    other.view_ = nullptr;
  }
  PinnedView& operator=(PinnedView&& other) noexcept {
    if (this != &other) {
      Release();
      domain_ = other.domain_;
      slot_ = other.slot_;
      view_ = other.view_;
      other.domain_ = nullptr;
      other.view_ = nullptr;
    }
    return *this;
  }
  PinnedView(const PinnedView&) = delete;
  PinnedView& operator=(const PinnedView&) = delete;
  ~PinnedView() { Release(); }

  const ReadViewState* get() const { return view_; }
  const ReadViewState& operator*() const { return *view_; }
  const ReadViewState* operator->() const { return view_; }
  explicit operator bool() const { return view_ != nullptr; }

 private:
  void Release() {
    if (domain_ != nullptr) domain_->Unpin(slot_);
    domain_ = nullptr;
    view_ = nullptr;
  }

  EpochDomain* domain_ = nullptr;
  size_t slot_ = 0;
  const ReadViewState* view_ = nullptr;
};

/// Memoizes one viewer's visibility decisions over one StoreView (live
/// store or frozen view) at 2 bits per record, in 64-bit words of 32
/// ids. A lookup whose entry is unknown fills its whole word: the 32
/// ACL decisions come from the scoring columns' owner column, the ACL's
/// visibility column and the viewer's per-owner group test, and land
/// with one store. The deleted tombstone is re-read from the scoring
/// columns on every call, so deletions take effect immediately.
/// Semantics match QueryStore::Visible exactly.
///
/// Over a frozen view a fill is a pure function of the view, so one
/// cache serves every thread (ReadViewState::CacheFor keeps one per
/// viewer): the words are relaxed atomics, and two threads that race
/// on a word store the same value. Over the live store a cache belongs
/// to one thread at a time (QueryStore::CacheFor pools them per
/// (viewer, thread); browse keeps one call-local). Each call compares
/// the ACL epoch against the one the words were filled under and starts
/// over on a mismatch, so a viewer whose group membership changed is
/// re-checked from scratch; a word filled while the store was shorter
/// is refilled once a lookup reaches an id it did not cover. The cache
/// holds no counters: each caller tallies its own hits and misses.
class VisibilityCache {
 public:
  /// One caller's lookups: a hit found its entry filled, a miss filled
  /// the entry's word.
  struct Tally {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  VisibilityCache(StoreView view, std::string viewer);

  /// Compatibility constructor over the live store; defined in
  /// read_view.cc (needs the complete QueryStore).
  VisibilityCache(const QueryStore* store, std::string viewer);

  /// True when the viewer may see `record` (not deleted, ACL passes).
  bool Visible(const QueryRecord& record) const {
    if (record.HasFlag(kFlagDeleted)) return false;
    Tally unused;
    return AclVisible(static_cast<size_t>(record.id), &unused);
  }

  /// Columnar variant for an id of the backing store: reads the
  /// tombstone flag from the scoring columns instead of the record
  /// struct — the scoring-loop fast path. A deleted id counts in
  /// neither tally.
  bool VisibleId(QueryId id, Tally* tally) const {
    if ((view_.scoring().flags(id) & kFlagDeleted) != 0) return false;
    return AclVisible(static_cast<size_t>(id), tally);
  }
  bool VisibleId(QueryId id) const {
    Tally unused;
    return VisibleId(id, &unused);
  }

  const std::string& viewer() const { return viewer_; }

 private:
  // One record's 2-bit entry: 0 while unknown, else kKnown, plus
  // kVisible when the ACL passes.
  static constexpr uint64_t kKnown = 1, kVisible = 2;
  static constexpr size_t kIdsPerWord = 32;

  bool AclVisible(size_t id, Tally* tally) const {
    const size_t word = id / kIdsPerWord;
    const unsigned shift = static_cast<unsigned>(id % kIdsPerWord) * 2;
    if (view_.acl().epoch() == acl_epoch_ && word < word_count_) {
      const uint64_t entry =
          words_[word].load(std::memory_order_relaxed) >> shift;
      if ((entry & kKnown) != 0) {
        ++tally->hits;
        return (entry & kVisible) != 0;
      }
    }
    ++tally->misses;
    return ((FillWord(word) >> shift) & kVisible) != 0;
  }

  /// Fills word `word` and returns it; on the live store first starts
  /// over after an ACL change (Reset) or catches up with appends (Grow).
  uint64_t FillWord(size_t word) const;
  /// Drops every entry and Grows under the current ACL epoch.
  void Reset() const;
  /// Covers the backing store's records, keeping the filled words, and
  /// resolves the viewer's Symbol and group test again.
  void Grow() const;

  StoreView view_;
  std::string viewer_;
  // Written only by the constructor and, on the live store, by the one
  // thread that holds the cache; over a view, after construction only
  // the words change.
  /// ACL epoch the words were filled under.
  mutable uint64_t acl_epoch_ = 0;
  /// The viewer's interned Symbol (kInvalidSymbol when the viewer never
  /// authored a logged query) — lets the owner check compare one u32
  /// against the owner column instead of touching the record log for a
  /// string compare.
  mutable Symbol viewer_symbol_ = kInvalidSymbol;
  /// Sorted Symbols of the owners that share a group with the viewer:
  /// the per-owner group test of kGroup records.
  mutable std::vector<Symbol> group_owners_;
  /// Records of the backing store when the Symbols were resolved.
  mutable size_t resolved_size_ = 0;
  mutable std::unique_ptr<std::atomic<uint64_t>[]> words_;
  mutable size_t word_count_ = 0;
};

}  // namespace cqms::storage

#endif  // CQMS_STORAGE_READ_VIEW_H_
