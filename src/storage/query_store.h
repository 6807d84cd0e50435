#ifndef CQMS_STORAGE_QUERY_STORE_H_
#define CQMS_STORAGE_QUERY_STORE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/interner.h"
#include "common/result.h"
#include "db/database.h"
#include "storage/access_control.h"
#include "storage/epoch.h"
#include "storage/lsh_index.h"
#include "storage/query_record.h"
#include "storage/read_view.h"
#include "storage/record_log.h"
#include "storage/scoring_columns.h"
#include "storage/store_listener.h"

namespace cqms::storage {

/// The logging path that asks a QueryStore for a statement: the `path`
/// label (`profile`, `log_only`, `wal`, `rewrite`) of
/// cqms_statement_derivations_total and cqms_statement_reuses_total.
enum class StatementPath { kProfile, kLogOnly, kWal, kRewrite };

/// The CQMS Query Storage (Figure 4): an append-only log of profiled
/// queries with secondary indexes, plus the Figure-1 feature relations
/// materialized as tables of an embedded `db::Database` so that SQL
/// meta-queries run against them directly.
///
/// Feature relations (names as in the paper):
///   Queries(qid, qtext, usr, ts, exec_micros, result_rows, succeeded)
///   DataSources(qid, relname)
///   Attributes(qid, attrname, relname)
///   Predicates(qid, attrname, relname, op, const_val)
///
/// Thread model (docs/concurrency.md): the store itself is
/// single-writer — all mutators run on one thread. Concurrent readers
/// never touch the live structures; they execute against immutable
/// published ReadViewState snapshots instead, acquired lock-free via
/// PinView() after EnableViews() and retired through epoch-based
/// reclamation. With views disabled (the default) nothing is published
/// and the store behaves exactly as the single-threaded original.
///
/// A published view shares the store's five read-path parts (record
/// log, posting lists, scoring columns, LSH index, ACL); the writer
/// copies a part on its first change to it after a publish. So a
/// reference or iterator into a part (records(), postings(), ...) is
/// good only until the next mutation: writer-side loops that mutate
/// iterate by id instead.
class QueryStore {
 public:
  /// `lsh_params` sets the MinHash/LSH banding (recall/cost knob) of the
  /// sketch index; the default targets high recall at moderate Jaccard
  /// (see LshParams).
  explicit QueryStore(LshParams lsh_params = {});

  // Not copyable: indexes hold ids into the record log.
  QueryStore(const QueryStore&) = delete;
  QueryStore& operator=(const QueryStore&) = delete;

  /// Appends a record, assigning its id, finalizing its similarity
  /// signature (the output summary is attached by the profiler after
  /// BuildRecordFromText, so the signature is recomputed here) and
  /// updating every index, the scoring columns and the feature
  /// relations. A record whose Statement equals one already stored is
  /// pointed at that one, so the store holds each distinct statement
  /// once. Returns the id.
  QueryId Append(QueryRecord record);

  /// Points `record` at a live statement whose text is exactly `text`,
  /// and sets the record's fingerprint, so the run skips the parse,
  /// canonicalization, components and interning that BuildRecordFromText
  /// would redo. Only a statement that parsed and carries an interned
  /// signature qualifies, never a text-only one. Any such statement will
  /// do: only its text-derived fields are reused, and Append folds in the
  /// record's own output part (cloning the statement only when that part
  /// differs). Returns false, leaving the record as it was, when none is
  /// live; the caller then derives the statement. Counts a reuse or a
  /// derivation under `path`. Writer thread only.
  bool ShareLiveStatement(std::string_view text, QueryRecord* record,
                          StatementPath path) const;

  /// A record of `text` by `user` at `timestamp` whose statement is a
  /// live one (ShareLiveStatement) or, for a text no live statement has,
  /// derived by BuildRecordFromText. Writer thread only.
  QueryRecord RecordForText(std::string text, std::string user,
                            Micros timestamp, StatementPath path) const;

  /// Pre-sizes the secondary-index hash tables, the LSH buckets and the
  /// scoring columns for a bulk restore of `records` records over about
  /// `statements` distinct statements referencing `symbols` distinct
  /// signature Symbols — incremental rehashing while a snapshot streams
  /// in costs a measurable slice of cold-start.
  void ReserveForRestore(size_t records, size_t statements, size_t symbols);

  /// Bulk-restore entry for the binary snapshot loader: appends a fully
  /// materialized record — signature, fingerprints, components all
  /// trusted exactly as stored — rebuilding only the indexes (the LSH
  /// entry sketches the stored signature) and the scoring columns
  /// (feature relations defer, as on every path; see feature_db()).
  /// Never tokenizes or parses, and never notifies the listener (a
  /// restore is not a new mutation); the only interner touches are
  /// resolving the owner name for the scoring columns and the sketch's
  /// keyword-exclusion lookups.
  /// Callers are responsible for the record being internally
  /// consistent (LoadSnapshot's CRC framing), and it must carry a
  /// computed, interned signature: every stored record does (Append
  /// computes one), and the read path scores records through it. The
  /// snapshot loader rejects an image whose statement lacks one, and
  /// WAL replay builds each record from its text.
  /// `run_strings_shared` says the record's error and plan already are
  /// the store's copies (a snapshot record that copied a statement
  /// entry ShareRunStrings has seen), so they skip the lookup.
  QueryId RestoreAppend(QueryRecord record, bool run_strings_shared = false);

  /// Registers a mutation observer (the write-ahead log, the miner's
  /// ChangeTracker). One registration covers the store and its
  /// AccessControl. Listeners fire after each successful durable
  /// mutation, in registration order — see StoreListener. Registering
  /// the same listener twice is a no-op.
  void AddListener(StoreListener* listener);

  /// Detaches a previously registered listener (no-op when absent).
  void RemoveListener(StoreListener* listener);

  /// Good until the next mutation: a write may copy the record's chunk.
  const QueryRecord* Get(QueryId id) const;
  /// Writer-side mutable access. When read views are enabled and a
  /// published view still shares the record's chunk of the log, the
  /// chunk is copied first (copy-on-write, see RecordLog) so readers of
  /// the old view keep an unchanged record — and before that the log's
  /// directory, when the view shares it; with views disabled this is
  /// plain access, no copies. The copies share each record's Statement,
  /// strings and lists; edit the statement only through the store's
  /// mutators, which re-point the record, and replace a list whole. The
  /// pointer is good until the next mutation.
  QueryRecord* GetMutable(QueryId id);
  size_t size() const { return records_->size(); }
  /// Distinct Statements the live records share (each record holds one;
  /// records with equal statements hold the same one).
  size_t statement_count() const { return statements_.size(); }
  /// Good until the next mutation (see the class comment).
  const RecordLog& records() const { return *records_; }

  /// Largest timestamp ever appended (0 when empty). Maintained by
  /// Append so ranking paths (kNN recency boost) need no log scan.
  Micros max_timestamp() const { return max_timestamp_; }

  // --- secondary indexes ---------------------------------------------------
  // The feature posting lists and the LSH index hold StatementIds (see
  // PostingIndex); the record-id lookups below expand them to ascending
  // record ids. Table and attribute lists are keyed by the interned
  // Symbol of the (lower-case) table / "rel.attr" name — the same ids
  // the similarity signatures carry — so index maintenance reuses the
  // signature's interning work and the meta-query planner intersects
  // posting lists without hashing a single string.

  /// The statement-keyed posting lists and statement -> records lists.
  const PostingIndex& postings() const { return *postings_; }

  /// Ids of queries whose FROM (at any nesting level) references `table`.
  std::vector<QueryId> QueriesUsingTable(const std::string& table) const;

  /// Ids of queries referencing relation.attribute.
  std::vector<QueryId> QueriesUsingAttribute(
      const std::string& relation, const std::string& attribute) const;

  const std::vector<QueryId>& QueriesByUser(const std::string& user) const;

  /// Ids of queries whose text contains `word` (lower-cased token).
  std::vector<QueryId> QueriesWithKeyword(const std::string& word) const;

  /// The sketch index itself (band/row introspection, lifecycle tests).
  const LshIndex& lsh() const { return *lsh_; }

  /// How many logged queries share this exact canonical fingerprint —
  /// the popularity count used by ranking functions (read from the
  /// scoring columns' per-fingerprint counts).
  uint64_t PopularityOf(uint64_t fingerprint) const;

  /// Columnar copies of the hot scoring fields (per record: flags,
  /// quality, timestamp, owner, statement id; per statement: popularity
  /// slot, packed signature spans, lowered text), maintained through
  /// every mutation path. The meta-query scoring loop reads candidates
  /// from here instead of the record deque.
  const ScoringColumns& scoring() const { return *scoring_; }

  /// Rebuilds the scoring-column arenas, dropping the runs of statements
  /// released by rewrites and output refreshes; returns bytes
  /// reclaimed. Spans and string_views previously handed out by
  /// scoring() are invalidated (like a rehash). Maintenance invokes this
  /// when arena_garbage() crosses its threshold. With views enabled it
  /// republishes (once per ScopedPublishBatch), so no view keeps the
  /// uncompacted columns alive beside the live ones; it is not a
  /// mutation (mutation_count() stays).
  size_t CompactScoringArenas();

  // --- record mutation -------------------------------------------------------

  Status Annotate(QueryId id, Annotation annotation);

  /// Rewrites the SQL text of an existing record (used by automatic
  /// query repair after schema evolution, §4.4). Parse-derived fields,
  /// the similarity signature and feature-relation rows are rebuilt;
  /// user, timestamp, stats, output summary, session and annotations are
  /// preserved, and so are the signature's output-row hashes (refolded
  /// from the summary, or kept as restored when the record has none).
  /// The record moves to the new text's Statement; records sharing its
  /// old one keep it. The old statement leaves the indexes with its last
  /// record, so index lookups never return the record under features it
  /// no longer has.
  Status RewriteQueryText(QueryId id, const std::string& new_text);
  Status AddFlag(QueryId id, QueryFlags flag);
  Status ClearFlag(QueryId id, QueryFlags flag);
  Status SetSession(QueryId id, SessionId session);
  Status SetQuality(QueryId id, double quality);

  /// Recomputes the output-derived signature fields of `id` from its
  /// current summary and re-points the record at the matching statement
  /// (indexes and scoring columns follow). Callers that replace a
  /// record's output summary in place (maintenance stats refresh) must
  /// use this instead of calling UpdateOutputSignature on the record
  /// directly, or the columnar copy goes stale.
  Status SyncOutputSignature(QueryId id);

  /// Points the error and plan of `id` at the store's copies of equal
  /// strings, whatever statement holds them; otherwise its own become
  /// the ones later runs share. Its summary's lists are shared with its
  /// statement's latest other run like a stored run's (see
  /// ShareSummary). Every path that stores or re-points a record does
  /// this itself; callers that replace a record's stats or summary in
  /// place through GetMutable (maintenance stats refresh) call it after
  /// the edit. An in-place stats edit is refreshable state, so no
  /// listener fires (see StoreListener).
  Status ShareRunStrings(QueryId id);

  /// Points `record`'s error and plan at the store's copies of equal
  /// strings; a non-empty value no copy equals becomes one. For a
  /// record not yet stored (the snapshot loader's statement entries).
  void ShareRunStrings(QueryRecord* record);

  /// Lookups the store's error-and-plan table has made (see
  /// ShareRunStrings), for tests and benchmarks.
  uint64_t run_string_lookups() const { return run_strings_.lookups(); }

  /// Restore-grade variant for WAL replay: sets the output-derived
  /// signature fields directly — the summary they were computed from is
  /// not persisted — and re-points the record like SyncOutputSignature.
  /// Never notifies the listener.
  Status RestoreOutputSignature(QueryId id, std::vector<uint64_t> output_rows,
                                bool output_empty_computed);

  /// Tombstones a query (owner or admin action, §2.4). The record stays
  /// for audit but disappears from all visible scans.
  Status Delete(QueryId id, const std::string& requester, bool is_admin = false);

  // --- visibility ----------------------------------------------------------------

  /// Writer-side: the live ACL, copied first when a published view
  /// shares it. Read through a const store.
  AccessControl& acl() { return Own(&acl_, kAclPart); }
  const AccessControl& acl() const { return *acl_; }

  /// True when `viewer` may see query `id` (not deleted, ACL passes).
  bool Visible(const std::string& viewer, QueryId id) const;

  /// The memoizing visibility cache for `viewer` on the calling thread
  /// — the live-path counterpart of ReadViewState::CacheFor, so
  /// repeated reads (MetaQueryExecutor with views disabled) keep their
  /// ACL decisions warm across calls instead of re-deriving them per
  /// query. Pooled per (viewer, thread), because the live store changes
  /// under its caches: each refills a word the store has grown into and
  /// starts over on an ACL epoch change, so mutations between reads are
  /// safe. The mutex guards only the pool lookup.
  VisibilityCache& CacheFor(const std::string& viewer) const;

  // --- concurrent read views (docs/concurrency.md) -------------------------

  /// Turns on the epoch-published read-view pipeline and publishes the
  /// first view immediately. From here on, every applied mutation
  /// republishes a fresh immutable snapshot for readers (once per
  /// ScopedPublishBatch while one is active). Calling again just
  /// republishes. Single-writer: call from the writer thread.
  void EnableViews();

  bool views_enabled() const { return views_enabled_; }

  /// Forces a publish of the current state now (writer thread only;
  /// no-op until EnableViews). O(1): the view shares every part with
  /// the store, and each part is copied on the writer's first change
  /// to it afterwards.
  void PublishView();

  /// Lock-free reader entry point: pins the current published view for
  /// the handle's lifetime. Scope it to one meta-query execution — a
  /// held pin blocks reclamation of every view retired after it. Null
  /// handle iff views were never enabled. Safe from any thread.
  PinnedView PinView() const;

  /// Refcounted handle on the current published view, for long-lived
  /// consumers (checkpoint backups, mining cycles): keeps exactly this
  /// view alive without blocking epoch reclamation of later ones. Null
  /// iff views were never enabled. Safe from any thread.
  std::shared_ptr<const ReadViewState> SharedView() const;

  /// Sequence number of the latest published view (0 = none yet).
  /// Safe from any thread.
  uint64_t published_sequence() const {
    return published_sequence_.load(std::memory_order_relaxed);
  }

  /// Total mutations applied (appends, rewrites, flags, ACL changes...);
  /// the prefix-consistency stamp carried by each published view.
  uint64_t mutation_count() const { return mutations_; }

  /// Defers view publication for its scope (nestable): background
  /// cycles that apply hundreds of small mutations wrap themselves in
  /// one of these so readers see a single atomic republish at the end,
  /// and each part they touch is copied once instead of once per
  /// mutation.
  class ScopedPublishBatch {
   public:
    explicit ScopedPublishBatch(QueryStore* store) : store_(store) {
      ++store_->publish_batch_depth_;
    }
    ~ScopedPublishBatch() {
      if (--store_->publish_batch_depth_ == 0 && store_->views_enabled_ &&
          store_->unpublished_mutations_ > 0) {
        store_->PublishView();
      }
    }
    ScopedPublishBatch(const ScopedPublishBatch&) = delete;
    ScopedPublishBatch& operator=(const ScopedPublishBatch&) = delete;

   private:
    QueryStore* store_;
  };

  // --- feature relations -----------------------------------------------------------

  /// The embedded database holding the feature relations; execute SQL
  /// meta-queries against it (Figure 1). Every store defers the rows:
  /// they are materialized from the current records on first access, so
  /// logging, restores and replays pay for the SQL meta-query surface
  /// only once it is used, and appends and rewrites maintain them
  /// incrementally from then on.
  const db::Database& feature_db() const {
    if (feature_rows_lazy_) MaterializeFeatureRows();
    return feature_db_;
  }

 private:
  /// Internal StoreListener registered on acl_ by EnableViews so ACL
  /// mutations (AddUser, SetVisibility) tick the publication counter
  /// like record mutations do.
  class AclViewTick;

  /// One live distinct Statement; its records are
  /// postings_.records_of[id].
  struct StatementEntry {
    std::shared_ptr<Statement> statement;
    StatementId id = 0;
  };
  /// See statements_.
  using SharingTable =
      std::unordered_multimap<std::string_view, StatementEntry>;

  /// Shared tail of Append / RestoreAppend (and so of WAL replay and
  /// follower apply): assigns the id, points the record at the shared
  /// equal Statement (ShareStatement), its run strings at the store's
  /// copies (unless `run_strings_shared`), its summary's lists at its
  /// statement's (ShareSummary) and its owner name at its owner's copy,
  /// stores it and rebuilds every derived structure from it.
  QueryId FinishAppend(QueryRecord record, bool run_strings_shared);
  /// Points `record` at the live Statement equal to its own, or enters
  /// its own into the sharing table (with a fresh id, indexed) when
  /// there is none; adds the record to the statement's records and
  /// popularity count. Returns the statement's id.
  StatementId ShareStatement(QueryRecord* record);
  /// Points `record`'s summary column names and sample rows each at the
  /// list of the latest other run of `statement` (the record's) when
  /// that list is exactly equal: the same length, and cells of the same
  /// type with equal ints, strings and bools and bit-equal doubles. So
  /// the runs of a statement whose output does not change hold one copy
  /// of it. The record's total_rows, complete and budget_rows stay its
  /// own.
  void ShareSummary(QueryRecord* record, StatementId statement);
  /// The sharing-table entry holding exactly `statement`, or end().
  SharingTable::iterator EntryOf(const Statement& statement);
  /// Re-shares live record `record` after an edit moved it off `before`,
  /// the statement it held: removes it from `before`'s records (when it
  /// was the last one, unindexes the statement, frees its id and drops
  /// the entry), then ShareStatement and re-points the scoring row.
  /// `before` must still be in the table, which keeps it alive until
  /// here.
  void Reshare(QueryRecord* record, const Statement& before);
  /// Mirrors records_->size() and statements_.size() into the
  /// cqms_store_records / cqms_store_statements gauges.
  void UpdateSharingGauges() const;
  /// Bumps the mutation counter and PublishChange()s. Called at the end
  /// of every successful state-changing mutation.
  void MutationTick();
  /// When views are enabled, republishes, or marks the batch that is
  /// active as having something to publish.
  void PublishChange();
  /// Adds statement `id` to every feature-derived index and packs its
  /// scoring row; the LSH entry is keyed by
  /// ComputeMinHashSketch(statement.signature). `record` is the
  /// statement's first record (its fingerprint names the popularity
  /// slot).
  void IndexStatement(StatementId id, const QueryRecord& record);
  /// Removes statement `id` from every feature-derived index (tables,
  /// attributes, keywords, skeleton, LSH), re-deriving the sketch it was
  /// indexed under, and releases its scoring row.
  void UnindexStatement(StatementId id, const Statement& statement);
  void InsertFeatureRows(const QueryRecord& record) const;
  /// Builds every feature-relation row from the current records, on the
  /// first feature_db() call.
  void MaterializeFeatureRows() const;
  /// Slot of `fingerprint` in the scoring columns' popularity counts,
  /// creating one on first sight. kNoPopularitySlot for parse failures.
  uint32_t PopularitySlotFor(const QueryRecord& record);

  /// The read-path parts, one bit each in shared_parts_.
  enum Part : uint8_t {
    kRecordsPart = 1u << 0,
    kPostingsPart = 1u << 1,
    kScoringPart = 1u << 2,
    kLshPart = 1u << 3,
    kAclPart = 1u << 4,
    kAllParts = 0x1F,
  };
  /// The writer's own copy of `*part`: copies it first when the latest
  /// published view shares it, so that view's readers keep the part as
  /// it was; later writes until the next publish go in place. Every
  /// write to a part goes through here.
  template <typename T>
  T& Own(std::shared_ptr<T>* part, Part bit) {
    if ((shared_parts_ & bit) != 0) {
      *part = std::make_shared<T>(**part);
      shared_parts_ = static_cast<uint8_t>(shared_parts_ & ~bit);
    }
    return **part;
  }
  RecordLog& OwnRecords() { return Own(&records_, kRecordsPart); }
  PostingIndex& OwnPostings() { return Own(&postings_, kPostingsPart); }
  ScoringColumns& OwnScoring() { return Own(&scoring_, kScoringPart); }
  LshIndex& OwnLsh() { return Own(&lsh_, kLshPart); }

  std::shared_ptr<RecordLog> records_ = std::make_shared<RecordLog>();
  std::shared_ptr<AccessControl> acl_ = std::make_shared<AccessControl>();
  /// Mutable alongside feature_rows_lazy_: the const feature_db()
  /// accessor materializes deferred rows on first use.
  mutable db::Database feature_db_;
  mutable bool feature_rows_lazy_ = true;
  /// The four feature relations, resolved once at construction —
  /// InsertFeatureRows appends ~a dozen rows per logged query, and the
  /// per-insert name lowering + catalog lookup showed up in the
  /// snapshot-restore profile.
  db::Table* queries_table_ = nullptr;
  db::Table* datasources_table_ = nullptr;
  db::Table* attributes_table_ = nullptr;
  db::Table* predicates_table_ = nullptr;
  Micros max_timestamp_ = 0;

  /// The sharing table: every live record's Statement, keyed by its
  /// text (a view of the entry's own statement's text), so
  /// ShareLiveStatement finds a text's statements without building one.
  /// Statements with one text but different output parts are separate
  /// entries; ShareStatement tells them apart by exact field equality
  /// (Statement::operator==). Published views may still hold statements
  /// whose entry is gone (their records keep them alive).
  SharingTable statements_;
  /// Ids of released statements, reused (last freed first) before new
  /// ids are minted.
  std::vector<StatementId> free_statement_ids_;
  /// One copy of each error and plan the records hold, across
  /// statements (see ShareRunStrings).
  SharedStringTable run_strings_;

  /// The feature posting lists (see PostingIndex for keying).
  std::shared_ptr<PostingIndex> postings_ = std::make_shared<PostingIndex>();
  std::unordered_map<uint64_t, uint32_t> pop_slot_of_;
  std::shared_ptr<LshIndex> lsh_;
  std::shared_ptr<ScoringColumns> scoring_ =
      std::make_shared<ScoringColumns>();
  /// Registration-ordered; tiny (the WAL plus the miner's tracker), so
  /// a vector scan beats any indexed structure.
  std::vector<StoreListener*> listeners_;

  /// Live-path visibility-cache pool (CacheFor), keyed by viewer and
  /// thread.
  mutable std::mutex cache_mu_;
  mutable std::map<std::pair<std::string, std::thread::id>,
                   std::unique_ptr<VisibilityCache>>
      caches_;

  // --- read-view publication state (writer-side unless noted) ------------
  bool views_enabled_ = false;
  /// Parts the latest published view shares with the store (Part
  /// bits): PublishView sets them all, Own clears one as it copies the
  /// part. Writer-side bits rather than use_count(), which races with
  /// readers dropping views on other threads.
  uint8_t shared_parts_ = 0;
  /// Total successful mutations (records + ACL); stamped into views.
  uint64_t mutations_ = 0;
  uint64_t unpublished_mutations_ = 0;
  int publish_batch_depth_ = 0;
  uint64_t view_sequence_ = 0;
  std::unique_ptr<StoreListener> acl_view_tick_;
  /// Reader-shared: the reclamation domain readers pin through the
  /// const PinView(), hence mutable.
  mutable EpochDomain view_epochs_;
  /// Guards view_owner_ (the publish swap vs SharedView copies).
  mutable std::mutex view_owner_mu_;
  /// Owning reference keeping the current published view alive.
  std::shared_ptr<const ReadViewState> view_owner_;
  /// The lock-free publication point readers load after pinning.
  std::atomic<const ReadViewState*> published_view_{nullptr};
  std::atomic<uint64_t> published_sequence_{0};
};

// StoreView members that need the complete QueryStore (declared in
// read_view.h). Each resolves its part through the store or the view
// on every call.

inline const PostingIndex& StoreView::postings() const {
  return view_ != nullptr ? view_->postings() : store_->postings();
}

inline const ScoringColumns& StoreView::scoring() const {
  return view_ != nullptr ? view_->scoring() : store_->scoring();
}

inline const LshIndex& StoreView::lsh() const {
  return view_ != nullptr ? view_->lsh() : store_->lsh();
}

inline const AccessControl& StoreView::acl() const {
  return view_ != nullptr ? view_->acl() : store_->acl();
}

inline const QueryRecord* StoreView::Get(QueryId id) const {
  return view_ != nullptr ? view_->Get(id) : store_->Get(id);
}

inline size_t StoreView::size() const {
  return view_ != nullptr ? view_->size() : store_->size();
}

inline Micros StoreView::max_timestamp() const {
  return view_ != nullptr ? view_->max_timestamp() : store_->max_timestamp();
}

}  // namespace cqms::storage

#endif  // CQMS_STORAGE_QUERY_STORE_H_
