#include "storage/query_store.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "common/clock.h"
#include "common/hash.h"
#include "common/sorted_vector.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "storage/minhash.h"
#include "storage/record_builder.h"

namespace cqms::storage {

namespace {

using db::ColumnDef;
using db::TableSchema;
using db::Value;
using db::ValueType;

// Per-path derivation and reuse counters, resolved once per process.
struct StatementPathSeries {
  obs::Counter* derivations;
  obs::Counter* reuses;
};

StatementPathSeries MakeSeries(const char* label) {
  auto& reg = obs::MetricsRegistry::Global();
  const std::string tag = std::string("{path=\"") + label + "\"}";
  return {reg.GetCounter("cqms_statement_derivations_total" + tag),
          reg.GetCounter("cqms_statement_reuses_total" + tag)};
}

const StatementPathSeries& SeriesFor(StatementPath path) {
  static const StatementPathSeries series[4] = {
      MakeSeries("profile"), MakeSeries("log_only"), MakeSeries("wal"),
      MakeSeries("rewrite")};
  return series[static_cast<int>(path)];
}

// Exact equality of two output cells: the same type and the same int,
// string or bool, or bit-equal doubles. Stricter than Value's ==, which
// equates 1 with 1.0 (and -0.0 with 0.0).
bool SameCell(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt:
      return a.AsInt() == b.AsInt();
    case ValueType::kDouble: {
      const double x = a.AsDouble(), y = b.AsDouble();
      return std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    case ValueType::kString:
      return a.AsString() == b.AsString();
    case ValueType::kBool:
      return a.AsBool() == b.AsBool();
  }
  return false;
}

bool SameRow(const db::Row& a, const db::Row& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), SameCell);
}

// Points `*mine` at `theirs` when the two lists hold equal items (and
// are not one copy already).
template <typename T, typename Equal>
void ShareEqualList(SharedList<T>* mine, const SharedList<T>& theirs,
                    Equal equal) {
  if (mine->empty() || mine->begin() == theirs.begin() ||
      mine->size() != theirs.size() ||
      !std::equal(mine->begin(), mine->end(), theirs.begin(), equal)) {
    return;
  }
  *mine = theirs;
}

}  // namespace

/// Forwards ACL mutations into the store's publication counter. Only
/// registered on acl_ (never on the store itself), so the record
/// callbacks can stay no-ops.
class QueryStore::AclViewTick : public StoreListener {
 public:
  explicit AclViewTick(QueryStore* store) : store_(store) {}

  void OnAppend(const QueryRecord&) override {}
  void OnRewrite(QueryId, const std::string&) override {}
  void OnAnnotate(QueryId, const Annotation&) override {}
  void OnFlagChange(QueryId, QueryFlags, bool) override {}
  void OnSetSession(QueryId, SessionId) override {}
  void OnSetQuality(QueryId, double) override {}
  void OnDelete(QueryId) override {}
  void OnAclAddUser(const std::string&,
                    const std::vector<std::string>&) override {
    store_->MutationTick();
  }
  void OnAclSetVisibility(QueryId, Visibility) override {
    store_->MutationTick();
  }

 private:
  QueryStore* store_;
};

QueryStore::QueryStore(LshParams lsh_params)
    : lsh_(std::make_shared<LshIndex>(lsh_params)) {
  // Materialize the paper's feature relations (Figure 1). The embedded
  // database is CQMS-internal; failures here are programming errors.
  Status s = feature_db_.CreateTable(TableSchema(
      "Queries", {{"qid", ValueType::kInt},
                  {"qtext", ValueType::kString},
                  {"usr", ValueType::kString},
                  {"ts", ValueType::kInt},
                  {"exec_micros", ValueType::kInt},
                  {"result_rows", ValueType::kInt},
                  {"succeeded", ValueType::kBool}}));
  s = feature_db_.CreateTable(
      TableSchema("DataSources", {{"qid", ValueType::kInt},
                                  {"relname", ValueType::kString}}));
  s = feature_db_.CreateTable(
      TableSchema("Attributes", {{"qid", ValueType::kInt},
                                 {"attrname", ValueType::kString},
                                 {"relname", ValueType::kString}}));
  s = feature_db_.CreateTable(
      TableSchema("Predicates", {{"qid", ValueType::kInt},
                                 {"attrname", ValueType::kString},
                                 {"relname", ValueType::kString},
                                 {"op", ValueType::kString},
                                 {"const_val", ValueType::kString}}));
  (void)s;
  queries_table_ = feature_db_.GetMutableTable("Queries");
  datasources_table_ = feature_db_.GetMutableTable("DataSources");
  attributes_table_ = feature_db_.GetMutableTable("Attributes");
  predicates_table_ = feature_db_.GetMutableTable("Predicates");
}

void QueryStore::AddListener(StoreListener* listener) {
  if (listener == nullptr) return;
  if (std::find(listeners_.begin(), listeners_.end(), listener) ==
      listeners_.end()) {
    listeners_.push_back(listener);
  }
  acl().AddListener(listener);
}

void QueryStore::RemoveListener(StoreListener* listener) {
  listeners_.erase(std::remove(listeners_.begin(), listeners_.end(), listener),
                   listeners_.end());
  acl().RemoveListener(listener);
}

uint32_t QueryStore::PopularitySlotFor(const QueryRecord& record) {
  if (record.parse_failed()) return ScoringColumns::kNoPopularitySlot;
  auto [it, inserted] = pop_slot_of_.try_emplace(record.fingerprint, 0);
  if (inserted) it->second = OwnScoring().NewPopularitySlot();
  return it->second;
}

QueryId QueryStore::Append(QueryRecord record) {
  // The profiler attaches the output summary after BuildRecordFromText,
  // so the summary contribution is folded in here, where the record's
  // features stop changing. Hand-built records (and text-only profiling)
  // arrive without a signature, and transient probe signatures hold
  // hash-derived ids the keyword index must not see — both get the full
  // interned computation. Callers must not edit `text` between
  // BuildRecordFromText and Append.
  const SimilaritySignature& signature = record.statement().signature;
  if (signature.valid && !signature.transient) {
    UpdateOutputSignature(&record);
  } else {
    ComputeSimilaritySignature(&record);
  }
  QueryId id = FinishAppend(std::move(record), /*run_strings_shared=*/false);
  for (StoreListener* l : listeners_) l->OnAppend(records_->back());
  MutationTick();
  return id;
}

bool QueryStore::ShareLiveStatement(std::string_view text,
                                    QueryRecord* record,
                                    StatementPath path) const {
  auto [it, end] = statements_.equal_range(text);
  for (; it != end; ++it) {
    const Statement& live = *it->second.statement;
    if (live.text_parses && live.signature.valid &&
        !live.signature.transient) {
      record->set_statement(it->second.statement);
      record->fingerprint = Fnv1a64(live.canonical_text);
      SeriesFor(path).reuses->Increment();
      return true;
    }
  }
  SeriesFor(path).derivations->Increment();
  return false;
}

QueryRecord QueryStore::RecordForText(std::string text, std::string user,
                                      Micros timestamp,
                                      StatementPath path) const {
  QueryRecord record;
  if (!ShareLiveStatement(text, &record, path)) {
    return BuildRecordFromText(std::move(text), std::move(user), timestamp);
  }
  record.user = std::move(user);
  record.timestamp = timestamp;
  return record;
}

void QueryStore::ReserveForRestore(size_t records, size_t statements,
                                   size_t symbols) {
  PostingIndex& postings = OwnPostings();
  postings.by_table.reserve(symbols);
  postings.by_attribute.reserve(symbols);
  postings.by_keyword.reserve(symbols);
  postings.by_skeleton.reserve(statements);
  postings.records_of.reserve(statements);
  statements_.reserve(statements);
  pop_slot_of_.reserve(statements);
  // by_user is deliberately not pre-sized: distinct users are orders
  // of magnitude fewer than records, so its rehashing is noise.
  OwnLsh().Reserve(statements);
  OwnScoring().Reserve(records, statements);
  acl().Reserve(records);
}

QueryId QueryStore::RestoreAppend(QueryRecord record,
                                  bool run_strings_shared) {
  QueryId id = FinishAppend(std::move(record), run_strings_shared);
  MutationTick();
  return id;
}

QueryId QueryStore::FinishAppend(QueryRecord record, bool run_strings_shared) {
  record.id = static_cast<QueryId>(records_->size());
  max_timestamp_ = std::max(max_timestamp_, record.timestamp);
  const StatementId statement = ShareStatement(&record);
  if (!run_strings_shared) ShareRunStrings(&record);
  ShareSummary(&record, statement);
  RecordLog& records = OwnRecords();
  // One copy of each owner name: the owner's first record holds it.
  std::vector<QueryId>& owned = OwnPostings().by_user[record.user];
  if (!owned.empty()) record.user = records[owned.front()].user;
  InsertSorted(&owned, record.id);
  records.push_back(std::move(record));
  acl().AddRecord();
  const QueryRecord& stored = records.back();
  OwnScoring().AppendRecord(stored, statement,
                            GlobalInterner().Intern(stored.user));
  if (!feature_rows_lazy_) InsertFeatureRows(stored);
  UpdateSharingGauges();
  return stored.id;
}

StatementId QueryStore::ShareStatement(QueryRecord* record) {
  const Statement& mine = *record->statement_;
  StatementEntry* entry = nullptr;
  auto [it, end] = statements_.equal_range(mine.text);
  for (; it != end; ++it) {
    const Statement& live = *it->second.statement;
    if (&live == &mine || live == mine) {
      entry = &it->second;
      break;
    }
  }
  PostingIndex& postings = OwnPostings();
  if (entry == nullptr) {
    StatementId id;
    if (free_statement_ids_.empty()) {
      id = static_cast<StatementId>(postings.records_of.size());
      postings.records_of.emplace_back();
    } else {
      id = free_statement_ids_.back();
      free_statement_ids_.pop_back();
    }
    entry = &statements_
                 .emplace(std::string_view(mine.text),
                          StatementEntry{record->statement_, id})
                 ->second;
    IndexStatement(id, *record);
  } else if (entry->statement != record->statement_) {
    record->set_statement(entry->statement);
  }
  const StatementId id = entry->id;
  InsertSorted(&postings.records_of[id], record->id);
  ScoringColumns& scoring = OwnScoring();
  const uint32_t slot = scoring.statement_pop_slot(id);
  if (slot != ScoringColumns::kNoPopularitySlot) scoring.AddSlotRef(slot);
  return id;
}

QueryStore::SharingTable::iterator QueryStore::EntryOf(
    const Statement& statement) {
  auto [it, end] = statements_.equal_range(statement.text);
  for (; it != end; ++it) {
    if (it->second.statement.get() == &statement) return it;
  }
  return statements_.end();
}

void QueryStore::ShareRunStrings(QueryRecord* record) {
  run_strings_.Share(&record->stats.error);
  run_strings_.Share(&record->stats.plan);
}

void QueryStore::ShareSummary(QueryRecord* record, StatementId statement) {
  OutputSummary& summary = record->summary;
  if (summary.column_names.empty() && summary.sample_rows.empty()) return;
  // The latest run of the statement other than `record` (at most the
  // last two entries; ids are ascending and `record` is one of them).
  const std::vector<QueryId>& runs = postings_->records_of[statement];
  auto other = runs.rbegin();
  if (other != runs.rend() && *other == record->id) ++other;
  if (other == runs.rend()) return;
  const OutputSummary& theirs =
      (*records_)[static_cast<size_t>(*other)].summary;
  ShareEqualList(&summary.column_names, theirs.column_names,
                 std::equal_to<std::string>());
  ShareEqualList(&summary.sample_rows, theirs.sample_rows, SameRow);
}

void QueryStore::Reshare(QueryRecord* record, const Statement& before) {
  auto entry = EntryOf(before);
  if (entry != statements_.end()) {
    const StatementId old = entry->second.id;
    std::vector<QueryId>& records = OwnPostings().records_of[old];
    EraseSorted(&records, record->id);
    ScoringColumns& scoring = OwnScoring();
    const uint32_t slot = scoring.statement_pop_slot(old);
    if (slot != ScoringColumns::kNoPopularitySlot) {
      scoring.ReleaseSlotRef(slot);
    }
    if (records.empty()) {
      std::vector<QueryId>().swap(records);
      UnindexStatement(old, before);
      free_statement_ids_.push_back(old);
      statements_.erase(entry);
    }
  }
  const StatementId statement = ShareStatement(record);
  ShareRunStrings(record);
  ShareSummary(record, statement);
  OwnScoring().SetRecordStatement(record->id, statement);
  UpdateSharingGauges();
}

void QueryStore::UpdateSharingGauges() const {
  static obs::Gauge* records =
      obs::MetricsRegistry::Global().GetGauge("cqms_store_records");
  static obs::Gauge* statements =
      obs::MetricsRegistry::Global().GetGauge("cqms_store_statements");
  records->Set(static_cast<int64_t>(records_->size()));
  statements->Set(static_cast<int64_t>(statements_.size()));
}

void QueryStore::MaterializeFeatureRows() const {
  feature_rows_lazy_ = false;
  for (const QueryRecord& r : *records_) InsertFeatureRows(r);
}

void QueryStore::IndexStatement(StatementId id, const QueryRecord& record) {
  const Statement& statement = record.statement();
  const SimilaritySignature& signature = statement.signature;
  PostingIndex& postings = OwnPostings();
  // Table and attribute posting lists are keyed by the signature's
  // interned Symbols (sorted, deduplicated) — no re-hashing of strings.
  for (Symbol t : signature.tables) {
    InsertSorted(&postings.by_table[t], id);
  }
  for (Symbol a : signature.attributes) {
    InsertSorted(&postings.by_attribute[a], id);
  }
  // The signature's token vector is exactly the deduplicated
  // ExtractWords(text), already interned — reuse it.
  for (Symbol token : signature.text_tokens) {
    InsertSorted(&postings.by_keyword[token], id);
  }
  if (statement.text_parses) {
    InsertSorted(&postings.by_skeleton[statement.skeleton_fingerprint], id);
  }
  OwnLsh().Insert(id, ComputeMinHashSketch(signature));
  const uint32_t pop_slot = PopularitySlotFor(record);
  OwnScoring().SetStatement(id, statement, pop_slot);
}

void QueryStore::UnindexStatement(StatementId id, const Statement& statement) {
  const SimilaritySignature& signature = statement.signature;
  // Erases `id` from the list under `key`, dropping the list when it
  // empties so churned keys leave no empty vectors behind.
  auto erase = [id](auto* map, const auto& key) {
    auto it = map->find(key);
    if (it == map->end()) return;
    EraseSorted(&it->second, id);
    if (it->second.empty()) map->erase(it);
  };
  PostingIndex& postings = OwnPostings();
  for (Symbol t : signature.tables) erase(&postings.by_table, t);
  for (Symbol a : signature.attributes) erase(&postings.by_attribute, a);
  for (Symbol token : signature.text_tokens) {
    erase(&postings.by_keyword, token);
  }
  if (statement.text_parses) {
    erase(&postings.by_skeleton, statement.skeleton_fingerprint);
  }
  OwnLsh().Remove(id, ComputeMinHashSketch(signature));
  OwnScoring().ReleaseStatement(id);
}

void QueryStore::InsertFeatureRows(const QueryRecord& record) const {
  Status s = queries_table_->Append(
      {Value::Int(record.id), Value::String(record.text),
       Value::String(record.user), Value::Int(record.timestamp),
       Value::Int(record.stats.execution_micros),
       Value::Int(static_cast<int64_t>(record.stats.result_rows)),
       Value::Bool(record.stats.succeeded)});
  (void)s;
  if (record.parse_failed()) return;
  for (const std::string& t : record.components->tables) {
    s = datasources_table_->Append({Value::Int(record.id), Value::String(t)});
  }
  for (const auto& [rel, attr] : record.components->attributes) {
    s = attributes_table_->Append(
        {Value::Int(record.id), Value::String(attr), Value::String(rel)});
  }
  for (const auto& p : record.components->predicates) {
    s = predicates_table_->Append(
        {Value::Int(record.id), Value::String(p.attribute),
         Value::String(p.relation), Value::String(p.op),
         Value::String(p.constant)});
  }
}

const QueryRecord* QueryStore::Get(QueryId id) const {
  if (id < 0 || static_cast<size_t>(id) >= records_->size()) return nullptr;
  return &(*records_)[static_cast<size_t>(id)];
}

QueryRecord* QueryStore::GetMutable(QueryId id) {
  if (id < 0 || static_cast<size_t>(id) >= records_->size()) return nullptr;
  // Copy-on-write, per chunk: after a publish the record's chunk is the
  // view's, and the log copies it before the first edit (the copies
  // share each record's Statement and lists). With views disabled the
  // writer owns every chunk and this is plain access.
  return &OwnRecords().mutable_at(static_cast<size_t>(id));
}

std::vector<QueryId> QueryStore::QueriesUsingTable(
    const std::string& table) const {
  return postings_->RecordsOf(postings_->StatementsUsingTable(table));
}

std::vector<QueryId> QueryStore::QueriesUsingAttribute(
    const std::string& relation, const std::string& attribute) const {
  return postings_->RecordsOf(
      postings_->StatementsUsingAttribute(relation, attribute));
}

const std::vector<QueryId>& QueryStore::QueriesByUser(const std::string& user) const {
  return postings_->ByUser(user);
}

std::vector<QueryId> QueryStore::QueriesWithKeyword(
    const std::string& word) const {
  return postings_->RecordsOf(postings_->StatementsWithKeyword(word));
}

uint64_t QueryStore::PopularityOf(uint64_t fingerprint) const {
  auto it = pop_slot_of_.find(fingerprint);
  return it == pop_slot_of_.end() ? 0 : scoring_->slot_count(it->second);
}

Status QueryStore::RewriteQueryText(QueryId id, const std::string& new_text) {
  QueryRecord* r = GetMutable(id);
  if (r == nullptr) return Status::NotFound("no query " + std::to_string(id));

  // Repairs map many records onto a few repaired texts: a text already
  // live shares its statement instead of being derived again. Only the
  // statement and the fingerprint are taken from the rebuilt record.
  QueryRecord rebuilt =
      RecordForText(new_text, std::string(), 0, StatementPath::kRewrite);
  if (rebuilt.parse_failed()) {
    return Status::ParseError("repaired text does not parse: " + rebuilt.stats.error);
  }
  // The rewrite keeps the record's summary and so the output part of its
  // signature. Snapshots and the WAL persist the hashes but not the
  // summary, so a restored record has none: it keeps the hashes it was
  // restored with.
  const Statement& before = r->statement();
  std::vector<uint64_t> kept_rows = before.signature.output_rows;
  const bool kept_empty_computed = before.signature.output_empty_computed;
  r->fingerprint = rebuilt.fingerprint;
  // The new text's signature is already interned; only the output part
  // needs setting. Re-pointing the statement re-points `text`.
  r->set_statement(std::move(rebuilt.statement_));
  if (r->summary.column_names.empty()) {
    SetOutputSignature(r, std::move(kept_rows), kept_empty_computed);
  } else {
    UpdateOutputSignature(r);
  }
  Reshare(r, before);

  // Purge this query's feature rows and reinsert from the new AST —
  // unless the rows are still deferred, in which case the eventual
  // materialization reads the rewritten record anyway.
  if (!feature_rows_lazy_) {
    for (const char* table :
         {"Queries", "DataSources", "Attributes", "Predicates"}) {
      db::Table* t = feature_db_.GetMutableTable(table);
      if (t != nullptr) {
        t->RemoveRowsIf([&](const db::Row& row) {
          return !row.empty() && row[0].type() == db::ValueType::kInt &&
                 row[0].AsInt() == id;
        });
      }
    }
    InsertFeatureRows(*r);
  }
  for (StoreListener* l : listeners_) l->OnRewrite(id, r->text);
  MutationTick();
  return Status::Ok();
}

Status QueryStore::Annotate(QueryId id, Annotation annotation) {
  QueryRecord* r = GetMutable(id);
  if (r == nullptr) return Status::NotFound("no query " + std::to_string(id));
  std::vector<Annotation> annotations(r->annotations.begin(),
                                      r->annotations.end());
  annotations.push_back(std::move(annotation));
  r->annotations = std::move(annotations);
  for (StoreListener* l : listeners_) l->OnAnnotate(id, r->annotations.back());
  MutationTick();
  return Status::Ok();
}

// The scalar mutators below treat an unchanged value as a no-op and
// skip the listener (and the view-publication tick): maintenance
// recomputes quality (and re-flags drift) across the whole log every
// cycle, and without the guard each pass would frame thousands of
// do-nothing records into the WAL and trip the checkpoint thresholds
// on every run. They test the value before GetMutable, so a no-op
// copies neither the record nor a part a published view shares.

Status QueryStore::AddFlag(QueryId id, QueryFlags flag) {
  const QueryRecord* current = Get(id);
  if (current == nullptr) {
    return Status::NotFound("no query " + std::to_string(id));
  }
  if ((current->flags & flag) == static_cast<uint32_t>(flag)) {
    return Status::Ok();
  }
  QueryRecord* r = GetMutable(id);
  r->flags |= flag;
  OwnScoring().SetFlags(id, r->flags);
  for (StoreListener* l : listeners_) l->OnFlagChange(id, flag, /*set=*/true);
  MutationTick();
  return Status::Ok();
}

Status QueryStore::ClearFlag(QueryId id, QueryFlags flag) {
  const QueryRecord* current = Get(id);
  if (current == nullptr) {
    return Status::NotFound("no query " + std::to_string(id));
  }
  if ((current->flags & flag) == 0) return Status::Ok();
  QueryRecord* r = GetMutable(id);
  r->flags &= ~static_cast<uint32_t>(flag);
  OwnScoring().SetFlags(id, r->flags);
  for (StoreListener* l : listeners_) l->OnFlagChange(id, flag, /*set=*/false);
  MutationTick();
  return Status::Ok();
}

Status QueryStore::SetSession(QueryId id, SessionId session) {
  const QueryRecord* current = Get(id);
  if (current == nullptr) {
    return Status::NotFound("no query " + std::to_string(id));
  }
  if (current->session_id == session) return Status::Ok();
  GetMutable(id)->session_id = session;
  for (StoreListener* l : listeners_) l->OnSetSession(id, session);
  MutationTick();
  return Status::Ok();
}

Status QueryStore::SetQuality(QueryId id, double quality) {
  const QueryRecord* current = Get(id);
  if (current == nullptr) {
    return Status::NotFound("no query " + std::to_string(id));
  }
  const double clamped = std::clamp(quality, 0.0, 1.0);
  if (current->quality == clamped) return Status::Ok();
  GetMutable(id)->quality = clamped;
  OwnScoring().SetQuality(id, clamped);
  for (StoreListener* l : listeners_) l->OnSetQuality(id, clamped);
  MutationTick();
  return Status::Ok();
}

Status QueryStore::SyncOutputSignature(QueryId id) {
  QueryRecord* r = GetMutable(id);
  if (r == nullptr) return Status::NotFound("no query " + std::to_string(id));
  const Statement& before = r->statement();
  // A stats refresh usually re-executes to the same output; firing the
  // change feed for a no-op sync would needlessly make the miner
  // re-score the distances of exactly the popular, window-resident
  // records maintenance refreshes most often.
  if (UpdateOutputSignature(r)) {
    Reshare(r, before);
    for (StoreListener* l : listeners_) l->OnSyncOutputSignature(id);
    MutationTick();
  }
  return Status::Ok();
}

Status QueryStore::ShareRunStrings(QueryId id) {
  QueryRecord* r = GetMutable(id);
  if (r == nullptr) return Status::NotFound("no query " + std::to_string(id));
  ShareRunStrings(r);
  ShareSummary(r, scoring_->statement_of(id));
  return Status::Ok();
}

Status QueryStore::RestoreOutputSignature(QueryId id,
                                          std::vector<uint64_t> output_rows,
                                          bool output_empty_computed) {
  QueryRecord* r = GetMutable(id);
  if (r == nullptr) return Status::NotFound("no query " + std::to_string(id));
  const Statement& before = r->statement();
  if (SetOutputSignature(r, std::move(output_rows), output_empty_computed)) {
    Reshare(r, before);
  }
  MutationTick();
  return Status::Ok();
}

Status QueryStore::Delete(QueryId id, const std::string& requester, bool is_admin) {
  const QueryRecord* current = Get(id);
  if (current == nullptr) {
    return Status::NotFound("no query " + std::to_string(id));
  }
  if (!is_admin && current->user != requester) {
    return Status::PermissionDenied("only the owner or an admin may delete query " +
                                    std::to_string(id));
  }
  if (current->HasFlag(kFlagDeleted)) return Status::Ok();
  QueryRecord* r = GetMutable(id);
  r->flags |= kFlagDeleted;
  OwnScoring().SetFlags(id, r->flags);
  for (StoreListener* l : listeners_) l->OnDelete(id);
  MutationTick();
  return Status::Ok();
}

bool QueryStore::Visible(const std::string& viewer, QueryId id) const {
  const QueryRecord* r = Get(id);
  if (r == nullptr || r->HasFlag(kFlagDeleted)) return false;
  return acl_->CanSee(viewer, r->user, id);
}

VisibilityCache& QueryStore::CacheFor(const std::string& viewer) const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto key = std::make_pair(viewer, std::this_thread::get_id());
  std::unique_ptr<VisibilityCache>& slot = caches_[key];
  if (slot == nullptr) {
    slot = std::make_unique<VisibilityCache>(StoreView(*this), viewer);
  }
  return *slot;
}

// --- read-view publication -------------------------------------------------

void QueryStore::EnableViews() {
  if (!views_enabled_) {
    views_enabled_ = true;
    acl_view_tick_ = std::make_unique<AclViewTick>(this);
    acl().AddListener(acl_view_tick_.get());
  }
  PublishView();
}

void QueryStore::MutationTick() {
  ++mutations_;
  PublishChange();
}

void QueryStore::PublishChange() {
  if (!views_enabled_) return;
  ++unpublished_mutations_;
  if (publish_batch_depth_ == 0) PublishView();
}

size_t QueryStore::CompactScoringArenas() {
  const size_t reclaimed = OwnScoring().Compact();
  PublishChange();
  return reclaimed;
}

void QueryStore::PublishView() {
  if (!views_enabled_) return;
  WallTimer publish_timer;
  // The view shares every part with the store; from here on the
  // writer copies a part before its first change to it (Own), so the
  // view's readers keep the parts as they are now.
  auto next = std::make_shared<ReadViewState>();
  next->sequence_ = ++view_sequence_;
  next->mutations_ = mutations_;
  next->max_timestamp_ = max_timestamp_;
  next->records_ = records_;
  next->postings_ = postings_;
  next->scoring_ = scoring_;
  next->lsh_ = lsh_;
  next->acl_ = acl_;
  shared_parts_ = kAllParts;
  std::shared_ptr<const ReadViewState> old;
  {
    std::lock_guard<std::mutex> lock(view_owner_mu_);
    old = std::move(view_owner_);
    view_owner_ = next;
    // The publication point: readers pin an epoch slot, then load this.
    published_view_.store(next.get(), std::memory_order_seq_cst);
  }
  published_sequence_.store(next->sequence_, std::memory_order_relaxed);
  unpublished_mutations_ = 0;
  // The predecessor is unpublished; epoch reclamation destroys it once
  // no pinned reader can still be executing against it. SharedView
  // holders keep it alive beyond that via their own refcount.
  if (old != nullptr) view_epochs_.Retire(std::move(old));
  view_epochs_.Reclaim();
  static obs::Histogram* publish_micros =
      obs::MetricsRegistry::Global().GetHistogram("cqms_publish_micros");
  static obs::Counter* views_published =
      obs::MetricsRegistry::Global().GetCounter("cqms_views_published_total");
  static obs::Gauge* arena_garbage =
      obs::MetricsRegistry::Global().GetGauge("cqms_arena_garbage_bytes");
  publish_micros->Record(static_cast<uint64_t>(publish_timer.ElapsedMicros()));
  views_published->Increment();
  arena_garbage->Set(static_cast<int64_t>(scoring_->arena_garbage()));
}

PinnedView QueryStore::PinView() const {
  size_t slot = view_epochs_.Pin();
  const ReadViewState* view =
      published_view_.load(std::memory_order_seq_cst);
  if (view == nullptr) {
    // Views never enabled: nothing to pin against.
    view_epochs_.Unpin(slot);
    return PinnedView();
  }
  return PinnedView(&view_epochs_, slot, view);
}

std::shared_ptr<const ReadViewState> QueryStore::SharedView() const {
  std::lock_guard<std::mutex> lock(view_owner_mu_);
  return view_owner_;
}

}  // namespace cqms::storage
