#include "maintain/query_maintenance.h"

#include <algorithm>
#include <set>

#include "profiler/output_summarizer.h"
#include "storage/record_builder.h"

namespace cqms::maintain {

QueryMaintenance::QueryMaintenance(db::Database* database,
                                   storage::QueryStore* store, const Clock* clock,
                                   MaintenanceOptions options)
    : database_(database), store_(store), clock_(clock), options_(options) {}

MaintenanceReport QueryMaintenance::CheckSchemaValidity() {
  MaintenanceReport report;

  // Which queries to check: on the first run, everything; afterwards,
  // only queries whose input relations changed since the last check
  // (the paper's timestamp-comparison strategy, §4.4).
  std::set<storage::QueryId> to_check;
  std::vector<db::SchemaChange> relevant_changes;
  if (last_schema_check_ < 0) {
    for (const storage::QueryRecord& r : store_->records()) to_check.insert(r.id);
    relevant_changes = database_->catalog().changes();
  } else {
    relevant_changes = database_->catalog().ChangesSince(last_schema_check_);
    for (const db::SchemaChange& c : relevant_changes) {
      for (storage::QueryId id : store_->QueriesUsingTable(c.table)) {
        to_check.insert(id);
      }
      if (!c.new_name.empty()) {
        for (storage::QueryId id : store_->QueriesUsingTable(c.new_name)) {
          to_check.insert(id);
        }
      }
    }
  }
  last_schema_check_ = clock_->Now();

  for (storage::QueryId id : to_check) {
    // Read-only until a store mutator below; those take the id, so
    // `r` is not used after one.
    const storage::QueryRecord* r = store_->Get(id);
    if (r == nullptr || r->parse_failed() || r->HasFlag(storage::kFlagDeleted)) {
      continue;
    }
    ++report.queries_checked;
    const sql::SelectStatement* ast = r->Ast();
    if (ast == nullptr) continue;
    Status valid = database_->Validate(*ast);
    if (valid.ok()) {
      if (r->HasFlag(storage::kFlagSchemaBroken)) {
        Status s = store_->ClearFlag(id, storage::kFlagSchemaBroken);
        (void)s;
        ++report.unflagged;
      }
      continue;
    }

    // Broken. Try repair first; flag if repair is impossible.
    if (options_.auto_repair) {
      RepairResult repair =
          RepairStatement(*ast, database_->catalog().changes(), *database_);
      if (repair.repaired) {
        Status s = store_->RewriteQueryText(id, repair.new_text);
        if (s.ok()) {
          s = store_->ClearFlag(id, storage::kFlagSchemaBroken);
          s = store_->AddFlag(id, storage::kFlagRepaired);
          ++report.repaired;
          report.repaired_ids.push_back(id);
          continue;
        }
      }
    }
    Status s = store_->AddFlag(id, storage::kFlagSchemaBroken);
    (void)s;
    ++report.flagged_broken;
    report.broken_ids.push_back(id);
  }
  return report;
}

MaintenanceReport QueryMaintenance::RefreshStatistics() {
  MaintenanceReport report;

  // Pass 1: drift detection per table against the previous snapshot.
  std::set<std::string> drifted;
  for (const std::string& table : database_->catalog().TableNames()) {
    const db::Table* t = database_->GetTable(table);
    if (t == nullptr) continue;
    db::TableStats current = db::ComputeTableStats(*t);
    auto it = stats_snapshot_.find(table);
    if (it != stats_snapshot_.end()) {
      double drift = db::StatsDrift(it->second, current);
      if (drift > options_.drift_threshold) {
        drifted.insert(table);
        ++report.tables_drifted;
      }
    }
    stats_snapshot_[table] = std::move(current);
  }

  // Pass 2: flag dependents of drifted tables.
  for (const std::string& table : drifted) {
    for (storage::QueryId id : store_->QueriesUsingTable(table)) {
      const storage::QueryRecord* r = store_->Get(id);
      if (r == nullptr || r->HasFlag(storage::kFlagDeleted) ||
          r->HasFlag(storage::kFlagStatsStale)) {
        continue;
      }
      Status s = store_->AddFlag(id, storage::kFlagStatsStale);
      (void)s;
      ++report.stats_flagged_stale;
    }
  }

  // Pass 3: refresh the most popular stale queries within the budget
  // ("update the statistics more frequently for popular or important
  // queries", §4.4).
  std::vector<std::pair<uint64_t, storage::QueryId>> stale;
  for (const storage::QueryRecord& r : store_->records()) {
    if (!r.HasFlag(storage::kFlagStatsStale) || r.parse_failed() ||
        r.HasFlag(storage::kFlagDeleted) || r.HasFlag(storage::kFlagSchemaBroken)) {
      continue;
    }
    stale.emplace_back(store_->PopularityOf(r.fingerprint), r.id);
  }
  std::sort(stale.begin(), stale.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  for (const auto& [pop, id] : stale) {
    if (report.stats_refreshed >= options_.reexecute_budget) break;
    storage::QueryRecord* r = store_->GetMutable(id);
    const sql::SelectStatement* ast = r->Ast();
    if (ast == nullptr) continue;
    WallTimer timer;
    auto exec = database_->Execute(*ast);
    if (!exec.ok()) {
      // Execution now fails (e.g. data-dependent): record and move on.
      r->stats.succeeded = false;
      r->stats.error = exec.status().ToString();
      Status shared = store_->ShareRunStrings(id);
      (void)shared;
      Status s = store_->ClearFlag(id, storage::kFlagStatsStale);
      (void)s;
      ++report.stats_refreshed;
      continue;
    }
    r->stats.succeeded = true;
    r->stats.error = std::string();
    r->stats.execution_micros = timer.ElapsedMicros();
    r->stats.result_rows = exec->rows.size();
    r->stats.rows_scanned = exec->rows_scanned;
    r->stats.plan = exec->plan;
    r->summary = profiler::SummarizeOutput(*exec, r->stats.execution_micros);
    // The cached signature hashes the output sample; rebuild that part —
    // through the store, so the columnar copy scoring reads stays in sync.
    // Then share the new plan with the runs of the record's statement.
    Status sync = store_->SyncOutputSignature(id);
    (void)sync;
    Status shared = store_->ShareRunStrings(id);
    (void)shared;
    Status s = store_->ClearFlag(id, storage::kFlagStatsStale);
    (void)s;
    ++report.stats_refreshed;
  }
  return report;
}

size_t QueryMaintenance::UpdateQuality() {
  return UpdateAllQuality(store_, options_.quality);
}

MaintenanceReport QueryMaintenance::RunAll() {
  // One republish for the whole cycle: a maintenance pass can touch
  // thousands of records (flags, quality, stats), and per-mutation
  // publication would copy each part it writes once per mutation.
  storage::QueryStore::ScopedPublishBatch batch(store_);
  MaintenanceReport report = CheckSchemaValidity();
  MaintenanceReport stats = RefreshStatistics();
  report.tables_drifted = stats.tables_drifted;
  report.stats_flagged_stale = stats.stats_flagged_stale;
  report.stats_refreshed = stats.stats_refreshed;
  report.quality_updated = UpdateQuality();
  // Arena hygiene rides the background cycle, like checkpointing: the
  // repair rewrites above are exactly what orphans arena runs.
  if (options_.compact_arena_min_garbage > 0 &&
      store_->scoring().arena_garbage() >= options_.compact_arena_min_garbage) {
    report.arena_bytes_compacted = store_->CompactScoringArenas();
  }
  report.arena_garbage_bytes = store_->scoring().arena_garbage();
  if (durable_ != nullptr) {
    report.checkpoint_status = durable_->MaybeCheckpoint(&report.checkpointed);
    report.durable_read_only = durable_->read_only();
    report.checkpoint_failure_streak = durable_->checkpoint_failure_streak();
    report.checkpoint_backoff_remaining =
        durable_->checkpoint_backoff_remaining();
    report.checkpoints_backed_off = durable_->checkpoints_backed_off();
  }
  return report;
}

}  // namespace cqms::maintain
