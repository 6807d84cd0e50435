#include "profiler/query_profiler.h"

#include "storage/record_builder.h"

namespace cqms::profiler {

namespace {

/// Executes `parsed`, timing the engine's execution alone into
/// `*elapsed` (0 when the text did not parse).
Result<db::QueryResult> ExecuteTimed(const db::Database& database,
                                     const storage::ParsedTree& parsed,
                                     Micros* elapsed) {
  *elapsed = 0;
  if (!parsed.ok()) return parsed.status();
  WallTimer timer;
  Result<db::QueryResult> exec = database.Execute(**parsed);
  *elapsed = timer.ElapsedMicros();
  return exec;
}

}  // namespace

QueryProfiler::QueryProfiler(const db::Database* database,
                             storage::QueryStore* store, const Clock* clock,
                             ProfilerOptions options)
    : database_(database), store_(store), clock_(clock), options_(options) {}

ProfiledExecution QueryProfiler::ExecuteAndProfile(std::string_view sql_text,
                                                   const std::string& user) {
  ProfiledExecution out;
  const Micros submitted_at = clock_->Now();
  const bool logs = options_.level != ProfilingLevel::kOff;
  const bool derives = options_.level == ProfilingLevel::kFeatures ||
                       options_.level == ProfilingLevel::kFull;

  // A re-run shares the live statement of its text and executes that
  // statement's tree when one is materialized; a statement restored from
  // a snapshot has none, and a private tree is parsed for this run only
  // (materializing the shared one would grow every restored statement a
  // client re-runs). A new text is parsed once, and the record is built
  // from the tree that executed.
  storage::QueryRecord record;
  const bool shared =
      derives && store_->ShareLiveStatement(sql_text, &record,
                                            storage::StatementPath::kProfile);
  std::shared_ptr<const sql::SelectStatement> tree;
  if (shared) tree = record.statement().tree.IfMaterialized();
  storage::ParsedTree parsed = tree != nullptr
                                   ? storage::ParsedTree(std::move(tree))
                                   : storage::ParseText(sql_text);
  Micros elapsed = 0;
  Result<db::QueryResult> exec = ExecuteTimed(*database_, parsed, &elapsed);

  out.stats.execution_micros = elapsed;
  if (exec.ok()) {
    out.stats.succeeded = true;
    out.stats.result_rows = exec->rows.size();
    out.stats.rows_scanned = exec->rows_scanned;
    out.stats.plan = exec->plan;
  } else {
    out.stats.succeeded = false;
    out.stats.error = exec.status().ToString();
  }

  // Log per level.
  if (logs && (exec.ok() || options_.log_failed_queries)) {
    // A text-only record (kTextOnly) keeps no parse-derived features:
    // Append computes its signature from the text alone.
    if (derives && !shared) {
      record = storage::BuildRecordFromTree(std::string(sql_text), user,
                                            submitted_at, std::move(parsed));
    } else {
      if (!derives) record.MutableStatement()->text = std::string(sql_text);
      record.user = user;
      record.timestamp = submitted_at;
    }
    record.stats = out.stats;
    if (options_.level == ProfilingLevel::kFull && exec.ok()) {
      record.summary = SummarizeOutput(*exec, elapsed, options_.summarizer);
    }
    out.query_id = store_->Append(std::move(record));
  }

  if (exec.ok()) out.result = std::move(exec).value();
  return out;
}

storage::QueryId QueryProfiler::LogOnly(std::string_view sql_text,
                                        const std::string& user) {
  return store_->Append(store_->RecordForText(std::string(sql_text), user,
                                              clock_->Now(),
                                              storage::StatementPath::kLogOnly));
}

}  // namespace cqms::profiler
