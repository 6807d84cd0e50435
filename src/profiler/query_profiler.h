#ifndef CQMS_PROFILER_QUERY_PROFILER_H_
#define CQMS_PROFILER_QUERY_PROFILER_H_

#include <string>
#include <string_view>

#include "common/clock.h"
#include "common/result.h"
#include "db/database.h"
#include "profiler/output_summarizer.h"
#include "storage/query_store.h"

namespace cqms::profiler {

/// How much work the profiler does per query. The paper's first
/// requirement (§2.1) is that profiling "does not impose significant
/// runtime overhead"; the levels make that overhead measurable (bench E1).
enum class ProfilingLevel {
  kOff,       ///< Pass-through: execute only, log nothing.
  kTextOnly,  ///< Log raw text + runtime stats.
  kFeatures,  ///< + parse, canonicalize, extract syntactic features.
  kFull,      ///< + adaptive output summary (default).
};

struct ProfilerOptions {
  ProfilingLevel level = ProfilingLevel::kFull;
  SummarizerOptions summarizer;
  /// Log queries that fail to parse or bind (they feed the correction
  /// engine; §2.3). On by default.
  bool log_failed_queries = true;
};

/// Outcome of a profiled execution.
struct ProfiledExecution {
  storage::QueryId query_id = storage::kInvalidQueryId;  ///< kInvalid at kOff.
  db::QueryResult result;
  storage::RuntimeStats stats;
};

/// The CQMS Query Profiler (Figure 4): sits in front of the DBMS,
/// forwards standard SQL, and logs text, features, runtime statistics
/// and output samples into the Query Storage.
class QueryProfiler {
 public:
  /// `database`, `store` and `clock` must outlive the profiler.
  QueryProfiler(const db::Database* database, storage::QueryStore* store,
                const Clock* clock, ProfilerOptions options = {});

  /// Executes `sql_text` on behalf of `user`, logging per the configured
  /// level. The profiler itself never fails: query failures
  /// (parse/bind/runtime) are reported through `stats.succeeded` /
  /// `stats.error` and are still logged (when `log_failed_queries`),
  /// because failed attempts feed the correction engine.
  ///
  /// A run parses its text at most once. At kFeatures and kFull a re-run
  /// of a logged text shares its live Statement (no parse, canonical
  /// form, components or interning; QueryStore::ShareLiveStatement), and
  /// a new text is parsed once, executed, and derived from that tree.
  /// `stats.execution_micros` times the engine's execution of the
  /// parsed statement alone, as maintenance's stats refresh does.
  ProfiledExecution ExecuteAndProfile(std::string_view sql_text,
                                      const std::string& user);

  /// Logs a query without executing it (used when importing historical
  /// logs whose results are unknown). A logged text shares its live
  /// Statement, as in ExecuteAndProfile.
  storage::QueryId LogOnly(std::string_view sql_text, const std::string& user);

  const ProfilerOptions& options() const { return options_; }
  void set_level(ProfilingLevel level) { options_.level = level; }

 private:
  const db::Database* database_;
  storage::QueryStore* store_;
  const Clock* clock_;
  ProfilerOptions options_;
};

}  // namespace cqms::profiler

#endif  // CQMS_PROFILER_QUERY_PROFILER_H_
