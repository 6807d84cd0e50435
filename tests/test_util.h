#ifndef CQMS_TESTS_TEST_UTIL_H_
#define CQMS_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>

#include "common/clock.h"
#include "db/database.h"
#include "obs/metrics.h"
#include "profiler/query_profiler.h"
#include "storage/query_store.h"
#include "storage/record_builder.h"
#include "workload/synthetic.h"

namespace cqms::testing_util {

/// A ready-to-use CQMS substrate: populated lake database, query store,
/// simulated clock and profiler. Tests drive the profiler directly or
/// append hand-built records.
struct Harness {
  SimulatedClock clock{1'000'000};
  db::Database database{&clock};
  storage::QueryStore store;
  std::unique_ptr<profiler::QueryProfiler> profiler;

  explicit Harness(size_t rows_per_table = 200) {
    Status s = workload::PopulateLakeDatabase(&database, rows_per_table);
    (void)s;
    profiler = std::make_unique<profiler::QueryProfiler>(&database, &store,
                                                         &clock);
  }

  /// Executes and logs a query as `user`, advancing the clock by
  /// `advance` afterwards. Returns the logged id.
  storage::QueryId Log(const std::string& user, const std::string& sql,
                       Micros advance = 10 * kMicrosPerSecond) {
    profiler::ProfiledExecution e = profiler->ExecuteAndProfile(sql, user);
    clock.Advance(advance);
    return e.query_id;
  }
};

/// SELECT * FROM WaterTemp WHERE temp IN (0, 1, ..., 69999): 70,006
/// distinct text tokens, more than a scoring-column row's u16 run length
/// holds, so the row of its statement is not signature-valid and the
/// read path scores it from its records' signature.
inline std::string OverflowingStatementText() {
  std::string text = "SELECT * FROM WaterTemp WHERE temp IN (0";
  for (int i = 1; i < 70000; ++i) text += ", " + std::to_string(i);
  return text + ")";
}

/// The statement derivations and reuses counted so far on one logging
/// path (`profile`, `log_only`, `wal`, `rewrite`). The counters are
/// process-wide, so tests compare differences.
struct PathCounts {
  uint64_t derivations = 0;
  uint64_t reuses = 0;
};

inline PathCounts CountsOf(const std::string& path) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const std::string tag = "{path=\"" + path + "\"}";
  return {reg.GetCounter("cqms_statement_derivations_total" + tag)->value(),
          reg.GetCounter("cqms_statement_reuses_total" + tag)->value()};
}

}  // namespace cqms::testing_util

#endif  // CQMS_TESTS_TEST_UTIL_H_
