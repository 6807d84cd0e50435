#ifndef CQMS_TESTS_TEST_UTIL_H_
#define CQMS_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>

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

/// Logs four runs each of a statement that succeeds, one that fails to
/// execute and one that does not parse, through `h`'s profiler, then two
/// runs each of two other statements, one with the plan of the first and
/// one with the error of the second; the owners alternate between alice
/// and bob. Each run executes on the same data, so the runs of a
/// statement repeat its plan or error, and a result of five rows fits
/// any summary budget (the runs of a statement share one Statement).
/// The 16 records repeat a plan 5 times, an error 8 times and an owner
/// 14 times.
inline void LogRepeatedRuns(Harness* h) {
  for (int i = 0; i < 4; ++i) {
    const std::string user = i % 2 == 0 ? "alice" : "bob";
    h->Log(user, "SELECT lake, temp FROM WaterTemp WHERE temp < 18 LIMIT 5");
    h->Log(user, "SELECT nope FROM Missing");
    h->Log(user, "SELEKT lake FROM WaterTemp");
  }
  for (int i = 0; i < 2; ++i) {
    const std::string user = i % 2 == 0 ? "alice" : "bob";
    h->Log(user, "select lake, temp from WaterTemp where temp < 18 limit 5");
    h->Log(user, "SELECT other FROM Missing");
  }
}

/// How many records read a repeated string from a copy an earlier record
/// holds (see ExpectOneCopyPerRepeatedString).
struct SharedRepeats {
  size_t errors = 0;
  size_t plans = 0;
  size_t owners = 0;
};

/// Expects every record of `source` (a QueryStore or a ReadViewState) to
/// read its text from its own Statement, every two records with an equal
/// non-empty error or plan to hold one copy of it, whether or not they
/// run one statement, and every two records of one owner to hold one
/// copy of the owner name, all compared by address. Returns how many
/// records found an earlier copy, so a test can require that its log
/// repeats each string.
template <typename Source>
SharedRepeats ExpectOneCopyPerRepeatedString(const Source& source) {
  std::map<std::string, const std::string*> errors;
  std::map<std::string, const std::string*> plans;
  std::map<std::string, const std::string*> owners;
  SharedRepeats repeats;
  auto check = [](auto* copies, auto key, const SharedString& value,
                  size_t* count, const char* field, storage::QueryId id) {
    if (value.empty()) return;
    auto [it, first] = copies->emplace(std::move(key), &value.str());
    if (first) return;
    ++*count;
    EXPECT_EQ(it->second, &value.str())
        << "record " << id << " holds a second copy of its " << field
        << " '" << value << "'";
  };
  for (const storage::QueryRecord& r : source.records()) {
    EXPECT_EQ(&r.text.str(), &r.statement().text) << "record " << r.id;
    check(&errors, r.stats.error.str(), r.stats.error, &repeats.errors,
          "error", r.id);
    check(&plans, r.stats.plan.str(), r.stats.plan, &repeats.plans, "plan",
          r.id);
    check(&owners, r.user.str(), r.user, &repeats.owners, "owner", r.id);
  }
  return repeats;
}

/// The addresses of a record's summary column names and sample rows,
/// null when empty: runs that share a list read one address.
inline std::pair<const void*, const void*> SummaryListsOf(
    const storage::QueryRecord& r) {
  return {r.summary.column_names.begin(), r.summary.sample_rows.begin()};
}

}  // namespace cqms::testing_util

#endif  // CQMS_TESTS_TEST_UTIL_H_
