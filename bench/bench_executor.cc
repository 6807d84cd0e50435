// SQL executor cost (db::Database::Execute), the largest part of a
// profiled run now that a logged statement is derived once per text.
//
// BM_ExecuteShape times one statement per shape of the synthetic
// exploration workload on a 30-row lake database (e2ebench's
// `--demo-rows 30`), from a tree parsed beforehand; the cross joins, with
// and without LIMIT, are the shapes that dominate the set-up stream's
// executor time; the correlated subqueries price a subquery's per-row
// fixed cost.
// BM_ExecuteSetupStream replays the seeded set-up stream of a 40-user lab
// (the workload BM_GenerateLog profiles) from pre-parsed trees, without
// the profiler and the store.
//
// Counters, per execution of the timed statements:
//   output_rows            rows the statements return;
//   allocs_per_output_row  heap allocations (operator new calls, counted
//                          by the replacement below, which exists in this
//                          binary only) per returned row. The executor is
//                          deterministic, so this count repeats exactly,
//                          unlike the timings.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/clock.h"
#include "db/database.h"
#include "profiler/query_profiler.h"
#include "sql/parser.h"
#include "storage/query_store.h"
#include "workload/synthetic.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// Kept out of line: inlined into a call site, GCC would pair the
// `new` there with the `free` here and warn of a mismatch. The nothrow
// form (std::stable_sort's buffer) is replaced too, so that every block
// these deletes free came from malloc, also where a sanitizer runtime
// supplies the forms left unreplaced.
__attribute__((noinline)) void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new(std::size_t size,
                                             const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace cqms {
namespace {

/// The 30-row lake database every case executes against.
const db::Database& LakeDb() {
  static const db::Database* database = [] {
    auto* d = new db::Database();
    Status s = workload::PopulateLakeDatabase(d, 30);
    (void)s;
    return d;
  }();
  return *database;
}

/// Executes `statements` once per iteration, destroying each result, and
/// sets the per-execution counters.
void RunStatements(benchmark::State& state, const db::Database& database,
                   const std::vector<const sql::SelectStatement*>& statements) {
  uint64_t rows = 0;
  const uint64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    for (const sql::SelectStatement* statement : statements) {
      Result<db::QueryResult> r = database.Execute(*statement);
      if (r.ok()) rows += r->rows.size();
      benchmark::DoNotOptimize(r);
    }
  }
  const uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - allocations_before;
  state.counters["output_rows"] =
      static_cast<double>(rows) / static_cast<double>(state.iterations());
  state.counters["allocs_per_output_row"] =
      rows == 0 ? 0.0
                : static_cast<double>(allocations) / static_cast<double>(rows);
}

void BM_ExecuteShape(benchmark::State& state, const char* sql) {
  auto parsed = sql::Parse(sql);
  if (!parsed.ok()) {
    state.SkipWithError(parsed.status().ToString().c_str());
    return;
  }
  RunStatements(state, LakeDb(), {parsed->get()});
}
BENCHMARK_CAPTURE(BM_ExecuteShape, filter_scan,
                  "SELECT T.lake, T.temp FROM WaterTemp T WHERE T.temp < 20");
BENCHMARK_CAPTURE(BM_ExecuteShape, cross_join,
                  "SELECT * FROM WaterTemp T, WaterSalinity S "
                  "WHERE T.temp < 20");
BENCHMARK_CAPTURE(BM_ExecuteShape, cross_join_3col,
                  "SELECT T.lake, T.temp, S.salinity FROM WaterTemp T, "
                  "WaterSalinity S WHERE T.temp < 20");
BENCHMARK_CAPTURE(BM_ExecuteShape, cross_join_limit,
                  "SELECT * FROM WaterTemp T, WaterSalinity S "
                  "WHERE T.temp < 20 LIMIT 20");
BENCHMARK_CAPTURE(BM_ExecuteShape, cross_join_3col_limit,
                  "SELECT T.lake, T.temp, S.salinity FROM WaterTemp T, "
                  "WaterSalinity S WHERE T.temp < 20 LIMIT 20");
BENCHMARK_CAPTURE(BM_ExecuteShape, hash_join,
                  "SELECT R.ts, R.value FROM Sensors N, Readings R "
                  "WHERE N.sensor_id = R.sensor_id");
BENCHMARK_CAPTURE(BM_ExecuteShape, grouped_aggregate,
                  "SELECT lake, AVG(temp) AS avg_temp, COUNT(*) AS n "
                  "FROM WaterTemp WHERE temp > 8 GROUP BY lake "
                  "HAVING COUNT(*) > 1 ORDER BY avg_temp DESC");
BENCHMARK_CAPTURE(BM_ExecuteShape, in_list_group,
                  "SELECT lake, SUM(count_obs) AS total FROM Species "
                  "WHERE species IN ('salmon', 'trout', 'perch') "
                  "GROUP BY lake HAVING SUM(count_obs) > 10");
// Correlated subqueries run once per outer row, so their fixed cost
// (plan text, bound trees, layouts) is paid 30 times per statement.
BENCHMARK_CAPTURE(BM_ExecuteShape, correlated_exists,
                  "SELECT T.lake FROM WaterTemp T WHERE EXISTS "
                  "(SELECT 1 FROM CityLocations C "
                  "WHERE C.pop > T.temp * 30000)");
BENCHMARK_CAPTURE(BM_ExecuteShape, correlated_count,
                  "SELECT T.lake, (SELECT COUNT(*) FROM CityLocations C "
                  "WHERE C.pop > T.temp * 30000) AS n FROM WaterTemp T");

/// The seeded set-up stream of `sessions` sessions, in submission order,
/// as trees parsed once per distinct text. Unparsable texts are left out:
/// they never reach the executor.
struct SetupStream {
  std::map<std::string, std::unique_ptr<sql::SelectStatement>> trees;
  std::vector<const sql::SelectStatement*> statements;
};

const SetupStream& GetSetupStream(size_t sessions) {
  static std::map<size_t, SetupStream>* cache =
      new std::map<size_t, SetupStream>();
  auto it = cache->find(sessions);
  if (it != cache->end()) return it->second;
  SetupStream& stream = (*cache)[sessions];
  workload::WorkloadOptions options;
  options.num_users = 40;
  options.num_groups = 5;
  options.num_sessions = sessions;
  options.seed = 1;
  SimulatedClock clock(1'600'000'000'000'000);
  storage::QueryStore store;
  profiler::QueryProfiler profiler(&LakeDb(), &store, &clock);
  workload::RegisterUsers(&store, options);
  workload::GenerateLog(&profiler, &store, &clock, options);
  for (const storage::QueryRecord& record : store.records()) {
    auto [tree, inserted] = stream.trees.try_emplace(record.text);
    if (inserted) {
      auto parsed = sql::Parse(record.text);
      if (parsed.ok()) tree->second = std::move(parsed).value();
    }
    if (tree->second != nullptr) stream.statements.push_back(tree->second.get());
  }
  return stream;
}

void BM_ExecuteSetupStream(benchmark::State& state) {
  const SetupStream& stream =
      GetSetupStream(static_cast<size_t>(state.range(0)));
  RunStatements(state, LakeDb(), stream.statements);
  state.counters["statements"] = static_cast<double>(stream.statements.size());
}
BENCHMARK(BM_ExecuteSetupStream)
    ->ArgName("sessions")
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cqms

BENCHMARK_MAIN();
