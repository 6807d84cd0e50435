// E1 — Profiler overhead (paper §2.1 / Figure 4).
//
// The paper's first requirement: the Query Profiler "does not impose
// significant runtime overhead". We measure end-to-end latency of the
// same query mix at every profiling level, against raw execution.
// BM_ProfiledExecution cycles through four statements, so after its
// first four iterations every run is a re-run: kFeatures and kFull share
// the logged statement and execute its parse tree (no parse, no
// feature extraction), kTextOnly parses to execute, and kFull adds
// summarization. All should stay small relative to query execution.
// BM_RecordBuildOnly prices the from-scratch derivation a new text pays.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "obs/metrics.h"
#include "sql/parser.h"
#include "storage/record_builder.h"

namespace cqms {
namespace {

const char* kQueryMix[] = {
    "SELECT * FROM WaterTemp WHERE temp < 18",
    "SELECT S.salinity, T.temp FROM WaterSalinity S, WaterTemp T "
    "WHERE S.loc_x = T.loc_x AND T.temp < 18",
    "SELECT lake, AVG(temp) FROM WaterTemp GROUP BY lake",
    "SELECT city FROM CityLocations WHERE pop > 100000 ORDER BY pop DESC",
};

void BM_RawExecution(benchmark::State& state) {
  SimulatedClock clock(0);
  db::Database database(&clock);
  Status s = workload::PopulateLakeDatabase(&database, 300);
  (void)s;
  size_t i = 0;
  for (auto _ : state) {
    auto r = database.ExecuteSql(kQueryMix[i++ % 4]);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RawExecution);

void BM_ProfiledExecution(benchmark::State& state) {
  SimulatedClock clock(0);
  db::Database database(&clock);
  Status s = workload::PopulateLakeDatabase(&database, 300);
  (void)s;
  storage::QueryStore store;
  profiler::ProfilerOptions options;
  options.level = static_cast<profiler::ProfilingLevel>(state.range(0));
  profiler::QueryProfiler profiler(&database, &store, &clock, options);
  size_t i = 0;
  for (auto _ : state) {
    auto r = profiler.ExecuteAndProfile(kQueryMix[i++ % 4], "bench");
    benchmark::DoNotOptimize(r);
  }
  state.counters["logged"] = static_cast<double>(store.size());
}
BENCHMARK(BM_ProfiledExecution)
    ->Arg(static_cast<int>(profiler::ProfilingLevel::kOff))
    ->Arg(static_cast<int>(profiler::ProfilingLevel::kTextOnly))
    ->Arg(static_cast<int>(profiler::ProfilingLevel::kFeatures))
    ->Arg(static_cast<int>(profiler::ProfilingLevel::kFull))
    ->ArgNames({"level"});

// Marginal cost of the profiler-side work alone (no query execution):
// record building at each level, on a representative 3-way join query.
void BM_RecordBuildOnly(benchmark::State& state) {
  const std::string text =
      "SELECT T.lake, AVG(T.temp) FROM WaterTemp T, WaterSalinity S, "
      "CityLocations C WHERE T.loc_x = S.loc_x AND T.temp < 18 "
      "GROUP BY T.lake ORDER BY T.lake LIMIT 10";
  for (auto _ : state) {
    auto record = storage::BuildRecordFromText(text, "bench", 0);
    benchmark::DoNotOptimize(record);
  }
}
BENCHMARK(BM_RecordBuildOnly);

// Store append throughput (index + feature-relation maintenance).
void BM_StoreAppend(benchmark::State& state) {
  storage::QueryStore store;
  auto record = storage::BuildRecordFromText(
      "SELECT * FROM WaterTemp WHERE temp < 18", "bench", 0);
  for (auto _ : state) {
    storage::QueryRecord copy = record;
    benchmark::DoNotOptimize(store.Append(std::move(copy)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreAppend);

// Set-up log generation, the in-process twin of e2ebench's
// `setup.generate_s`: a lab shaped like its explore workload (40 users
// in 5 groups, a 30-row lake database, seed 1) runs its sessions through
// the profiler, which executes, profiles and appends every statement.
// Most runs re-run a logged text. `derivations_per_record` is the share
// of runs that derived their statement from scratch (the distinct-text
// share when each text is derived once), and `parses_per_record` the SQL
// parses per logged run.
void BM_GenerateLog(benchmark::State& state) {
  workload::WorkloadOptions options;
  options.num_users = 40;
  options.num_groups = 5;
  options.num_sessions = static_cast<size_t>(state.range(0));
  options.seed = 1;
  obs::Counter* derivations = obs::MetricsRegistry::Global().GetCounter(
      "cqms_statement_derivations_total{path=\"profile\"}");
  size_t records = 0;
  size_t statements = 0;
  uint64_t derived = 0;
  uint64_t parses = 0;
  for (auto _ : state) {
    state.PauseTiming();
    SimulatedClock clock(1'600'000'000'000'000);
    db::Database database(&clock);
    Status s = workload::PopulateLakeDatabase(&database, 30);
    (void)s;
    auto store = std::make_unique<storage::QueryStore>();
    profiler::QueryProfiler profiler(&database, store.get(), &clock);
    workload::RegisterUsers(store.get(), options);
    const uint64_t derived_before = derivations->value();
    const uint64_t parses_before = sql::ParseCallCount();
    state.ResumeTiming();
    workload::GroundTruth truth =
        workload::GenerateLog(&profiler, store.get(), &clock, options);
    benchmark::DoNotOptimize(truth);
    state.PauseTiming();
    derived = derivations->value() - derived_before;
    parses = sql::ParseCallCount() - parses_before;
    records = store->size();
    statements = store->statement_count();
    store.reset();  // the teardown is not part of the set-up
    state.ResumeTiming();
  }
  state.counters["records"] = static_cast<double>(records);
  state.counters["statements"] = static_cast<double>(statements);
  state.counters["derivations_per_record"] =
      static_cast<double>(derived) / static_cast<double>(records);
  state.counters["parses_per_record"] =
      static_cast<double>(parses) / static_cast<double>(records);
}
BENCHMARK(BM_GenerateLog)
    ->ArgName("sessions")
    ->Arg(1000)
    ->Arg(8000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cqms

BENCHMARK_MAIN();
