// E3 — Query-by-data (paper §2.2).
//
// "All queries whose output includes Lake Washington but not Lake
// Union": finds queries by conditions on their *outputs*, as a data
// request through the planner. We measure the summary-only fast path vs
// the exact path with re-execution fallback, across log sizes — the
// efficiency/exactness trade-off the paper calls "a challenging
// problem". Expected shape: summary-only scales with log size alone;
// re-execution adds cost proportional to the number of incomplete
// summaries.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "metaquery/meta_query_executor.h"
#include "metaquery_reference.h"

namespace cqms {
namespace {

std::vector<metaquery::DataExample> LakeExamples() {
  std::vector<metaquery::DataExample> examples;
  examples.push_back({{db::Value::String("Washington")}, true});
  examples.push_back({{db::Value::String("Union")}, false});
  return examples;
}

void BM_QueryByDataSummaryOnly(benchmark::State& state) {
  bench::LogFixture& f = bench::GetFixture(static_cast<size_t>(state.range(0)));
  auto examples = LakeExamples();
  metaquery::MetaQueryExecutor executor(&f.store);
  metaquery::QueryByDataOptions options;  // no re-execution
  const metaquery::MetaQueryRequest request =
      metaquery::LogOrderRequest().WithData(examples, options);
  size_t hits = 0;
  for (auto _ : state) {
    auto response = executor.Execute("user0", request);
    hits = response.matches.size();
    benchmark::DoNotOptimize(response);
  }
  state.counters["log_size"] = static_cast<double>(f.store.size());
  state.counters["hits"] = static_cast<double>(hits);
}
BENCHMARK(BM_QueryByDataSummaryOnly)
    ->Arg(1000)->Arg(5000)->Arg(20000)->ArgNames({"queries"});

void BM_QueryByDataWithReexecution(benchmark::State& state) {
  bench::LogFixture& f = bench::GetFixture(static_cast<size_t>(state.range(0)));
  auto examples = LakeExamples();
  metaquery::QueryByDataOptions options;
  options.reexecute_on = &f.database;
  metaquery::MetaQueryExecutor executor(&f.store);
  const metaquery::MetaQueryRequest request =
      metaquery::LogOrderRequest().WithData(examples, options);
  size_t hits = 0;
  for (auto _ : state) {
    auto response = executor.Execute("user0", request);
    hits = response.matches.size();
    benchmark::DoNotOptimize(response);
  }
  state.counters["log_size"] = static_cast<double>(f.store.size());
  state.counters["hits"] = static_cast<double>(hits);
}
BENCHMARK(BM_QueryByDataWithReexecution)
    ->Arg(1000)->Arg(5000)->ArgNames({"queries"});

void BM_ExampleCountSweep(benchmark::State& state) {
  bench::LogFixture& f = bench::GetFixture(5000);
  std::vector<metaquery::DataExample> examples;
  const char* lakes[] = {"Washington", "Union", "Sammamish", "Chelan",
                         "Crescent", "Whatcom"};
  for (int i = 0; i < state.range(0); ++i) {
    examples.push_back({{db::Value::String(lakes[i % 6])}, i % 2 == 0});
  }
  metaquery::MetaQueryExecutor executor(&f.store);
  const metaquery::MetaQueryRequest request =
      metaquery::LogOrderRequest().WithData(examples);
  for (auto _ : state) {
    auto response = executor.Execute("user0", request);
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_ExampleCountSweep)->Arg(1)->Arg(4)->Arg(8)->ArgNames({"examples"});

void BM_RowMatchMicro(benchmark::State& state) {
  db::Row row = {db::Value::String("Washington"), db::Value::Int(1),
                 db::Value::Int(2), db::Value::Double(17.5)};
  db::Row example = {db::Value::String("Washington")};
  for (auto _ : state) {
    benchmark::DoNotOptimize(metaquery::RowMatchesExample(row, example));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RowMatchMicro);

}  // namespace
}  // namespace cqms

BENCHMARK_MAIN();
