// E2 — Meta-query latency (paper Figure 1 / §2.2, §4.2).
//
// The paper requires interactive meta-querying. We measure, across log
// sizes, one-predicate requests through the planner: keyword search
// (inverted index), substring scan, native query-by-feature (index
// intersection) and structural search; and the same Figure-1 search
// expressed as SQL over the feature relations (self-joining Attributes),
// including the auto-generated variant from a partial query.
// Expected shape: index-backed paths stay sub-millisecond as the log
// grows; the SQL path is slower but still interactive thanks to the
// engine's hash joins.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "metaquery/meta_query_executor.h"
#include "metaquery_reference.h"
#include "sql/parser.h"

namespace cqms {
namespace {

const char* kViewer = "user0";

using metaquery::LogOrderRequest;

void BM_KeywordSearch(benchmark::State& state) {
  bench::LogFixture& f = bench::GetFixture(static_cast<size_t>(state.range(0)));
  metaquery::MetaQueryExecutor executor(&f.store);
  const metaquery::MetaQueryRequest request =
      LogOrderRequest().WithKeywords("salinity temp");
  size_t found = 0;
  for (auto _ : state) {
    auto response = executor.Execute(kViewer, request);
    found = response.matches.size();
    benchmark::DoNotOptimize(response);
  }
  state.counters["log_size"] = static_cast<double>(f.store.size());
  state.counters["hits"] = static_cast<double>(found);
}
BENCHMARK(BM_KeywordSearch)->Arg(1000)->Arg(5000)->Arg(20000)->ArgNames({"queries"});

void BM_SubstringSearch(benchmark::State& state) {
  bench::LogFixture& f = bench::GetFixture(static_cast<size_t>(state.range(0)));
  metaquery::MetaQueryExecutor executor(&f.store);
  const metaquery::MetaQueryRequest request =
      LogOrderRequest().WithSubstring("loc_x = T.loc_x");
  for (auto _ : state) {
    auto response = executor.Execute(kViewer, request);
    benchmark::DoNotOptimize(response);
  }
  state.counters["log_size"] = static_cast<double>(f.store.size());
}
BENCHMARK(BM_SubstringSearch)->Arg(1000)->Arg(5000)->Arg(20000)->ArgNames({"queries"});

void BM_FeatureQueryNative(benchmark::State& state) {
  bench::LogFixture& f = bench::GetFixture(static_cast<size_t>(state.range(0)));
  metaquery::MetaQueryExecutor executor(&f.store);
  metaquery::FeatureQuery query;
  query.UsesTable("WaterSalinity")
      .UsesAttribute("watertemp", "temp")
      .HasPredicateOn("watertemp", "temp", "<")
      .SucceededOnly();
  const metaquery::MetaQueryRequest request =
      LogOrderRequest().WithFeature(query);
  size_t found = 0;
  for (auto _ : state) {
    auto response = executor.Execute(kViewer, request);
    found = response.matches.size();
    benchmark::DoNotOptimize(response);
  }
  state.counters["log_size"] = static_cast<double>(f.store.size());
  state.counters["hits"] = static_cast<double>(found);
}
BENCHMARK(BM_FeatureQueryNative)
    ->Arg(1000)->Arg(5000)->Arg(20000)->ArgNames({"queries"});

// The Figure-1 meta-query, verbatim SQL over the feature relations.
void BM_FeatureQuerySql(benchmark::State& state) {
  bench::LogFixture& f = bench::GetFixture(static_cast<size_t>(state.range(0)));
  metaquery::MetaQueryExecutor executor(&f.store);
  const std::string meta_sql =
      "SELECT Q.qid, Q.qtext FROM Queries Q, Attributes A1, Attributes A2 "
      "WHERE Q.qid = A1.qid AND Q.qid = A2.qid "
      "AND A1.attrname = 'salinity' AND A1.relname = 'watersalinity' "
      "AND A2.attrname = 'temp' AND A2.relname = 'watertemp'";
  size_t found = 0;
  for (auto _ : state) {
    auto result = executor.Sql(kViewer, meta_sql);
    if (result.ok()) found = result->rows.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["log_size"] = static_cast<double>(f.store.size());
  state.counters["hits"] = static_cast<double>(found);
}
BENCHMARK(BM_FeatureQuerySql)
    ->Arg(1000)->Arg(5000)->Arg(20000)->ArgNames({"queries"});

// Auto-generation of the meta-query from a partially written query
// (§2.2: "the CQMS could automatically generate these statements").
void BM_GenerateAndRunMetaQuery(benchmark::State& state) {
  bench::LogFixture& f = bench::GetFixture(5000);
  metaquery::MetaQueryExecutor executor(&f.store);
  auto partial = sql::Parse(
      "SELECT S.salinity, T.temp FROM WaterSalinity S, WaterTemp T");
  for (auto _ : state) {
    auto meta_sql = metaquery::GenerateMetaQueryFromPartial(**partial);
    auto result = executor.Sql(kViewer, *meta_sql);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_GenerateAndRunMetaQuery);

// Structural (parse-tree) search.
void BM_StructuralSearch(benchmark::State& state) {
  bench::LogFixture& f = bench::GetFixture(static_cast<size_t>(state.range(0)));
  metaquery::MetaQueryExecutor executor(&f.store);
  metaquery::StructuralPattern pattern;
  pattern.required_tables = {"watertemp"};
  pattern.required_predicate_skeletons = {"watertemp.temp < ?"};
  pattern.min_joins = 1;
  const metaquery::MetaQueryRequest request =
      LogOrderRequest().WithStructure(pattern);
  for (auto _ : state) {
    auto response = executor.Execute(kViewer, request);
    benchmark::DoNotOptimize(response);
  }
  state.counters["log_size"] = static_cast<double>(f.store.size());
}
BENCHMARK(BM_StructuralSearch)
    ->Arg(1000)->Arg(5000)->Arg(20000)->ArgNames({"queries"});

}  // namespace
}  // namespace cqms

BENCHMARK_MAIN();
