#include <gtest/gtest.h>

#include "profiler/output_summarizer.h"
#include "profiler/query_profiler.h"
#include "test_util.h"

namespace cqms::profiler {
namespace {

using testing_util::Harness;

db::QueryResult MakeResult(size_t rows) {
  db::QueryResult r;
  r.column_names = {"x"};
  for (size_t i = 0; i < rows; ++i) {
    r.rows.push_back({db::Value::Int(static_cast<int64_t>(i))});
  }
  return r;
}

TEST(SummarizerTest, BudgetGrowsWithExecutionTime) {
  SummarizerOptions opts;
  size_t fast = SummaryBudget(/*2ms*/ 2000, 1000, opts);
  size_t slow = SummaryBudget(/*2s*/ 2'000'000, 1000, opts);
  EXPECT_LT(fast, slow);
  EXPECT_GE(fast, opts.min_rows);
  EXPECT_LE(slow, opts.max_rows);
}

TEST(SummarizerTest, PaperPolicySlowSmallOutputStoredCompletely) {
  // "if a query takes two hours to complete and outputs ten rows, then
  // the system should store the whole output" (§4.1).
  auto summary = SummarizeOutput(MakeResult(10), /*2h*/ 7'200'000'000LL);
  EXPECT_TRUE(summary.complete);
  EXPECT_EQ(summary.sample_rows.size(), 10u);
}

TEST(SummarizerTest, PaperPolicyFastHugeOutputSampledTiny) {
  // "if a query takes only two seconds and outputs two million rows,
  // there is no need to store the output" — we keep only a tiny sample.
  auto summary = SummarizeOutput(MakeResult(200000), /*2s*/ 2'000'000);
  EXPECT_FALSE(summary.complete);
  EXPECT_LE(summary.sample_rows.size(), SummarizerOptions().max_rows);
  EXPECT_LT(summary.sample_rows.size(), 1000u);
  EXPECT_EQ(summary.total_rows, 200000u);
}

TEST(SummarizerTest, ReservoirSamplingIsDeterministicAndUniform) {
  auto a = SummarizeOutput(MakeResult(10000), 1000);
  auto b = SummarizeOutput(MakeResult(10000), 1000);
  ASSERT_EQ(a.sample_rows.size(), b.sample_rows.size());
  for (size_t i = 0; i < a.sample_rows.size(); ++i) {
    EXPECT_EQ(a.sample_rows[i][0].AsInt(), b.sample_rows[i][0].AsInt());
  }
  // Uniformity smoke check: sample mean near population mean.
  double sum = 0;
  for (const auto& row : a.sample_rows) sum += static_cast<double>(row[0].AsInt());
  double mean = sum / static_cast<double>(a.sample_rows.size());
  EXPECT_NEAR(mean, 5000.0, 1500.0);
}

TEST(SummarizerTest, EmptyResult) {
  auto summary = SummarizeOutput(MakeResult(0), 100);
  EXPECT_TRUE(summary.complete);
  EXPECT_EQ(summary.total_rows, 0u);
  EXPECT_EQ(summary.column_names.size(), 1u);
}

TEST(ProfilerTest, LevelOffLogsNothing) {
  Harness h;
  h.profiler->set_level(ProfilingLevel::kOff);
  ProfiledExecution e =
      h.profiler->ExecuteAndProfile("SELECT * FROM WaterTemp", "u");
  EXPECT_TRUE(e.stats.succeeded);
  EXPECT_EQ(e.query_id, storage::kInvalidQueryId);
  EXPECT_EQ(h.store.size(), 0u);
}

TEST(ProfilerTest, LevelTextOnlySkipsParsing) {
  Harness h;
  h.profiler->set_level(ProfilingLevel::kTextOnly);
  ProfiledExecution e =
      h.profiler->ExecuteAndProfile("SELECT * FROM WaterTemp", "u");
  ASSERT_NE(e.query_id, storage::kInvalidQueryId);
  const storage::QueryRecord* r = h.store.Get(e.query_id);
  EXPECT_TRUE(r->parse_failed());  // no AST at this level
  EXPECT_EQ(r->text, "SELECT * FROM WaterTemp");
  EXPECT_TRUE(r->stats.succeeded);
}

TEST(ProfilerTest, LevelFeaturesExtractsComponentsButNoSummary) {
  Harness h;
  h.profiler->set_level(ProfilingLevel::kFeatures);
  ProfiledExecution e =
      h.profiler->ExecuteAndProfile("SELECT * FROM WaterTemp", "u");
  const storage::QueryRecord* r = h.store.Get(e.query_id);
  EXPECT_FALSE(r->parse_failed());
  EXPECT_EQ(r->components->tables.size(), 1u);
  EXPECT_TRUE(r->summary.column_names.empty());
}

TEST(ProfilerTest, LevelFullAddsOutputSummary) {
  Harness h;
  ProfiledExecution e =
      h.profiler->ExecuteAndProfile("SELECT * FROM WaterTemp", "u");
  const storage::QueryRecord* r = h.store.Get(e.query_id);
  EXPECT_FALSE(r->summary.column_names.empty());
  EXPECT_EQ(r->summary.total_rows, e.result.rows.size());
}

TEST(ProfilerTest, FailedQueriesAreLoggedWithError) {
  Harness h;
  ProfiledExecution e =
      h.profiler->ExecuteAndProfile("SELECT * FROM NoSuchTable", "u");
  EXPECT_FALSE(e.stats.succeeded);
  ASSERT_NE(e.query_id, storage::kInvalidQueryId);
  const storage::QueryRecord* r = h.store.Get(e.query_id);
  EXPECT_FALSE(r->stats.succeeded);
  EXPECT_NE(r->stats.error.find("BindError"), std::string::npos);
}

TEST(ProfilerTest, FailedLoggingCanBeDisabled) {
  Harness h;
  ProfilerOptions opts;
  opts.log_failed_queries = false;
  QueryProfiler profiler(&h.database, &h.store, &h.clock, opts);
  ProfiledExecution e = profiler.ExecuteAndProfile("SELEKT nope", "u");
  EXPECT_FALSE(e.stats.succeeded);
  EXPECT_EQ(h.store.size(), 0u);
}

TEST(ProfilerTest, TimestampsComeFromClock) {
  Harness h;
  h.clock.Set(5'000'000);
  storage::QueryId id = h.Log("u", "SELECT 1");
  EXPECT_EQ(h.store.Get(id)->timestamp, 5'000'000);
}

TEST(ProfilerTest, LogOnlyDoesNotExecute) {
  Harness h;
  storage::QueryId id =
      h.profiler->LogOnly("SELECT * FROM WaterTemp WHERE temp < 5", "u");
  const storage::QueryRecord* r = h.store.Get(id);
  EXPECT_FALSE(r->parse_failed());
  EXPECT_EQ(r->stats.result_rows, 0u);
  EXPECT_TRUE(r->summary.column_names.empty());
}

}  // namespace
}  // namespace cqms::profiler
