#include <gtest/gtest.h>

#include <set>
#include <string>

#include "profiler/output_summarizer.h"
#include "profiler/query_profiler.h"
#include "sql/parser.h"
#include "storage/record_builder.h"
#include "storage/snapshot_v2.h"
#include "test_util.h"

namespace cqms::profiler {
namespace {

using storage::QueryRecord;
using testing_util::CountsOf;
using testing_util::Harness;
using testing_util::PathCounts;

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
  EXPECT_NE(r->stats.error->find("BindError"), std::string::npos);
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

// --- derive once: re-runs share the live statement ------------------------

/// `r` derived from scratch: BuildRecordFromText of its text, with its
/// own output summary folded into the signature.
QueryRecord FromScratch(const QueryRecord& r) {
  QueryRecord fresh = storage::BuildRecordFromText(r.text, r.user, r.timestamp);
  fresh.summary = r.summary;
  storage::UpdateOutputSignature(&fresh);
  return fresh;
}

TEST(DeriveOnceTest, SeededLogEqualsFromScratchDerivation) {
  // Shaped like the benchmark's lab: 40 users in 5 groups on a 30-row
  // lake database, with typos (bind errors) and annotations.
  Harness h(30);
  workload::WorkloadOptions options;
  options.num_users = 40;
  options.num_groups = 5;
  options.num_sessions = 300;
  options.seed = 17;
  workload::RegisterUsers(&h.store, options);
  const PathCounts before = CountsOf("profile");
  const uint64_t parses_before = sql::ParseCallCount();
  workload::GroundTruth truth =
      workload::GenerateLog(h.profiler.get(), &h.store, &h.clock, options);
  const PathCounts after = CountsOf("profile");
  const uint64_t parses = sql::ParseCallCount() - parses_before;
  ASSERT_GT(truth.typos_generated, 0u);

  // The same log with every record derived from scratch, appended to a
  // second store: stored state must not depend on which run derived a
  // statement and which shared it.
  storage::QueryStore scratch;
  workload::RegisterUsers(&scratch, options);
  std::set<std::string> texts;
  size_t annotated = 0;
  for (const QueryRecord& r : h.store.records()) {
    texts.insert(r.text);
    QueryRecord fresh = FromScratch(r);
    EXPECT_TRUE(fresh.statement() == r.statement()) << r.text;
    EXPECT_EQ(fresh.fingerprint, r.fingerprint) << r.text;
    // The outcome the from-scratch executor path gives (the database is
    // never written, so a second run gives the same one).
    auto exec = h.database.ExecuteSql(r.text);
    EXPECT_EQ(r.stats.succeeded, exec.ok()) << r.text;
    if (exec.ok()) {
      EXPECT_EQ(r.stats.result_rows, exec->rows.size()) << r.text;
      EXPECT_EQ(r.stats.rows_scanned, exec->rows_scanned) << r.text;
      EXPECT_EQ(r.stats.plan, exec->plan) << r.text;
      EXPECT_TRUE(r.stats.error.empty()) << r.text;
    } else {
      EXPECT_EQ(r.stats.error, exec.status().ToString()) << r.text;
    }
    fresh.stats = r.stats;
    const storage::QueryId id = scratch.Append(std::move(fresh));
    ASSERT_EQ(id, r.id);
    for (const storage::Annotation& a : r.annotations) {
      ASSERT_TRUE(scratch.Annotate(id, a).ok());
      ++annotated;
    }
  }
  EXPECT_GT(annotated, 0u);
  ASSERT_GT(h.store.size(), 2 * texts.size());
  EXPECT_EQ(h.store.statement_count(), scratch.statement_count());

  // Each distinct text is derived, and parsed, exactly once; every other
  // run shares the live statement and executes its tree.
  EXPECT_EQ(after.derivations - before.derivations, texts.size());
  EXPECT_EQ(after.reuses - before.reuses, h.store.size() - texts.size());
  EXPECT_EQ(parses, texts.size());

  // Stored bytes: equal to the from-scratch store's, and stable across
  // save -> load -> save.
  std::string image, scratch_image, reloaded_image;
  ASSERT_TRUE(storage::EncodeSnapshotV2(h.store, 0, &image).ok());
  ASSERT_TRUE(storage::EncodeSnapshotV2(scratch, 0, &scratch_image).ok());
  EXPECT_TRUE(image == scratch_image);
  storage::QueryStore restored;
  ASSERT_TRUE(
      storage::LoadSnapshotV2FromString(&restored, image, "oracle").ok());
  ASSERT_TRUE(storage::EncodeSnapshotV2(restored, 0, &reloaded_image).ok());
  EXPECT_TRUE(image == reloaded_image);
}

TEST(DeriveOnceTest, EachRunParsesAtMostOnce) {
  Harness h;
  const std::string text = "SELECT temp FROM WaterTemp WHERE temp < 18";
  const uint64_t parses_before = sql::ParseCallCount();
  h.Log("alice", text);  // a new text: parsed once, executed, derived
  EXPECT_EQ(sql::ParseCallCount() - parses_before, 1u);
  h.Log("bob", text);  // a re-run executes the shared, materialized tree
  EXPECT_EQ(sql::ParseCallCount() - parses_before, 1u);
  h.profiler->set_level(ProfilingLevel::kTextOnly);
  h.Log("carol", text);  // text-only logging still parses to execute
  EXPECT_EQ(sql::ParseCallCount() - parses_before, 2u);
}

TEST(DeriveOnceTest, ReRunAfterRestoreSharesTheUnmaterializedStatement) {
  // One output row, stored completely, so the re-run's output part
  // equals the restored one and the record shares it as is.
  const std::string text = "SELECT COUNT(*) FROM WaterTemp WHERE temp < 18";
  Harness original;
  original.Log("alice", text);
  std::string image;
  ASSERT_TRUE(storage::EncodeSnapshotV2(original.store, 0, &image).ok());

  Harness h;
  ASSERT_TRUE(
      storage::LoadSnapshotV2FromString(&h.store, image, "restored").ok());
  const storage::Statement& restored = h.store.Get(0)->statement();
  ASSERT_EQ(restored.tree.IfMaterialized(), nullptr);
  const PathCounts before = CountsOf("profile");
  const uint64_t parses_before = sql::ParseCallCount();
  ProfiledExecution e = h.profiler->ExecuteAndProfile(text, "bob");
  ASSERT_TRUE(e.stats.succeeded);
  ASSERT_EQ(e.result.rows.size(), 1u);
  // The run parsed a private tree to execute, and left the shared one
  // unmaterialized.
  EXPECT_EQ(sql::ParseCallCount() - parses_before, 1u);
  const QueryRecord* rerun = h.store.Get(e.query_id);
  EXPECT_EQ(&rerun->statement(), &restored);
  EXPECT_EQ(restored.tree.IfMaterialized(), nullptr);
  EXPECT_EQ(h.store.statement_count(), 1u);
  EXPECT_EQ(rerun->fingerprint, h.store.Get(0)->fingerprint);
  EXPECT_EQ(CountsOf("profile").reuses - before.reuses, 1u);
  EXPECT_EQ(CountsOf("profile").derivations, before.derivations);
}

TEST(DeriveOnceTest, TextOnlyStatementIsNotSharedWithAParsedRun) {
  Harness h;
  const std::string text = "SELECT COUNT(*) FROM WaterTemp";
  h.profiler->set_level(ProfilingLevel::kTextOnly);
  const storage::QueryId text_only = h.Log("alice", text);
  h.profiler->set_level(ProfilingLevel::kFull);
  const storage::QueryId full = h.Log("alice", text);
  ASSERT_TRUE(h.store.Get(text_only)->parse_failed());
  const QueryRecord* r = h.store.Get(full);
  EXPECT_FALSE(r->parse_failed());
  EXPECT_NE(r->Ast(), nullptr);
  EXPECT_TRUE(r->statement() == FromScratch(*r).statement());
  EXPECT_EQ(h.store.statement_count(), 2u);
}

TEST(DeriveOnceTest, FailedRunsLogTheFromScratchErrorStrings) {
  Harness h;
  // A typo'd table parses and fails to bind; a typo'd keyword does not
  // parse. Each is logged twice: as a new text, then as a re-run.
  const std::string bind_error = "SELECT temp FROM WaterTmp WHERE temp < 18";
  const std::string parse_error = "SELEKT temp FROM WaterTemp";
  const std::pair<std::string, std::string> cases[] = {
      {bind_error, "BindError: unknown table: watertmp"},
      {parse_error,
       "ParseError: expected keyword SELECT at offset 0 (near identifier "
       "'SELEKT')"},
  };
  for (const auto& [text, expected] : cases) {
    EXPECT_EQ(h.database.ExecuteSql(text).status().ToString(), expected);
    for (int run = 0; run < 2; ++run) {
      ProfiledExecution e = h.profiler->ExecuteAndProfile(text, "alice");
      EXPECT_FALSE(e.stats.succeeded);
      EXPECT_EQ(e.stats.error, expected) << text << " run " << run;
      ASSERT_NE(e.query_id, storage::kInvalidQueryId);
      const QueryRecord* r = h.store.Get(e.query_id);
      EXPECT_EQ(r->stats.error, expected) << text << " run " << run;
      if (text == parse_error) {
        EXPECT_EQ(r->stats.execution_micros, 0) << "nothing executed";
      }
      EXPECT_TRUE(r->statement() == FromScratch(*r).statement()) << text;
    }
  }
  // The bind error's re-run shared its statement; the unparsable text
  // qualifies for no sharing and holds one equal statement either way.
  EXPECT_EQ(&h.store.Get(0)->statement(), &h.store.Get(1)->statement());
  EXPECT_EQ(h.store.statement_count(), 2u);
}

TEST(DeriveOnceTest, LogOnlyDerivesANewTextOnce) {
  Harness h;
  const std::string text = "SELECT * FROM WaterTemp WHERE temp < 5";
  const PathCounts before = CountsOf("log_only");
  const storage::QueryId a = h.profiler->LogOnly(text, "alice");
  const storage::QueryId b = h.profiler->LogOnly(text, "bob");
  const PathCounts after = CountsOf("log_only");
  EXPECT_EQ(after.derivations - before.derivations, 1u);
  EXPECT_EQ(after.reuses - before.reuses, 1u);
  EXPECT_EQ(&h.store.Get(a)->statement(), &h.store.Get(b)->statement());
  EXPECT_EQ(h.store.Get(b)->fingerprint, h.store.Get(a)->fingerprint);
  EXPECT_EQ(h.store.Get(b)->user, "bob");
  EXPECT_TRUE(h.store.Get(b)->statement() ==
              FromScratch(*h.store.Get(b)).statement());
}

}  // namespace
}  // namespace cqms::profiler
