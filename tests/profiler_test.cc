#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "maintain/query_maintenance.h"
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
using testing_util::SummaryListsOf;

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

// --- Runs of a statement with equal output share one sample ---------------

/// Equal type and value; doubles bit for bit.
bool IdenticalCells(const db::Value& a, const db::Value& b) {
  if (a.type() != b.type()) return false;
  const double x = a.AsDouble(), y = b.AsDouble();
  return a.AsInt() == b.AsInt() && std::memcmp(&x, &y, sizeof(x)) == 0 &&
         a.AsBool() == b.AsBool() && a.AsString() == b.AsString();
}

/// `stored` equals `expected` field for field, and its lists cell for
/// cell and type for type.
::testing::AssertionResult SummariesIdentical(
    const storage::OutputSummary& stored,
    const storage::OutputSummary& expected) {
  if (stored.total_rows != expected.total_rows ||
      stored.complete != expected.complete ||
      stored.budget_rows != expected.budget_rows) {
    return ::testing::AssertionFailure()
           << "total_rows " << stored.total_rows << " vs "
           << expected.total_rows << ", complete " << stored.complete
           << " vs " << expected.complete << ", budget_rows "
           << stored.budget_rows << " vs " << expected.budget_rows;
  }
  if (!std::equal(stored.column_names.begin(), stored.column_names.end(),
                  expected.column_names.begin(),
                  expected.column_names.end())) {
    return ::testing::AssertionFailure() << "column names differ";
  }
  if (stored.sample_rows.size() != expected.sample_rows.size()) {
    return ::testing::AssertionFailure()
           << stored.sample_rows.size() << " sample rows, expected "
           << expected.sample_rows.size();
  }
  for (size_t i = 0; i < stored.sample_rows.size(); ++i) {
    const db::Row& row = stored.sample_rows[i];
    const db::Row& want = expected.sample_rows[i];
    if (!std::equal(row.begin(), row.end(), want.begin(), want.end(),
                    IdenticalCells)) {
      return ::testing::AssertionFailure()
             << "sample row " << i << " is (" << db::RowToString(row)
             << "), expected (" << db::RowToString(want) << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(SummarySharingTest, ReRunsWithEqualOutputHoldTheSameLists) {
  Harness h;
  const std::string text = "SELECT city, state, pop FROM CityLocations";
  const storage::QueryId a = h.Log("alice", text);
  const storage::QueryId b = h.Log("bob", text);
  const storage::QueryId c = h.Log("alice", text);
  const QueryRecord& first = *h.store.Get(a);
  ASSERT_EQ(first.summary.sample_rows.size(), 8u);
  ASSERT_EQ(first.summary.column_names.size(), 3u);
  EXPECT_EQ(SummaryListsOf(*h.store.Get(b)), SummaryListsOf(first));
  EXPECT_EQ(SummaryListsOf(*h.store.Get(c)), SummaryListsOf(first));
}

// Runs of one statement share a list only when it equals the latest
// other run's exactly: cells print alike ("%.6g") and so share the
// statement's output hashes, but an int and a double, or two doubles
// with different bits, are kept apart. Each run keeps its own counts
// and budget.
TEST(SummarySharingTest, OnlyExactlyEqualListsOfTheLatestOtherRunAreShared) {
  storage::QueryStore store;
  auto run = [&](db::Value first, uint64_t total, bool complete,
                 uint32_t budget) {
    QueryRecord r = storage::BuildRecordFromText("SELECT a, b FROM t",
                                                 "alice", 0);
    r.summary.total_rows = total;
    r.summary.column_names = {"a", "b"};
    r.summary.sample_rows =
        std::vector<db::Row>{{std::move(first), db::Value::String("x")}};
    r.summary.complete = complete;
    r.summary.budget_rows = budget;
    return store.Append(std::move(r));
  };
  const storage::QueryId one = run(db::Value::Int(1), 1, true, 8);
  const storage::QueryId same = run(db::Value::Int(1), 40, false, 9);
  const storage::QueryId as_double = run(db::Value::Double(1.0), 1, true, 8);
  const storage::QueryId nearby =
      run(db::Value::Double(1.0000001), 1, true, 8);
  const storage::QueryId again = run(db::Value::Double(1.0), 2, true, 8);
  const storage::QueryId last = run(db::Value::Double(1.0), 3, true, 8);
  auto at = [&](storage::QueryId id) -> const QueryRecord& {
    return *store.Get(id);
  };
  auto names = [&](storage::QueryId id) {
    return SummaryListsOf(at(id)).first;
  };
  auto rows = [&](storage::QueryId id) {
    return SummaryListsOf(at(id)).second;
  };
  for (storage::QueryId id : {same, as_double, nearby, again, last}) {
    EXPECT_EQ(&at(id).statement(), &at(one).statement()) << id;
    EXPECT_EQ(names(id), names(one)) << id;
  }
  EXPECT_EQ(rows(same), rows(one));
  EXPECT_EQ(at(same).summary.total_rows, 40u);
  EXPECT_FALSE(at(same).summary.complete);
  EXPECT_EQ(at(same).summary.budget_rows, 9u);
  EXPECT_EQ(at(one).summary.total_rows, 1u);
  EXPECT_NE(rows(as_double), rows(same));
  EXPECT_NE(rows(nearby), rows(as_double));
  EXPECT_NE(rows(again), rows(nearby));
  EXPECT_NE(rows(again), rows(as_double));
  EXPECT_EQ(rows(last), rows(again));
  EXPECT_EQ(at(last).summary.total_rows, 3u);
  EXPECT_EQ(at(again).summary.sample_rows[0][0].type(),
            db::ValueType::kDouble);
  EXPECT_EQ(at(one).summary.sample_rows[0][0].type(), db::ValueType::kInt);
}

TEST(SummarySharingTest, RunAfterAnInsertKeepsItsOwn) {
  Harness h;
  const std::string text =
      "SELECT city, pop FROM CityLocations WHERE state = 'WA'";
  const storage::QueryId before = h.Log("alice", text);
  ASSERT_TRUE(h.database
                  .Insert("CityLocations",
                          {db::Value::String("Redmond"),
                           db::Value::String("WA"), db::Value::Int(70000)})
                  .ok());
  const ProfiledExecution after = h.profiler->ExecuteAndProfile(text, "bob");
  const storage::QueryId again = h.Log("carol", text);
  const QueryRecord& first = *h.store.Get(before);
  const QueryRecord& second = *h.store.Get(after.query_id);
  EXPECT_EQ(second.summary.total_rows, first.summary.total_rows + 1);
  EXPECT_NE(SummaryListsOf(second).second, SummaryListsOf(first).second);
  EXPECT_TRUE(SummariesIdentical(
      second.summary,
      SummarizeOutput(after.result, after.stats.execution_micros)));
  EXPECT_EQ(SummaryListsOf(*h.store.Get(again)), SummaryListsOf(second));
}

// A maintenance stats refresh replaces a run's summary with one from a
// re-execution; when the output did not change, the new lists are the
// statement's latest other run's.
TEST(SummarySharingTest, StatsRefreshToAnUnchangedOutputShares) {
  Harness h;
  const std::string text =
      "SELECT lake, temp FROM WaterTemp WHERE temp > 20 ORDER BY temp LIMIT 5";
  const storage::QueryId a = h.Log("alice", text);
  const storage::QueryId b = h.Log("bob", text);
  maintain::MaintenanceOptions options;
  options.reexecute_budget = 10;
  maintain::QueryMaintenance maintenance(&h.database, &h.store, &h.clock,
                                         options);
  for (storage::QueryId id : {b, a}) {
    SCOPED_TRACE(id);
    const std::pair<const void*, const void*> lists =
        SummaryListsOf(*h.store.Get(id));
    ASSERT_TRUE(h.store.AddFlag(id, storage::kFlagStatsStale).ok());
    ASSERT_EQ(maintenance.RefreshStatistics().stats_refreshed, 1u);
    ASSERT_FALSE(h.store.Get(id)->HasFlag(storage::kFlagStatsStale));
    EXPECT_EQ(SummaryListsOf(*h.store.Get(a)), lists);
    EXPECT_EQ(SummaryListsOf(*h.store.Get(b)), lists);
  }
}

// Over a seeded lab, every stored summary, shared or not, equals the
// summary of its own run's result and execution time: sharing never
// hands a run another run's sample, counts or budget. The lab's
// statements run through a second profiler in the order its sessions
// ran them, which returns each run's result.
TEST(SummarySharingTest, SeededLabStoresEachRunsOwnSummary) {
  workload::WorkloadOptions options;
  options.num_users = 40;
  options.num_groups = 5;
  options.num_sessions = 150;
  options.seed = 29;
  Harness lab(30);
  workload::RegisterUsers(&lab.store, options);
  workload::GenerateLog(lab.profiler.get(), &lab.store, &lab.clock, options);

  Harness h(30);
  workload::RegisterUsers(&h.store, options);
  std::vector<ProfiledExecution> runs;
  for (const QueryRecord& r : lab.store.records()) {
    runs.push_back(h.profiler->ExecuteAndProfile(r.text, r.user));
    h.clock.Advance(kMicrosPerSecond);
  }
  ASSERT_EQ(h.store.size(), runs.size());
  std::set<const void*> seen;
  size_t summarized = 0;
  size_t shared = 0;
  for (const ProfiledExecution& run : runs) {
    const QueryRecord& stored = *h.store.Get(run.query_id);
    SCOPED_TRACE(stored.text);
    const storage::OutputSummary expected =
        run.stats.succeeded
            ? SummarizeOutput(run.result, run.stats.execution_micros)
            : storage::OutputSummary();
    ASSERT_TRUE(SummariesIdentical(stored.summary, expected));
    const void* rows = SummaryListsOf(stored).second;
    if (rows == nullptr) continue;
    ++summarized;
    if (!seen.insert(rows).second) ++shared;
  }
  // Most runs re-run a logged text to an unchanged output.
  EXPECT_GT(summarized, runs.size() / 2);
  EXPECT_GT(shared, summarized / 2);
}

}  // namespace
}  // namespace cqms::profiler
