// Observability tests: the metrics registry primitives (counter /
// gauge / power-of-two histogram semantics, exposition text), the
// leveled logger, the slow-query JSONL log, wire-protocol minor-1
// round-trips (trace bit, trace summary, extended stats) including
// pre-minor-1 payload compatibility, and trace correctness — the
// planner's ExecTrace counters must agree with the response and with
// independent oracle recounts across all four candidate-generator
// paths.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "metaquery/meta_query_planner.h"
#include "metaquery_reference.h"
#include "net/wire.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/slow_log.h"
#include "obs/trace.h"
#include "storage/record_builder.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace cqms {
namespace {

using metaquery::CandidateGenerator;
using metaquery::MetaQueryPlanner;
using metaquery::MetaQueryRequest;
using metaquery::MetaQueryResponse;
using testing_util::Harness;

// --- histogram -------------------------------------------------------------

TEST(HistogramTest, EmptyHistogramReportsZero) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Percentile(0), 0u);
  EXPECT_EQ(h.Percentile(50), 0u);
  EXPECT_EQ(h.Percentile(100), 0u);
}

TEST(HistogramTest, SingleSampleEveryPercentileIsThatSample) {
  obs::Histogram h;
  h.Record(37);
  // Bucket upper bound for 37 is 63; the clamp to the observed max must
  // bring every percentile back to the real sample.
  EXPECT_EQ(h.Percentile(0), 37u);
  EXPECT_EQ(h.Percentile(50), 37u);
  EXPECT_EQ(h.Percentile(99), 37u);
  EXPECT_EQ(h.Percentile(100), 37u);
  EXPECT_EQ(h.min(), 37u);
  EXPECT_EQ(h.max(), 37u);
  EXPECT_EQ(h.sum(), 37u);
}

TEST(HistogramTest, PercentileClampsBucketBoundToObservedRange) {
  obs::Histogram h;
  // Both land in bucket 3 (nominal upper bound 7); every percentile
  // resolves to that bound clamped into the observed [5, 6] range, so
  // nothing past the real maximum is ever reported.
  h.Record(5);
  h.Record(6);
  EXPECT_EQ(h.min(), 5u);
  EXPECT_EQ(h.max(), 6u);
  EXPECT_EQ(h.Percentile(0), 6u);
  EXPECT_EQ(h.Percentile(100), 6u);
}

TEST(HistogramTest, ZeroSamplesLandInBucketZero) {
  obs::Histogram h;
  h.Record(0);
  h.Record(0);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.Percentile(50), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, PercentileWalksBuckets) {
  obs::Histogram h;
  for (int i = 0; i < 90; ++i) h.Record(1);    // bucket 1, bound 1
  for (int i = 0; i < 10; ++i) h.Record(1000);  // bucket 10, bound 1023
  EXPECT_EQ(h.Percentile(50), 1u);
  EXPECT_EQ(h.Percentile(90), 1u);
  // p99 reaches the big-sample bucket; clamped to the observed max.
  EXPECT_EQ(h.Percentile(99), 1000u);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 90u + 10u * 1000u);
}

TEST(HistogramTest, BucketIndexing) {
  EXPECT_EQ(obs::Histogram::BucketIndex(0), 0);
  EXPECT_EQ(obs::Histogram::BucketIndex(1), 1);
  EXPECT_EQ(obs::Histogram::BucketIndex(2), 2);
  EXPECT_EQ(obs::Histogram::BucketIndex(3), 2);
  EXPECT_EQ(obs::Histogram::BucketIndex(4), 3);
  EXPECT_EQ(obs::Histogram::BucketIndex(~0ull), obs::Histogram::kBuckets - 1);
  EXPECT_EQ(obs::Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(obs::Histogram::BucketUpperBound(3), 7u);
}

// --- registry --------------------------------------------------------------

TEST(MetricsRegistryTest, SameNameResolvesToSameSeries) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter* a = reg.GetCounter("obs_test_resolve_total");
  obs::Counter* b = reg.GetCounter("obs_test_resolve_total");
  EXPECT_EQ(a, b);
  a->Increment();
  a->Add(2);
  EXPECT_EQ(b->value(), 3u);
}

TEST(MetricsRegistryTest, ExpositionTextCoversEveryKind) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("obs_test_expo_total")->Add(7);
  reg.GetGauge("obs_test_expo_gauge")->Set(-4);
  obs::Histogram* h = reg.GetHistogram("obs_test_expo_micros");
  h->Record(3);
  h->Record(5);

  std::string text = reg.ExpositionText();
  EXPECT_NE(text.find("obs_test_expo_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("obs_test_expo_gauge -4\n"), std::string::npos);
  EXPECT_NE(text.find("obs_test_expo_micros_count 2\n"), std::string::npos);
  EXPECT_NE(text.find("obs_test_expo_micros_sum 8\n"), std::string::npos);
  EXPECT_NE(text.find("obs_test_expo_micros{stat=\"min\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_expo_micros{stat=\"max\"} 5\n"),
            std::string::npos);
}

TEST(MetricsRegistryTest, LabeledHistogramSuffixInsertsBeforeBrace) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Histogram* h =
      reg.GetHistogram("obs_test_labeled_micros{stage=\"x\"}");
  h->Record(9);
  std::string text = reg.ExpositionText();
  EXPECT_NE(text.find("obs_test_labeled_micros_count{stage=\"x\"} 1\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("obs_test_labeled_micros{stage=\"x\",stat=\"max\"} 9\n"),
      std::string::npos);
}

TEST(MetricsRegistryTest, SnapshotIsSortedByName) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("obs_test_zzz_total");
  reg.GetCounter("obs_test_aaa_total");
  std::vector<obs::MetricSample> snap = reg.Snapshot();
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LE(snap[i - 1].name, snap[i].name);
  }
}

// --- logger ----------------------------------------------------------------

std::vector<std::string>* CapturedLines() {
  static auto* lines = new std::vector<std::string>();
  return lines;
}

void CaptureSink(obs::LogLevel /*level*/, const std::string& line) {
  CapturedLines()->push_back(line);
}

TEST(LogTest, ParseLogLevel) {
  obs::LogLevel level;
  EXPECT_TRUE(obs::ParseLogLevel("debug", &level));
  EXPECT_EQ(level, obs::LogLevel::kDebug);
  EXPECT_TRUE(obs::ParseLogLevel("error", &level));
  EXPECT_EQ(level, obs::LogLevel::kError);
  EXPECT_FALSE(obs::ParseLogLevel("verbose", &level));
}

TEST(LogTest, LevelFiltersAndSinkReceivesFormattedLine) {
  CapturedLines()->clear();
  obs::SetLogSink(CaptureSink);
  obs::SetLogLevel(obs::LogLevel::kWarn);
  CQMS_LOG(kInfo, "dropped %d", 1);
  CQMS_LOG(kWarn, "kept %s", "one");
  CQMS_LOG(kError, "kept %s", "two");
  obs::SetLogSink(nullptr);
  obs::SetLogLevel(obs::LogLevel::kInfo);

  ASSERT_EQ(CapturedLines()->size(), 2u);
  const std::string& warn = (*CapturedLines())[0];
  EXPECT_NE(warn.find(" WARN kept one"), std::string::npos);
  // ISO8601 UTC stamp prefix: "YYYY-MM-DDTHH:MM:SS.mmmZ ".
  EXPECT_EQ(warn[4], '-');
  EXPECT_EQ(warn[10], 'T');
  EXPECT_EQ(warn[23], 'Z');
  EXPECT_NE((*CapturedLines())[1].find(" ERROR kept two"), std::string::npos);
}

// --- slow-query log --------------------------------------------------------

TEST(SlowQueryLogTest, WritesOneJsonObjectPerLine) {
  std::string path = ::testing::TempDir() + "/obs_test_slow.jsonl";
  std::remove(path.c_str());
  obs::SlowQueryLog log;
  ASSERT_TRUE(log.Open(path));
  ASSERT_TRUE(log.is_open());

  obs::ExecTrace trace;
  trace.generator = "full_scan";
  trace.Count("candidates", 12);
  trace.Span("filter_score", 34);
  log.Write("alice \"a\"", "Search", 4567, trace);
  log.Write("bob", "Search", 89, obs::ExecTrace());
  EXPECT_EQ(log.entries_written(), 2u);

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  std::vector<std::string> lines;
  while (std::fgets(buf, sizeof buf, f) != nullptr) lines.emplace_back(buf);
  std::fclose(f);

  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"viewer\":\"alice \\\"a\\\"\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"op\":\"Search\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"micros\":4567"), std::string::npos);
  EXPECT_NE(lines[0].find("\"generator\":\"full_scan\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"candidates\":12"), std::string::npos);
  EXPECT_NE(lines[0].find("\"filter_score\":34"), std::string::npos);
  EXPECT_EQ(lines[0].back(), '\n');
  EXPECT_NE(lines[1].find("\"micros\":89"), std::string::npos);
}

TEST(ExecTraceTest, ToJsonPreservesInsertionOrder) {
  obs::ExecTrace trace;
  trace.generator = "lsh_buckets";
  trace.Count("b", 2);
  trace.Count("a", 1);
  trace.Span("s1", 10);
  EXPECT_EQ(trace.ToJson(),
            "{\"generator\":\"lsh_buckets\",\"counters\":{\"b\":2,\"a\":1},"
            "\"spans_micros\":{\"s1\":10}}");
  EXPECT_EQ(trace.CounterOr("a"), 1u);
  EXPECT_EQ(trace.CounterOr("missing", 99), 99u);
}

// --- wire minor-1 round-trips ----------------------------------------------

TEST(WireMinorOneTest, SearchRequestTraceBitRoundTrips) {
  net::SearchRequest req;
  req.viewer = "alice";
  req.spec.keyword = net::KeywordSpec{"lake temp", true};
  req.spec.limit = 5;
  req.spec.want_trace = true;

  BinaryWriter w;
  net::EncodeSearchRequest(&w, req);
  BinaryReader r(w.data());
  net::SearchRequest got;
  ASSERT_TRUE(net::DecodeSearchRequest(&r, &got));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(got.spec.want_trace);
  EXPECT_EQ(got.viewer, "alice");
}

TEST(WireMinorOneTest, PreMinorOneSearchRequestDecodesWithoutTraceBit) {
  net::SearchRequest req;
  req.viewer = "alice";
  req.spec.substring = "GROUP BY";
  req.spec.want_trace = false;

  BinaryWriter w;
  net::EncodeSearchRequest(&w, req);
  // A pre-1.1 client's payload is today's encoding minus the single
  // trailing want_trace byte.
  std::string old_payload(w.data().substr(0, w.data().size() - 1));
  BinaryReader r(old_payload);
  net::SearchRequest got;
  ASSERT_TRUE(net::DecodeSearchRequest(&r, &got));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_FALSE(got.spec.want_trace);
  ASSERT_TRUE(got.spec.substring.has_value());
  EXPECT_EQ(*got.spec.substring, "GROUP BY");
}

TEST(WireMinorOneTest, SearchResultTraceRoundTrips) {
  net::SearchResult result;
  result.matches.push_back({7, 0.5, 0.9});
  result.generator = 1;
  result.candidates_considered = 42;
  result.trace.emplace();
  result.trace->generator = "lsh_buckets";
  result.trace->counters = {{"candidates", 42}, {"matches", 1}};
  result.trace->spans_micros = {{"rank", 3}};

  BinaryWriter w;
  net::EncodeSearchResult(&w, result);
  BinaryReader r(w.data());
  net::SearchResult got;
  ASSERT_TRUE(net::DecodeSearchResult(&r, &got));
  EXPECT_TRUE(r.AtEnd());
  ASSERT_TRUE(got.trace.has_value());
  EXPECT_EQ(got.trace->generator, "lsh_buckets");
  ASSERT_EQ(got.trace->counters.size(), 2u);
  EXPECT_EQ(got.trace->counters[0].first, "candidates");
  EXPECT_EQ(got.trace->counters[0].second, 42u);
  ASSERT_EQ(got.trace->spans_micros.size(), 1u);
  EXPECT_EQ(got.trace->spans_micros[0].first, "rank");
}

TEST(WireMinorOneTest, PreMinorOneSearchResultDecodesWithoutTrace) {
  net::SearchResult result;
  result.matches.push_back({7, 0.5, 0.9});
  result.candidates_considered = 42;

  BinaryWriter w;
  net::EncodeSearchResult(&w, result);
  // Minus the trailing has-trace bool = the pre-1.1 server's payload.
  std::string old_payload(w.data().substr(0, w.data().size() - 1));
  BinaryReader r(old_payload);
  net::SearchResult got;
  ASSERT_TRUE(net::DecodeSearchResult(&r, &got));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_FALSE(got.trace.has_value());
  EXPECT_EQ(got.candidates_considered, 42u);
}

TEST(WireMinorOneTest, StatsResultExtendedFieldsRoundTrip) {
  net::StatsResult stats;
  stats.server_version = "test/1";
  stats.store_size = 10;
  stats.durable_read_only = true;
  stats.checkpoint_failure_streak = 3;
  stats.checkpoints_backed_off = 2;
  stats.arena_garbage_bytes = 4096;

  BinaryWriter w;
  net::EncodeStatsResult(&w, stats);
  BinaryReader r(w.data());
  net::StatsResult got;
  ASSERT_TRUE(net::DecodeStatsResult(&r, &got));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(got.durable_read_only);
  EXPECT_EQ(got.checkpoint_failure_streak, 3u);
  EXPECT_EQ(got.checkpoints_backed_off, 2u);
  EXPECT_EQ(got.arena_garbage_bytes, 4096u);
}

TEST(WireMinorOneTest, PreMinorOneStatsResultDecodesToDefaults) {
  // Hand-encode the pre-1.1 StatsResult layout (no trailing durability
  // fields) and run it through today's decoder: the compat contract is
  // that the defaults stand and decoding succeeds.
  BinaryWriter w;
  w.PutString("old/1");
  w.PutVarint(123);  // uptime
  w.PutVarint(1);    // active
  w.PutVarint(2);    // total
  w.PutVarint(0);    // rejected
  w.PutVarint(0);    // protocol errors
  w.PutVarint(50);   // store size
  w.PutVarint(4);    // published seq
  w.PutVarint(0);    // no per-op rows
  BinaryReader r(w.data());
  net::StatsResult got;
  ASSERT_TRUE(net::DecodeStatsResult(&r, &got));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(got.server_version, "old/1");
  EXPECT_EQ(got.store_size, 50u);
  EXPECT_FALSE(got.durable_read_only);
  EXPECT_EQ(got.checkpoint_failure_streak, 0u);
  EXPECT_EQ(got.checkpoints_backed_off, 0u);
  EXPECT_EQ(got.arena_garbage_bytes, 0u);
}

// --- trace correctness vs oracle recounts ----------------------------------

/// Shared seeded log for the generator-path tests.
Harness& TraceLog() {
  static Harness* harness = [] {
    auto* h = new Harness();
    workload::WorkloadOptions options;
    options.num_sessions = 301;  // ~1500 queries: enough for LSH banding
    options.seed = 7;
    workload::RegisterUsers(&h->store, options);
    workload::GenerateLog(h->profiler.get(), &h->store, &h->clock, options);
    return h;
  }();
  return *harness;
}

/// Runs `request` twice — traced and untraced — and checks that the
/// trace agrees with the (identical) response and with itself.
MetaQueryResponse RunTraced(const MetaQueryRequest& request,
                            const std::string& viewer, obs::ExecTrace* trace) {
  Harness& h = TraceLog();
  MetaQueryPlanner planner(&h.store);

  MetaQueryRequest untraced = request;
  untraced.trace = nullptr;
  MetaQueryResponse base = planner.Execute(viewer, untraced);

  MetaQueryRequest traced = request;
  traced.trace = trace;
  MetaQueryResponse resp = planner.Execute(viewer, traced);

  // Tracing must not change results.
  EXPECT_EQ(resp.Ids(), base.Ids());
  EXPECT_EQ(resp.generator, base.generator);
  EXPECT_EQ(resp.candidates_considered, base.candidates_considered);

  // The trace's counters must agree with the response's own accounting.
  EXPECT_EQ(trace->generator,
            metaquery::CandidateGeneratorName(resp.generator));
  EXPECT_EQ(trace->CounterOr("candidates"), resp.candidates_considered);
  EXPECT_EQ(trace->CounterOr("matches"), resp.matches.size());
  EXPECT_GE(trace->CounterOr("matches_prefilter"),
            trace->CounterOr("matches"));
  // Every candidate passed through exactly one visibility resolution,
  // as a cache hit or a miss.
  EXPECT_LE(trace->CounterOr("visibility_cache_hits") +
                trace->CounterOr("visibility_cache_misses"),
            resp.candidates_considered);

  // All four pipeline spans, in execution order.
  EXPECT_EQ(trace->spans.size(), 4u);
  if (trace->spans.size() == 4) {
    EXPECT_EQ(trace->spans[0].first, "resolve_predicates");
    EXPECT_EQ(trace->spans[1].first, "generate_candidates");
    EXPECT_EQ(trace->spans[2].first, "filter_score");
    EXPECT_EQ(trace->spans[3].first, "rank");
  }
  return resp;
}

TEST(TraceCorrectnessTest, PostingIntersectionPath) {
  obs::ExecTrace trace;
  MetaQueryRequest req;
  req.WithKeywords("lake temp", true).InLogOrder();
  MetaQueryResponse resp = RunTraced(req, "user1", &trace);
  EXPECT_EQ(resp.generator, CandidateGenerator::kPostingIntersection);

  // Oracle recount: the reference keyword search returns the same
  // matches in log order; its size is the trace's "matches".
  Harness& h = TraceLog();
  std::vector<storage::QueryId> reference =
      metaquery::KeywordSearch(h.store, "user1", "lake temp", true);
  EXPECT_EQ(trace.CounterOr("matches"), reference.size());
  EXPECT_EQ(resp.Ids(), reference);
}

TEST(TraceCorrectnessTest, LshBucketsPath) {
  Harness& h = TraceLog();
  storage::QueryRecord probe = storage::BuildRecordFromText(
      "SELECT lake, AVG(temp) FROM WaterTemp WHERE temp > 6 GROUP BY lake",
      "user1", 0, storage::SignatureMode::kTransient);

  obs::ExecTrace trace;
  metaquery::CandidateOptions copts;
  copts.lsh_min_log_size = 1;  // force the LSH generator on this log
  MetaQueryRequest req;
  req.SimilarTo(probe, {}, copts).Limit(10);
  MetaQueryResponse resp = RunTraced(req, "user1", &trace);
  EXPECT_EQ(resp.generator, CandidateGenerator::kLshBuckets);

  // Oracle recount: the shared generator must report the same candidate
  // set size the trace recorded.
  metaquery::KnnCandidates cands =
      metaquery::KnnCandidateIds(storage::StoreView(h.store), probe, copts);
  EXPECT_EQ(cands.source, metaquery::CandidateGenerator::kLshBuckets);
  EXPECT_EQ(trace.CounterOr("candidates"),
            h.store.postings().RecordCount(cands.statements));
  EXPECT_EQ(trace.CounterOr("statements"), cands.statements.size());
}

TEST(TraceCorrectnessTest, TableUnionPath) {
  Harness& h = TraceLog();
  storage::QueryRecord probe = storage::BuildRecordFromText(
      "SELECT * FROM WaterTemp WHERE temp < 14", "user1", 0,
      storage::SignatureMode::kTransient);

  obs::ExecTrace trace;
  metaquery::CandidateOptions copts;
  copts.use_lsh = false;  // exhaustive table-union generator
  MetaQueryRequest req;
  req.SimilarTo(probe, {}, copts).Limit(10);
  MetaQueryResponse resp = RunTraced(req, "user1", &trace);
  EXPECT_EQ(resp.generator, CandidateGenerator::kTableUnion);

  metaquery::KnnCandidates cands =
      metaquery::KnnCandidateIds(storage::StoreView(h.store), probe, copts);
  EXPECT_EQ(cands.source, metaquery::CandidateGenerator::kTableUnion);
  EXPECT_EQ(trace.CounterOr("candidates"),
            h.store.postings().RecordCount(cands.statements));
  EXPECT_EQ(trace.CounterOr("statements"), cands.statements.size());
}

TEST(TraceCorrectnessTest, FullScanPath) {
  obs::ExecTrace trace;
  MetaQueryRequest req;
  req.WithSubstring("GROUP BY").InLogOrder();
  MetaQueryResponse resp = RunTraced(req, "user1", &trace);
  EXPECT_EQ(resp.generator, CandidateGenerator::kFullScan);

  // Full scan considers every record in the store, and every statement.
  Harness& h = TraceLog();
  EXPECT_EQ(trace.CounterOr("candidates"), h.store.size());
  EXPECT_EQ(trace.CounterOr("statements"), h.store.statement_count());
}

TEST(TraceCorrectnessTest, PlannerRegistrySeriesAdvance) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter* queries = reg.GetCounter(
      "cqms_planner_queries_total{generator=\"posting_intersection\"}");
  uint64_t before = queries->value();
  MetaQueryRequest req;
  req.WithKeywords("lake", true);
  Harness& h = TraceLog();
  MetaQueryPlanner planner(&h.store);
  planner.Execute("user1", req);
  EXPECT_EQ(queries->value(), before + 1);
}

}  // namespace
}  // namespace cqms
