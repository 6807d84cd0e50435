// Equivalence and regression tests for the precomputed similarity
// signatures: the interned fast path must produce scores identical to the
// string-based reference path across the full synthetic workload, and kNN
// must return exactly the neighbors a brute-force reference search finds.

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "common/interner.h"
#include "maintain/query_maintenance.h"
#include "metaquery/meta_query_planner.h"
#include "metaquery_reference.h"
#include "storage/record_builder.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace cqms::metaquery {
namespace {

using storage::QueryId;
using storage::QueryRecord;
using testing_util::Harness;

TEST(InternerTest, AssignsStableIds) {
  StringInterner interner;
  Symbol a = interner.Intern("watertemp");
  Symbol b = interner.Intern("watersalinity");
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.Intern("watertemp"), a);
  EXPECT_EQ(interner.Find("watertemp"), a);
  EXPECT_EQ(interner.Find("never-seen"), kInvalidSymbol);
  EXPECT_EQ(interner.NameOf(a), "watertemp");
  EXPECT_EQ(interner.size(), 2u);
  // Find() must not insert.
  EXPECT_EQ(interner.Find("still-never-seen"), kInvalidSymbol);
  EXPECT_EQ(interner.size(), 2u);
}

TEST(SimilaritySignatureTest, BuildRecordComputesSignature) {
  QueryRecord r = storage::BuildRecordFromText(
      "SELECT temp FROM WaterTemp WHERE temp < 20", "u", 0);
  ASSERT_TRUE(r.statement().signature.valid);
  EXPECT_EQ(r.statement().signature.tables.size(), 1u);
  EXPECT_FALSE(r.statement().signature.text_tokens.empty());
  EXPECT_TRUE(std::is_sorted(r.statement().signature.text_tokens.begin(),
                             r.statement().signature.text_tokens.end()));
  // Unparsable text still gets a text-token signature.
  QueryRecord broken = storage::BuildRecordFromText("SELEC nonsense FRM", "u", 0);
  ASSERT_TRUE(broken.statement().signature.valid);
  EXPECT_TRUE(broken.statement().signature.tables.empty());
  EXPECT_FALSE(broken.statement().signature.text_tokens.empty());
}

TEST(SimilaritySignatureTest, IdenticalAndDisjointPairs) {
  QueryRecord a = storage::BuildRecordFromText(
      "SELECT temp FROM WaterTemp WHERE temp < 20", "u", 0);
  QueryRecord b = storage::BuildRecordFromText(
      "SELECT temp FROM WaterTemp WHERE temp < 20", "u", 0);
  QueryRecord c = storage::BuildRecordFromText(
      "SELECT name FROM Species WHERE name = 'carp'", "u", 0);
  const SignatureView sa = ViewOfSignature(a);
  const SignatureView sb = ViewOfSignature(b);
  const SignatureView sc = ViewOfSignature(c);
  EXPECT_DOUBLE_EQ(FeatureSimilarity(sa, sb), 1.0);
  EXPECT_DOUBLE_EQ(TextSimilarity(sa, sb), 1.0);
  EXPECT_LT(FeatureSimilarity(sa, sc), 0.2);
  // Only SQL keywords overlap (select/from/where = 3 of 9 tokens).
  EXPECT_NEAR(TextSimilarity(sa, sc), 1.0 / 3.0, 1e-12);
}

/// The workhorse: every pairwise combined similarity over a mixed
/// synthetic log (parsed queries, typo'd unparsable queries, output
/// summaries of varying sizes) must match the reference path to 1e-12,
/// for several weight mixes.
TEST(SimilaritySignatureTest, MatchesReferencePathOnSyntheticWorkload) {
  Harness h;
  workload::WorkloadOptions options;
  options.num_sessions = 30;
  options.typo_rate = 0.10;  // Make sure unparsable records participate.
  workload::RegisterUsers(&h.store, options);
  workload::GenerateLog(h.profiler.get(), &h.store, &h.clock, options);
  ASSERT_GT(h.store.size(), 100u);

  const SimilarityWeights mixes[] = {
      {},                 // default combined mix
      {1.0, 0.0, 0.0},    // feature-only
      {0.2, 0.8, 0.0},    // text-heavy
      {0.3, 0.2, 0.5},    // output-heavy
  };
  const auto& records = h.store.records();
  size_t compared = 0;
  for (const SimilarityWeights& weights : mixes) {
    for (size_t i = 0; i < records.size(); i += 3) {
      for (size_t j = i + 1; j < records.size(); j += 5) {
        double fast = CombinedSimilarity(records[i], records[j], weights);
        double reference =
            CombinedSimilarityReference(records[i], records[j], weights);
        ASSERT_NEAR(fast, reference, 1e-12)
            << "pair (" << i << ", " << j << ")";
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 1000u);
}

/// Brute-force reference kNN: full candidate generation with a std::set,
/// per-call max_ts scan, store.Visible, and reference similarity — the
/// pre-signature implementation, kept here as executable specification.
std::vector<MetaQueryMatch> ReferenceKnn(const storage::QueryStore& store,
                                         const std::string& viewer,
                                         const QueryRecord& probe, size_t k,
                                         const SimilarityWeights& weights,
                                         const RankingOptions& ranking) {
  std::set<QueryId> candidates;
  if (!probe.parse_failed() && !probe.components->tables.empty()) {
    for (const std::string& t : probe.components->tables) {
      for (QueryId id : store.QueriesUsingTable(t)) candidates.insert(id);
    }
  } else {
    for (const auto& r : store.records()) candidates.insert(r.id);
  }
  Micros max_ts = 1;
  for (const auto& r : store.records()) max_ts = std::max(max_ts, r.timestamp);

  std::vector<MetaQueryMatch> scored;
  for (QueryId id : candidates) {
    if (!store.Visible(viewer, id)) continue;
    const QueryRecord* r = store.Get(id);
    if (r == nullptr) continue;
    if (ranking.exclude_flagged &&
        (r->HasFlag(storage::kFlagSchemaBroken) ||
         r->HasFlag(storage::kFlagObsolete))) {
      continue;
    }
    double sim = CombinedSimilarityReference(probe, *r, weights);
    if (sim < ranking.min_similarity) continue;
    double popularity =
        std::log1p(static_cast<double>(store.PopularityOf(r->fingerprint))) /
        std::log1p(static_cast<double>(store.size()) + 1.0);
    double recency = static_cast<double>(r->timestamp) / static_cast<double>(max_ts);
    double score = ranking.w_similarity * sim + ranking.w_popularity * popularity +
                   ranking.w_quality * r->quality + ranking.w_recency * recency;
    scored.push_back({id, sim, score});
  }
  size_t keep = std::min(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + keep, scored.end(),
                    [](const MetaQueryMatch& a, const MetaQueryMatch& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.id < b.id;
                    });
  scored.resize(keep);
  return scored;
}

TEST(SimilaritySignatureTest, KnnMatchesBruteForceReference) {
  Harness h;
  workload::WorkloadOptions options;
  options.num_sessions = 25;
  workload::RegisterUsers(&h.store, options);
  workload::GenerateLog(h.profiler.get(), &h.store, &h.clock, options);

  const char* probes[] = {
      "SELECT T.temp FROM WaterSalinity S, WaterTemp T "
      "WHERE S.loc_x = T.loc_x AND T.temp < 20",
      "SELECT avg(temp) FROM WaterTemp GROUP BY loc_x",
      "SELECT * FROM Species",
  };
  for (const char* sql : probes) {
    QueryRecord probe = storage::BuildRecordFromText(sql, "user0", 0);
    ASSERT_FALSE(probe.parse_failed()) << sql;
    for (size_t k : {1u, 10u, 50u}) {
      std::vector<MetaQueryMatch> fast =
          MetaQueryPlanner(&h.store)
              .Execute("user0", KnnRequest(probe, k))
              .matches;
      std::vector<MetaQueryMatch> reference =
          ReferenceKnn(h.store, "user0", probe, k, {}, {});
      ASSERT_EQ(fast.size(), reference.size()) << sql << " k=" << k;
      for (size_t i = 0; i < fast.size(); ++i) {
        EXPECT_EQ(fast[i].id, reference[i].id) << sql << " k=" << k << " i=" << i;
        EXPECT_NEAR(fast[i].similarity, reference[i].similarity, 1e-12);
        EXPECT_NEAR(fast[i].score, reference[i].score, 1e-12);
      }
    }
  }
}

/// kNN top-k regression on a fixed seed: the exact ids are not asserted
/// (they depend on generator internals), but the result must be stable
/// across two identical searches and respect the ranking invariants.
TEST(SimilaritySignatureTest, KnnDeterministicAndRanked) {
  Harness h;
  workload::WorkloadOptions options;
  options.num_sessions = 25;
  options.seed = 1234;
  workload::RegisterUsers(&h.store, options);
  workload::GenerateLog(h.profiler.get(), &h.store, &h.clock, options);

  QueryRecord probe = storage::BuildRecordFromText(
      "SELECT T.temp FROM WaterTemp T WHERE T.temp < 18", "user1", 0);
  MetaQueryPlanner planner(&h.store);
  std::vector<MetaQueryMatch> first =
      planner.Execute("user1", KnnRequest(probe, 10)).matches;
  std::vector<MetaQueryMatch> second =
      planner.Execute("user1", KnnRequest(probe, 10)).matches;
  ASSERT_FALSE(first.empty());
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].id, second[i].id);
    EXPECT_DOUBLE_EQ(first[i].score, second[i].score);
  }
  for (size_t i = 1; i < first.size(); ++i) {
    EXPECT_GE(first[i - 1].score, first[i].score);
  }
}

TEST(SimilaritySignatureTest, TransientProbesDoNotGrowInterner) {
  Harness h;
  h.Log("user0", "SELECT temp FROM WaterTemp WHERE temp < 20");
  size_t interned_before = GlobalInterner().size();

  storage::QueryRecord probe = storage::BuildRecordFromText(
      "SELECT temp, zzneverloggedcol FROM WaterTemp WHERE zzneverloggedcol = 1",
      "user0", 0, storage::SignatureMode::kTransient);
  EXPECT_EQ(GlobalInterner().size(), interned_before);
  ASSERT_TRUE(probe.statement().signature.valid);
  EXPECT_TRUE(probe.statement().signature.transient);

  // Known tokens resolve to real interner ids, so probe-vs-log similarity
  // still matches the string reference exactly.
  const storage::QueryRecord& logged = h.store.records().front();
  EXPECT_NEAR(CombinedSimilarity(probe, logged),
              CombinedSimilarityReference(probe, logged), 1e-12);

  // Appending a transient-signature record re-interns it, so the keyword
  // index never sees hash-derived ids.
  storage::QueryId id = h.store.Append(std::move(probe));
  EXPECT_FALSE(h.store.Get(id)->statement().signature.transient);
  EXPECT_GT(GlobalInterner().size(), interned_before);
  EXPECT_EQ(h.store.QueriesWithKeyword("zzneverloggedcol").size(), 1u);
}

TEST(SimilaritySignatureTest, AppendMaintainsMaxTimestamp) {
  Harness h;
  EXPECT_EQ(h.store.max_timestamp(), 0);
  h.Log("user0", "SELECT temp FROM WaterTemp");
  Micros first = h.store.max_timestamp();
  EXPECT_GT(first, 0);
  h.Log("user0", "SELECT salinity FROM WaterSalinity");
  EXPECT_GT(h.store.max_timestamp(), first);
  // Appending an older record must not move the maximum backwards.
  QueryRecord old_record = storage::BuildRecordFromText(
      "SELECT name FROM Species", "user0", 1);
  Micros before = h.store.max_timestamp();
  h.store.Append(std::move(old_record));
  EXPECT_EQ(h.store.max_timestamp(), before);
}

TEST(SimilaritySignatureTest, RewritePurgesStaleIndexEntries) {
  Harness h;
  QueryId id = h.Log("user0", "SELECT temp FROM WaterTemp WHERE temp < 20");
  ASSERT_NE(id, storage::kInvalidQueryId);
  const QueryRecord* before = h.store.Get(id);
  uint64_t old_skeleton = before->statement().skeleton_fingerprint;

  auto contains = [](const std::vector<QueryId>& ids, QueryId target) {
    return std::find(ids.begin(), ids.end(), target) != ids.end();
  };
  ASSERT_TRUE(contains(h.store.QueriesUsingTable("watertemp"), id));
  ASSERT_TRUE(contains(h.store.QueriesWithKeyword("watertemp"), id));

  Status s = h.store.RewriteQueryText(
      id, "SELECT salinity FROM WaterSalinity WHERE salinity > 3");
  ASSERT_TRUE(s.ok()) << s.ToString();

  // Old features are gone from every index...
  EXPECT_FALSE(contains(h.store.QueriesUsingTable("watertemp"), id));
  EXPECT_FALSE(contains(h.store.QueriesWithKeyword("watertemp"), id));
  EXPECT_FALSE(contains(h.store.QueriesUsingAttribute("watertemp", "temp"), id));
  const storage::PostingIndex& postings = h.store.postings();
  EXPECT_FALSE(contains(
      postings.RecordsOf(postings.StatementsWithSkeleton(old_skeleton)), id));
  // ...and the new ones are present.
  EXPECT_TRUE(contains(h.store.QueriesUsingTable("watersalinity"), id));
  EXPECT_TRUE(contains(h.store.QueriesWithKeyword("watersalinity"), id));
  const QueryRecord* after = h.store.Get(id);
  EXPECT_TRUE(
      contains(postings.RecordsOf(postings.StatementsWithSkeleton(
                   after->statement().skeleton_fingerprint)),
               id));

  // Posting lists stay sorted after a mid-log reinsertion.
  h.Log("user0", "SELECT salinity FROM WaterSalinity");
  const auto& ids = h.store.QueriesUsingTable("watersalinity");
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));

  // The signature was rebuilt: similarity against a salinity probe is now
  // identical between fast and reference paths.
  QueryRecord probe = storage::BuildRecordFromText(
      "SELECT salinity FROM WaterSalinity WHERE salinity > 5", "user0", 0);
  EXPECT_NEAR(CombinedSimilarity(probe, *after),
              CombinedSimilarityReference(probe, *after), 1e-12);
  EXPECT_GT(CombinedSimilarity(probe, *after), 0.5);
}

TEST(SimilaritySignatureTest, StatsRefreshRebuildsOutputSignature) {
  Harness h(50);
  QueryId id = h.Log("u", "SELECT * FROM WaterTemp WHERE temp > 90");
  maintain::MaintenanceOptions opts;
  opts.drift_threshold = 0.2;
  opts.reexecute_budget = 10;
  maintain::QueryMaintenance maintenance(&h.database, &h.store, &h.clock, opts);
  maintenance.RefreshStatistics();  // baseline snapshot

  // Drift the data so the refresh re-executes the query and replaces its
  // output summary with new rows.
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(h.database
                    .Insert("WaterTemp", {db::Value::String("Union"),
                                          db::Value::Int(1), db::Value::Int(1),
                                          db::Value::Double(95.0)})
                    .ok());
  }
  uint64_t rows_before = h.store.Get(id)->stats.result_rows;
  maintain::MaintenanceReport r = maintenance.RefreshStatistics();
  ASSERT_GE(r.stats_refreshed, 1u);
  ASSERT_GT(h.store.Get(id)->stats.result_rows, rows_before);

  // The refreshed record's cached signature must describe the *new*
  // output: an output-heavy comparison through the fast path has to agree
  // with the reference path, which reads the summary directly.
  QueryId other = h.Log("u", "SELECT * FROM WaterTemp WHERE temp > 91");
  SimilarityWeights output_heavy{0.2, 0.1, 0.7};
  const storage::QueryRecord* a = h.store.Get(id);
  const storage::QueryRecord* b = h.store.Get(other);
  EXPECT_NEAR(CombinedSimilarity(*a, *b, output_heavy),
              CombinedSimilarityReference(*a, *b, output_heavy), 1e-12);
}

TEST(SimilaritySignatureTest, TextOnlyRecordsGetSignaturesOnAppend) {
  Harness h;
  h.profiler->set_level(profiler::ProfilingLevel::kTextOnly);
  QueryId id = h.Log("user0", "SELECT temp FROM WaterTemp WHERE temp < 20");
  ASSERT_NE(id, storage::kInvalidQueryId);
  const QueryRecord* r = h.store.Get(id);
  ASSERT_TRUE(r->parse_failed());  // kTextOnly skips parsing.
  ASSERT_TRUE(r->statement().signature.valid);
  EXPECT_FALSE(r->statement().signature.text_tokens.empty());

  QueryRecord probe = storage::BuildRecordFromText(
      "SELECT temp FROM WaterTemp WHERE temp < 25", "user0", 0);
  EXPECT_NEAR(CombinedSimilarity(probe, *r),
              CombinedSimilarityReference(probe, *r), 1e-12);
  EXPECT_GT(CombinedSimilarity(probe, *r), 0.0);
}

}  // namespace
}  // namespace cqms::metaquery
