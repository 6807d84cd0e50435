// MinHash/LSH candidate pruning tests: (1) a seeded statistical property
// test that the MinHash estimate converges to the exact Jaccard over the
// sketch element sets, (2) recall regression of LSH-pruned kNN against
// the brute-force reference on a 5k synthetic log (plus exact equality
// when the small-log fallback applies), and (3) lifecycle tests that
// RewriteQueryText and stats refresh keep the LshIndex consistent — no
// stale buckets, no duplicate candidates — mirroring the secondary-index
// purge tests.

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "maintain/query_maintenance.h"
#include "metaquery/meta_query_planner.h"
#include "metaquery_reference.h"
#include "storage/lsh_index.h"
#include "storage/minhash.h"
#include "storage/record_builder.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace cqms::metaquery {
namespace {

using storage::ComputeMinHashSketch;
using storage::EstimateJaccard;
using storage::LshIndex;
using storage::LshParams;
using storage::MinHashSketch;
using storage::QueryId;
using storage::QueryRecord;
using storage::SimilaritySignature;
using storage::SketchElements;
using storage::StatementId;
using testing_util::Harness;

/// The planner's top `k` matches for `probe`, its candidates generated
/// under `candidates`.
std::vector<MetaQueryMatch> Knn(const Harness& h, const QueryRecord& probe,
                                size_t k,
                                const CandidateOptions& candidates = {}) {
  return MetaQueryPlanner(&h.store)
      .Execute("user0", KnnRequest(probe, k, {}, candidates))
      .matches;
}

/// The statement record `id` holds — the key the LshIndex files it under.
StatementId StatementOf(const Harness& h, QueryId id) {
  return h.store.scoring().statement_of(id);
}

/// Builds a signature whose only elements are the given table Symbols
/// (the tables field is not keyword-filtered, so the element set is
/// exactly controllable from here).
SimilaritySignature TableSignature(std::vector<Symbol> symbols) {
  std::sort(symbols.begin(), symbols.end());
  symbols.erase(std::unique(symbols.begin(), symbols.end()), symbols.end());
  SimilaritySignature sig;
  sig.tables = std::move(symbols);
  sig.valid = true;
  return sig;
}

// --- satellite 1: MinHash estimate converges to exact Jaccard ------------

TEST(MinHashSketchTest, EstimateConvergesToExactJaccard) {
  Rng rng(20260727);
  double max_err = 0;
  double total_err = 0;
  size_t trials = 0;
  for (size_t set_size : {20u, 50u, 100u, 200u}) {
    for (int overlap_tenths = 0; overlap_tenths <= 10; ++overlap_tenths) {
      for (int rep = 0; rep < 12; ++rep) {
        // Plant `shared` common symbols plus disjoint remainders.
        size_t shared = set_size * overlap_tenths / 10;
        std::set<Symbol> used;
        auto fresh = [&] {
          Symbol s;
          do {
            s = static_cast<Symbol>(rng.Uniform(1u << 30));
          } while (!used.insert(s).second);
          return s;
        };
        std::vector<Symbol> common;
        for (size_t i = 0; i < shared; ++i) common.push_back(fresh());
        std::vector<Symbol> a = common, b = common;
        while (a.size() < set_size) a.push_back(fresh());
        while (b.size() < set_size) b.push_back(fresh());

        SimilaritySignature sig_a = TableSignature(std::move(a));
        SimilaritySignature sig_b = TableSignature(std::move(b));
        double exact =
            SortedJaccard(SketchElements(sig_a), SketchElements(sig_b));
        double estimate = EstimateJaccard(ComputeMinHashSketch(sig_a),
                                          ComputeMinHashSketch(sig_b));
        double err = std::abs(estimate - exact);
        max_err = std::max(max_err, err);
        total_err += err;
        ++trials;
      }
    }
  }
  ASSERT_GE(trials, 500u);
  // With 64 permutations the per-pair standard error is
  // sqrt(J(1-J)/64) <= 0.0625: the mean |error| over a mixed-J workload
  // sits well under one sigma and no pair should stray past ~4.5 sigma.
  // Seeded RNG makes both bounds deterministic.
  EXPECT_LT(total_err / static_cast<double>(trials), 0.05);
  EXPECT_LT(max_err, 0.30);
}

TEST(MinHashSketchTest, ExactAtTheExtremes) {
  Rng rng(99);
  std::vector<Symbol> base;
  for (int i = 0; i < 80; ++i) {
    base.push_back(static_cast<Symbol>(rng.Uniform(1u << 30)));
  }
  SimilaritySignature sig = TableSignature(base);
  // Identical sets estimate exactly 1.0 — every slot matches.
  EXPECT_DOUBLE_EQ(
      EstimateJaccard(ComputeMinHashSketch(sig), ComputeMinHashSketch(sig)),
      1.0);
  // Disjoint sets estimate ~0 (a shared slot needs a 64-bit hash
  // coincidence between distinct elements).
  std::vector<Symbol> other;
  for (int i = 0; i < 80; ++i) {
    other.push_back(static_cast<Symbol>((1u << 30) + i));
  }
  EXPECT_LT(EstimateJaccard(ComputeMinHashSketch(sig),
                            ComputeMinHashSketch(TableSignature(other))),
            0.05);
  // Empty signatures produce the empty sketch, which is not indexable.
  SimilaritySignature empty;
  empty.valid = true;
  MinHashSketch empty_sketch = ComputeMinHashSketch(empty);
  EXPECT_TRUE(empty_sketch.valid);
  EXPECT_TRUE(empty_sketch.empty());
  // A never-computed signature yields an invalid sketch, which the index
  // ignores, so a record without a signature is never LSH-indexed.
  SimilaritySignature uncomputed = sig;
  uncomputed.valid = false;
  MinHashSketch invalid = ComputeMinHashSketch(uncomputed);
  EXPECT_FALSE(invalid.valid);
  LshIndex index;
  index.Insert(1, invalid);
  EXPECT_EQ(index.entry_count(), 0u);
}

TEST(MinHashSketchTest, SqlKeywordsAreNotSketchElements) {
  // These two queries share *only* SQL keywords (SELECT/FROM). With
  // keywords excluded from the sketch elements, their element sets are
  // disjoint even though raw token Jaccard is well above zero.
  QueryRecord a = storage::BuildRecordFromText("SELECT alpha FROM Tweedle", "u", 0);
  QueryRecord b = storage::BuildRecordFromText("SELECT beta FROM Deedle", "u", 0);
  const SimilaritySignature& sa = a.statement().signature;
  const SimilaritySignature& sb = b.statement().signature;
  EXPECT_GT(TextSimilarity(ViewOfSignature(a), ViewOfSignature(b)), 0.2);
  EXPECT_DOUBLE_EQ(
      SortedJaccard(SketchElements(sa), SketchElements(sb)),
      0.0);
  EXPECT_LT(EstimateJaccard(ComputeMinHashSketch(sa),
                            ComputeMinHashSketch(sb)),
            0.05);
}

TEST(MinHashSketchTest, FieldSaltsKeepFieldsDistinct) {
  // The same Symbol placed in different signature fields must produce
  // different elements (a table named like a projection is not overlap).
  SimilaritySignature as_table;
  as_table.tables = {42};
  as_table.valid = true;
  SimilaritySignature as_projection;
  as_projection.projections = {42};
  as_projection.valid = true;
  EXPECT_DOUBLE_EQ(SortedJaccard(SketchElements(as_table),
                                 SketchElements(as_projection)),
                   0.0);
}

// --- LshIndex unit behavior ----------------------------------------------

TEST(LshIndexTest, InsertRemoveCandidates) {
  Rng rng(7);
  std::vector<Symbol> base;
  for (int i = 0; i < 60; ++i) {
    base.push_back(static_cast<Symbol>(rng.Uniform(1u << 30)));
  }
  MinHashSketch near = ComputeMinHashSketch(TableSignature(base));
  std::vector<Symbol> tweaked = base;
  tweaked[0] ^= 1;  // one element swapped: Jaccard ~ 59/61
  MinHashSketch near2 = ComputeMinHashSketch(TableSignature(tweaked));
  std::vector<Symbol> far_set;
  for (int i = 0; i < 60; ++i) far_set.push_back(static_cast<Symbol>(i + 1));
  MinHashSketch far = ComputeMinHashSketch(TableSignature(far_set));

  LshIndex index;
  index.Insert(1, near);
  index.Insert(2, near2);
  index.Insert(3, far);
  EXPECT_EQ(index.entry_count(), 3 * index.bands());
  EXPECT_TRUE(index.ContainsExactlyOnce(1, near));
  // Re-inserting must not duplicate postings.
  index.Insert(1, near);
  EXPECT_EQ(index.entry_count(), 3 * index.bands());

  std::vector<StatementId> c = index.Candidates(near);
  EXPECT_TRUE(std::binary_search(c.begin(), c.end(), StatementId{1}));
  // A near-duplicate sketch lands in (almost surely) some shared band.
  EXPECT_TRUE(std::binary_search(c.begin(), c.end(), StatementId{2}));
  EXPECT_FALSE(std::binary_search(c.begin(), c.end(), StatementId{3}));

  index.Remove(2, near2);
  EXPECT_EQ(index.entry_count(), 2 * index.bands());
  c = index.Candidates(near);
  EXPECT_FALSE(std::binary_search(c.begin(), c.end(), StatementId{2}));

  // Empty sketches are not indexable and yield no candidates.
  MinHashSketch empty;
  empty.valid = true;
  index.Insert(9, empty);
  EXPECT_EQ(index.entry_count(), 2 * index.bands());
  EXPECT_TRUE(index.Candidates(empty).empty());
}

TEST(LshIndexTest, BandingParamsClampToSketchSize) {
  LshIndex index({1000, 3});  // 3000 slots > 64: bands shrink to fit.
  EXPECT_LE(index.bands() * index.rows(), MinHashSketch::kSize);
  EXPECT_EQ(index.rows(), 3u);

  storage::QueryStore store(LshParams{16, 4});
  EXPECT_EQ(store.lsh().bands(), 16u);
  EXPECT_EQ(store.lsh().rows(), 4u);
}

TEST(LshIndexTest, ProbeBandsLimitsLookup) {
  Rng rng(11);
  std::vector<Symbol> base;
  for (int i = 0; i < 60; ++i) {
    base.push_back(static_cast<Symbol>(rng.Uniform(1u << 30)));
  }
  MinHashSketch sketch = ComputeMinHashSketch(TableSignature(base));
  LshIndex index;
  index.Insert(5, sketch);
  // Probing any prefix of bands still finds an identical sketch.
  EXPECT_EQ(index.Candidates(sketch, 1).size(), 1u);
  EXPECT_EQ(index.Candidates(sketch, index.bands()).size(), 1u);
}

// --- satellite 2: recall regression vs brute force -----------------------

/// One shared ~5k-query synthetic log (generation dominates test time,
/// so the recall cases reuse it). Leaked intentionally.
Harness& BigLog() {
  static Harness* harness = [] {
    auto* h = new Harness();
    workload::WorkloadOptions options;
    options.num_sessions = 1001;  // ~5 queries/session -> >= 5000 queries
    options.seed = 77;
    workload::RegisterUsers(&h->store, options);
    workload::GenerateLog(h->profiler.get(), &h->store, &h->clock, options);
    return h;
  }();
  return *harness;
}

/// Representative probes, one-plus per workload template family.
const char* kRecallProbes[] = {
    "SELECT T.lake, T.temp, S.salinity FROM WaterTemp T, WaterSalinity S "
    "WHERE T.temp < 18 AND S.loc_x = T.loc_x AND S.loc_y = T.loc_y",
    "SELECT * FROM WaterTemp T WHERE T.temp < 14",
    "SELECT lake, AVG(temp) AS avg_temp, COUNT(*) AS n FROM WaterTemp "
    "WHERE temp > 6 GROUP BY lake",
    "SELECT city FROM CityLocations WHERE state = 'WA' AND pop > 300000",
    "SELECT R.ts, R.value FROM Sensors N, Readings R "
    "WHERE N.sensor_id = R.sensor_id AND N.kind = 'temp'",
    "SELECT lake, SUM(count_obs) AS total FROM Species "
    "WHERE species IN ('carp') GROUP BY lake",
};

TEST(LshKnnRecallTest, RecallAtLeast095On5kLog) {
  Harness& h = BigLog();
  ASSERT_GE(h.store.size(), 5000u);

  const size_t k = 10;
  CandidateOptions exhaustive;
  exhaustive.use_lsh = false;
  double recall_sum = 0;
  size_t probes = 0;
  size_t total_lsh_candidates = 0;
  size_t total_table_candidates = 0;
  for (const char* sql : kRecallProbes) {
    QueryRecord probe = storage::BuildRecordFromText(
        sql, "user0", 0, storage::SignatureMode::kTransient);
    ASSERT_FALSE(probe.parse_failed()) << sql;
    // The default path must actually take the LSH branch on this log.
    ASSERT_GE(h.store.size(), CandidateOptions{}.lsh_min_log_size);
    std::vector<MetaQueryMatch> lsh = Knn(h, probe, k);
    std::vector<MetaQueryMatch> reference = Knn(h, probe, k, exhaustive);
    ASSERT_EQ(reference.size(), k) << sql;

    std::set<QueryId> reference_ids;
    for (const MetaQueryMatch& n : reference) reference_ids.insert(n.id);
    size_t hits = 0;
    for (const MetaQueryMatch& n : lsh) hits += reference_ids.count(n.id);
    recall_sum += static_cast<double>(hits) / static_cast<double>(k);
    ++probes;

    // The point of LSH: per probe the candidate set is no larger than
    // what the table index would have scored...
    size_t lsh_candidates = h.store.postings().RecordCount(
        h.store.lsh().Candidates(
            ComputeMinHashSketch(probe.statement().signature)));
    size_t table_candidates = h.store.postings().RecordCount(
        KnnCandidateIds(storage::StoreView(h.store), probe, exhaustive)
            .statements);
    EXPECT_LE(lsh_candidates, table_candidates) << sql;
    total_lsh_candidates += lsh_candidates;
    total_table_candidates += table_candidates;
  }
  double recall = recall_sum / static_cast<double>(probes);
  EXPECT_GE(recall, 0.95) << "mean recall@10 over " << probes << " probes";
  // ...and in aggregate the pruning is substantial (less than half the
  // brute-force candidate volume).
  EXPECT_LT(total_lsh_candidates, total_table_candidates / 2);
}

TEST(LshKnnRecallTest, FallbackBelowThresholdIsExactlyBruteForce) {
  Harness h;
  workload::WorkloadOptions options;
  options.num_sessions = 25;  // ~150 queries, far below lsh_min_log_size
  workload::RegisterUsers(&h.store, options);
  workload::GenerateLog(h.profiler.get(), &h.store, &h.clock, options);
  ASSERT_LT(h.store.size(), CandidateOptions{}.lsh_min_log_size);

  CandidateOptions exhaustive;
  exhaustive.use_lsh = false;
  for (const char* sql : kRecallProbes) {
    QueryRecord probe = storage::BuildRecordFromText(
        sql, "user0", 0, storage::SignatureMode::kTransient);
    ASSERT_FALSE(probe.parse_failed()) << sql;
    std::vector<MetaQueryMatch> defaulted = Knn(h, probe, 10);
    std::vector<MetaQueryMatch> reference = Knn(h, probe, 10, exhaustive);
    ASSERT_EQ(defaulted.size(), reference.size()) << sql;
    for (size_t i = 0; i < defaulted.size(); ++i) {
      EXPECT_EQ(defaulted[i].id, reference[i].id) << sql << " i=" << i;
      EXPECT_DOUBLE_EQ(defaulted[i].score, reference[i].score);
    }
  }
}

TEST(LshKnnRecallTest, DeletedRecordsStayInvisibleThroughLsh) {
  Harness h;
  QueryId id = h.Log("user0", "SELECT temp FROM WaterTemp WHERE temp < 20");
  h.Log("user0", "SELECT temp FROM WaterTemp WHERE temp < 21");
  ASSERT_TRUE(h.store.Delete(id, "user0").ok());

  QueryRecord probe = storage::BuildRecordFromText(
      "SELECT temp FROM WaterTemp WHERE temp < 20", "user0", 0,
      storage::SignatureMode::kTransient);
  CandidateOptions force_lsh;
  force_lsh.lsh_min_log_size = 0;
  std::vector<MetaQueryMatch> result = Knn(h, probe, 10, force_lsh);
  ASSERT_FALSE(result.empty());
  for (const MetaQueryMatch& n : result) EXPECT_NE(n.id, id);
}

// --- satellite 3: lifecycle keeps the LshIndex consistent ----------------

TEST(LshLifecycleTest, RewritePurgesStaleLshBuckets) {
  Harness h;
  QueryId id = h.Log("user0", "SELECT temp FROM WaterTemp WHERE temp < 20");
  QueryId other = h.Log("user0", "SELECT name FROM Species");
  ASSERT_NE(id, storage::kInvalidQueryId);
  MinHashSketch old_sketch =
      ComputeMinHashSketch(h.store.Get(id)->statement().signature);
  ASSERT_TRUE(old_sketch.valid);
  ASSERT_TRUE(h.store.lsh().ContainsExactlyOnce(StatementOf(h, id),
                                                old_sketch));
  size_t entries_before = h.store.lsh().entry_count();
  EXPECT_EQ(entries_before, 2 * h.store.lsh().bands());

  ASSERT_TRUE(h.store
                  .RewriteQueryText(
                      id, "SELECT salinity FROM WaterSalinity WHERE salinity > 3")
                  .ok());

  MinHashSketch new_sketch =
      ComputeMinHashSketch(h.store.Get(id)->statement().signature);
  // The record's statement is findable under its new sketch, exactly
  // once per band...
  EXPECT_TRUE(h.store.lsh().ContainsExactlyOnce(StatementOf(h, id),
                                                new_sketch));
  // ...the old sketch's buckets no longer hold it...
  EXPECT_FALSE(h.store.lsh().ContainsExactlyOnce(StatementOf(h, id),
                                                 old_sketch));
  std::vector<QueryId> via_old =
      h.store.postings().RecordsOf(h.store.lsh().Candidates(old_sketch));
  EXPECT_FALSE(std::binary_search(via_old.begin(), via_old.end(), id));
  // ...and the global posting count proves nothing leaked: still
  // exactly bands() postings per indexed statement.
  EXPECT_EQ(h.store.lsh().entry_count(), 2 * h.store.lsh().bands());

  // Candidate lists stay duplicate-free and sorted after the re-index.
  std::vector<QueryId> candidates =
      h.store.postings().RecordsOf(h.store.lsh().Candidates(new_sketch));
  EXPECT_TRUE(std::is_sorted(candidates.begin(), candidates.end()));
  EXPECT_EQ(std::adjacent_find(candidates.begin(), candidates.end()),
            candidates.end());
  EXPECT_TRUE(std::binary_search(candidates.begin(), candidates.end(), id));
  // The untouched record is still indexed under its own sketch.
  EXPECT_TRUE(h.store.lsh().ContainsExactlyOnce(
      StatementOf(h, other),
      ComputeMinHashSketch(h.store.Get(other)->statement().signature)));
}

TEST(LshLifecycleTest, RepeatedRewritesNeverAccumulateEntries) {
  Harness h;
  QueryId id = h.Log("user0", "SELECT temp FROM WaterTemp WHERE temp < 20");
  const char* rewrites[] = {
      "SELECT salinity FROM WaterSalinity WHERE salinity > 3",
      "SELECT name FROM Species WHERE name = 'carp'",
      "SELECT temp FROM WaterTemp WHERE temp < 25",
  };
  for (const char* sql : rewrites) {
    ASSERT_TRUE(h.store.RewriteQueryText(id, sql).ok());
    EXPECT_EQ(h.store.lsh().entry_count(), h.store.lsh().bands());
    EXPECT_TRUE(h.store.lsh().ContainsExactlyOnce(
        StatementOf(h, id),
        ComputeMinHashSketch(h.store.Get(id)->statement().signature)));
  }
}

TEST(LshLifecycleTest, StatsRefreshKeepsLshConsistent) {
  Harness h(50);
  QueryId id = h.Log("u", "SELECT * FROM WaterTemp WHERE temp > 90");
  MinHashSketch sketch_before =
      ComputeMinHashSketch(h.store.Get(id)->statement().signature);
  size_t entries_before = h.store.lsh().entry_count();

  maintain::MaintenanceOptions opts;
  opts.drift_threshold = 0.2;
  opts.reexecute_budget = 10;
  maintain::QueryMaintenance maintenance(&h.database, &h.store, &h.clock, opts);
  maintenance.RefreshStatistics();  // baseline snapshot
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(h.database
                    .Insert("WaterTemp", {db::Value::String("Union"),
                                          db::Value::Int(1), db::Value::Int(1),
                                          db::Value::Double(95.0)})
                    .ok());
  }
  maintain::MaintenanceReport report = maintenance.RefreshStatistics();
  ASSERT_GE(report.stats_refreshed, 1u);

  // The refresh replaced the output summary, but output rows are not
  // sketch elements: the sketch is bit-identical, the record is still
  // indexed exactly once per band, and no postings appeared or vanished.
  MinHashSketch sketch_after =
      ComputeMinHashSketch(h.store.Get(id)->statement().signature);
  EXPECT_EQ(sketch_after.mins, sketch_before.mins);
  EXPECT_TRUE(h.store.lsh().ContainsExactlyOnce(StatementOf(h, id),
                                                sketch_after));
  EXPECT_EQ(h.store.lsh().entry_count(), entries_before);
}

// --- clustering pair pruning ---------------------------------------------

/// Forcing the sketch-pruned DistanceMatrix path (min_points = 1) must
/// reproduce the exact single-linkage clustering at a tight threshold:
/// every within-threshold pair has high combined similarity, hence high
/// element Jaccard, hence co-buckets in the wide 32x2 pruning banding
/// with near-certainty (deterministic under the fixed workload seed).
TEST(SketchPrunedClusteringTest, AgglomerativeMatchesExactAtTightThreshold) {
  Harness h;
  workload::WorkloadOptions options;
  options.num_sessions = 40;
  options.seed = 5;
  workload::RegisterUsers(&h.store, options);
  workload::GenerateLog(h.profiler.get(), &h.store, &h.clock, options);
  std::vector<QueryId> ids;
  for (const QueryRecord& r : h.store.records()) {
    if (!r.parse_failed()) ids.push_back(r.id);
  }
  ASSERT_GT(ids.size(), 100u);

  miner::Clustering exact =
      miner::AgglomerativeCluster(h.store, ids, 0.25, {}, /*prune=*/0);
  miner::Clustering pruned =
      miner::AgglomerativeCluster(h.store, ids, 0.25, {}, /*prune=*/1);
  ASSERT_EQ(exact.num_clusters(), pruned.num_clusters());
  EXPECT_GT(exact.num_clusters(), 1u);
  for (size_t c = 0; c < exact.num_clusters(); ++c) {
    EXPECT_EQ(exact.clusters[c], pruned.clusters[c]) << "cluster " << c;
    EXPECT_EQ(exact.medoids[c], pruned.medoids[c]) << "cluster " << c;
  }

  // KMedoids under forced pruning stays a valid partition of the input.
  miner::KMedoidsOptions km;
  km.k = 6;
  km.sketch_prune_min_points = 1;
  miner::Clustering km_pruned = miner::KMedoidsCluster(h.store, ids, km);
  size_t total = 0;
  for (const auto& cluster : km_pruned.clusters) total += cluster.size();
  EXPECT_EQ(total, ids.size());
  EXPECT_EQ(km_pruned.clusters.size(), km_pruned.medoids.size());
}

TEST(LshLifecycleTest, TransientProbeSketchIsRebuiltOnAppend) {
  Harness h;
  h.Log("user0", "SELECT temp FROM WaterTemp WHERE temp < 20");
  QueryRecord probe = storage::BuildRecordFromText(
      "SELECT temp, zzlshnovelcol FROM WaterTemp WHERE zzlshnovelcol = 1",
      "user0", 0, storage::SignatureMode::kTransient);
  MinHashSketch transient_sketch =
      ComputeMinHashSketch(probe.statement().signature);
  ASSERT_TRUE(transient_sketch.valid);

  QueryId id = h.store.Append(std::move(probe));
  MinHashSketch stored_sketch =
      ComputeMinHashSketch(h.store.Get(id)->statement().signature);
  // The transient sketch hashed probe-local ids for the novel column;
  // the stored record's sketch uses the interned ids and is what the
  // index was fed.
  EXPECT_NE(stored_sketch.mins, transient_sketch.mins);
  EXPECT_TRUE(
      h.store.lsh().ContainsExactlyOnce(StatementOf(h, id), stored_sketch));
}

}  // namespace
}  // namespace cqms::metaquery
