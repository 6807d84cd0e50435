// Incremental mining engine tests: (1) the headline equality suite — a
// seeded ~5k synthetic log driven through several MaybeRefresh cycles
// of interleaved appends / rewrites / deletes / flag flips / output
// syncs must leave sessions, association rules, popularity and
// clustering *bit-identical* to a from-scratch RunAll on the same final
// store; (2) CachedDistanceMatrix-vs-DenseDistanceMatrix equality and
// pair counts across mutations and enumeration modes, and windows that
// change mode or re-admit an older id between refreshes; (3)
// incremental sessionizer edge cases (out-of-order appends, undeletes);
// (4) the O(1)/indexed FindSession / SessionsOfUser / ClusterOf lookups
// against linear references.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "metaquery_reference.h"
#include "miner/query_miner.h"
#include "storage/record_builder.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace cqms::miner {
namespace {

using storage::QueryId;
using testing_util::Harness;

void ExpectSessionsEqual(const std::vector<Session>& got,
                         const std::vector<Session>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("session " + std::to_string(i));
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_EQ(got[i].user, want[i].user);
    EXPECT_EQ(got[i].queries, want[i].queries);
    EXPECT_EQ(got[i].start, want[i].start);
    EXPECT_EQ(got[i].end, want[i].end);
    ASSERT_EQ(got[i].edges.size(), want[i].edges.size());
    for (size_t e = 0; e < got[i].edges.size(); ++e) {
      EXPECT_EQ(got[i].edges[e].from, want[i].edges[e].from);
      EXPECT_EQ(got[i].edges[e].to, want[i].edges[e].to);
      const auto& ge = got[i].edges[e].diff.edits;
      const auto& we = want[i].edges[e].diff.edits;
      ASSERT_EQ(ge.size(), we.size());
      for (size_t k = 0; k < ge.size(); ++k) {
        EXPECT_EQ(ge[k].kind, we[k].kind);
        EXPECT_EQ(ge[k].detail, we[k].detail);
      }
    }
  }
}

void ExpectRulesEqual(const std::vector<AssociationRule>& got,
                      const std::vector<AssociationRule>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("rule " + std::to_string(i));
    EXPECT_EQ(got[i].antecedent, want[i].antecedent);
    EXPECT_EQ(got[i].consequent, want[i].consequent);
    EXPECT_EQ(got[i].count, want[i].count);
    // Bit-identical, not approximately equal: both paths must compute
    // the ratios from the same integers.
    EXPECT_EQ(got[i].support, want[i].support);
    EXPECT_EQ(got[i].confidence, want[i].confidence);
  }
}

void ExpectClusteringEqual(const Clustering& got, const Clustering& want) {
  EXPECT_EQ(got.clusters, want.clusters);
  EXPECT_EQ(got.medoids, want.medoids);
}

void ExpectPopularityEqual(const PopularityTracker& got,
                           const PopularityTracker& want) {
  EXPECT_EQ(got.table_scores(), want.table_scores());
  EXPECT_EQ(got.skeleton_scores(), want.skeleton_scores());
  EXPECT_EQ(got.attribute_scores(), want.attribute_scores());
  EXPECT_EQ(got.fingerprint_scores(), want.fingerprint_scores());
}

void ExpectMinersEqual(const QueryMiner& got, const QueryMiner& want) {
  ExpectSessionsEqual(got.sessions(), want.sessions());
  ExpectRulesEqual(got.rules(), want.rules());
  ExpectClusteringEqual(got.clustering(), want.clustering());
  ExpectPopularityEqual(got.popularity(), want.popularity());
}

/// Parsed, non-deleted ids eligible for a rewrite/delete probe.
std::vector<QueryId> LiveParsedIds(const storage::QueryStore& store) {
  std::vector<QueryId> out;
  for (const auto& r : store.records()) {
    if (!r.HasFlag(storage::kFlagDeleted) && !r.parse_failed()) {
      out.push_back(r.id);
    }
  }
  return out;
}

/// The most recent `sample` parsed, non-deleted ids in log order: the
/// miner's clustering window, restated.
std::vector<QueryId> ClusteringWindow(const storage::QueryStore& store,
                                      size_t sample) {
  std::vector<QueryId> window;
  for (auto it = store.records().rbegin(); it != store.records().rend();
       ++it) {
    if (it->HasFlag(storage::kFlagDeleted) || it->parse_failed()) continue;
    window.push_back(it->id);
    if (window.size() >= sample) break;
  }
  std::reverse(window.begin(), window.end());
  return window;
}

/// Query `i` of a small log over four tables, so that the sketch-pruned
/// enumeration drops some pairs.
std::string MixedQuery(int i) {
  static const char* const kPrefixes[] = {
      "SELECT * FROM WaterTemp WHERE temp < ",
      "SELECT lake, salinity FROM WaterSalinity WHERE salinity > ",
      "SELECT city FROM CityLocations WHERE pop > ",
      "SELECT ts, value FROM Readings WHERE sensor_id = ",
  };
  return kPrefixes[i % 4] + std::to_string(i);
}

// ---------------------------------------------------------------------------
// Headline: interleaved mutation cycles == from-scratch RunAll.

TEST(IncrementalMiningTest, InterleavedCyclesMatchFullRebuildOnSeededLog) {
  Harness h;
  workload::WorkloadOptions options;
  options.num_sessions = 1001;  // ~5 queries/session -> >= 5000 queries
  options.seed = 123;
  workload::RegisterUsers(&h.store, options);
  workload::GenerateLog(h.profiler.get(), &h.store, &h.clock, options);
  ASSERT_GE(h.store.size(), 5000u);

  QueryMinerOptions miner_options;
  miner_options.refresh_threshold = 1;
  miner_options.full_rebuild_interval = 0;  // force every cycle incremental
  QueryMiner miner(&h.store, &h.clock, miner_options);
  miner.RunAll();
  ASSERT_TRUE(miner.last_refresh_stats().full);

  for (int cycle = 0; cycle < 4; ++cycle) {
    SCOPED_TRACE("cycle " + std::to_string(cycle));
    // ~100 appended queries continuing on the same clock.
    workload::WorkloadOptions delta = options;
    delta.num_sessions = 20;
    delta.seed = 1000 + static_cast<uint64_t>(cycle);
    workload::GenerateLog(h.profiler.get(), &h.store, &h.clock, delta);

    std::vector<QueryId> live = LiveParsedIds(h.store);
    ASSERT_GT(live.size(), 100u);
    // Rewrites (repair-style): replace a few records' text.
    for (int i = 0; i < 3; ++i) {
      QueryId id = live[(cycle * 97 + i * 31) % (live.size() - 50)];
      ASSERT_TRUE(h.store
                      .RewriteQueryText(
                          id, "SELECT * FROM WaterTemp WHERE temp < " +
                                  std::to_string(40 + cycle * 10 + i))
                      .ok());
    }
    // Owner deletes.
    for (int i = 0; i < 3; ++i) {
      QueryId id = live[(cycle * 131 + i * 53) % (live.size() - 50) + 20];
      ASSERT_TRUE(h.store.Delete(id, h.store.Get(id)->user).ok());
    }
    // Flag flips: tombstone via AddFlag, and undelete a previously
    // deleted record.
    QueryId flagged = live[(cycle * 17 + 7) % (live.size() - 50) + 40];
    ASSERT_TRUE(h.store.AddFlag(flagged, storage::kFlagDeleted).ok());
    if (cycle > 0) {
      for (const auto& r : h.store.records()) {
        if (r.HasFlag(storage::kFlagDeleted)) {
          ASSERT_TRUE(h.store.ClearFlag(r.id, storage::kFlagDeleted).ok());
          break;
        }
      }
    }
    // Output-signature syncs (what the maintenance stats refresh emits).
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(
          h.store.SyncOutputSignature(live[(cycle * 11 + i) % live.size()])
              .ok());
    }

    ASSERT_TRUE(miner.MaybeRefresh());
    EXPECT_FALSE(miner.last_refresh_stats().full);
    EXPECT_GT(miner.last_refresh_stats().appended, 0u);
  }

  // The warm incremental miner must agree bit-for-bit with a
  // from-scratch rebuild over the same final store.
  QueryMiner reference(&h.store, &h.clock, miner_options);
  reference.RunAll();
  ExpectMinersEqual(miner, reference);

  // And the retained-matrix clustering must match the dense oracle.
  Clustering oracle = KMedoidsCluster(
      h.store, ClusteringWindow(h.store, miner_options.clustering_sample),
      miner_options.clustering);
  ExpectClusteringEqual(miner.clustering(), oracle);

  // The incremental path actually reused prior distances: almost
  // everything bulk-copies from the retained matrix, the rest are fresh
  // computes touching the delta.
  const MinerRefreshStats& stats = miner.last_refresh_stats();
  EXPECT_GT(stats.pairs_copied, 0u);
  EXPECT_GT(stats.pairs_copied, stats.pairs_computed);
}

TEST(IncrementalMiningTest, FullRebuildIntervalForcesPeriodicRunAll) {
  Harness h;
  for (int i = 0; i < 10; ++i) {
    h.Log("alice", "SELECT * FROM WaterTemp WHERE temp < " + std::to_string(i),
          kMicrosPerSecond);
  }
  QueryMinerOptions options;
  options.refresh_threshold = 1;
  options.full_rebuild_interval = 2;
  QueryMiner miner(&h.store, &h.clock, options);
  miner.RunAll();
  h.Log("alice", "SELECT * FROM WaterTemp WHERE temp < 90");
  ASSERT_TRUE(miner.MaybeRefresh());
  EXPECT_FALSE(miner.last_refresh_stats().full);
  h.Log("alice", "SELECT * FROM WaterTemp WHERE temp < 91");
  ASSERT_TRUE(miner.MaybeRefresh());  // second refresh hits the interval
  EXPECT_TRUE(miner.last_refresh_stats().full);
}

TEST(IncrementalMiningTest, OutOfOrderAppendStillMatchesFullRebuild) {
  Harness h;
  QueryMinerOptions options;
  options.refresh_threshold = 1;
  options.full_rebuild_interval = 0;
  for (int i = 0; i < 5; ++i) {
    h.Log("alice", "SELECT * FROM WaterTemp WHERE temp < " + std::to_string(i),
          kMicrosPerMinute);
  }
  QueryMiner miner(&h.store, &h.clock, options);
  miner.RunAll();

  // Hand-append a record whose timestamp lands *before* alice's last
  // query: tail extension would be wrong, so the user must be
  // re-segmented — and still match the from-scratch result.
  storage::QueryRecord back_dated = storage::BuildRecordFromText(
      "SELECT * FROM WaterTemp WHERE temp < 99", "alice",
      h.store.Get(0)->timestamp + 1);
  h.store.Append(std::move(back_dated));
  ASSERT_TRUE(miner.MaybeRefresh());
  EXPECT_FALSE(miner.last_refresh_stats().full);
  EXPECT_EQ(miner.last_refresh_stats().users_resegmented, 1u);

  QueryMiner reference(&h.store, &h.clock, options);
  reference.RunAll();
  ExpectMinersEqual(miner, reference);
}

TEST(IncrementalMiningTest, DeleteThenUndeleteRoundTripsExactly) {
  Harness h;
  QueryMinerOptions options;
  options.refresh_threshold = 1;
  options.full_rebuild_interval = 0;
  std::vector<QueryId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(h.Log(i % 2 == 0 ? "alice" : "bob",
                        "SELECT * FROM WaterTemp WHERE temp < " +
                            std::to_string(i),
                        kMicrosPerSecond));
  }
  QueryMiner miner(&h.store, &h.clock, options);
  miner.RunAll();

  ASSERT_TRUE(h.store.Delete(ids[2], "alice").ok());
  h.Log("bob", "SELECT * FROM WaterSalinity WHERE salinity < 3");
  ASSERT_TRUE(miner.MaybeRefresh());
  EXPECT_FALSE(miner.last_refresh_stats().full);
  {
    QueryMiner reference(&h.store, &h.clock, options);
    reference.RunAll();
    ExpectMinersEqual(miner, reference);
  }

  ASSERT_TRUE(h.store.ClearFlag(ids[2], storage::kFlagDeleted).ok());
  h.Log("alice", "SELECT * FROM WaterTemp WHERE temp < 77");
  ASSERT_TRUE(miner.MaybeRefresh());
  EXPECT_FALSE(miner.last_refresh_stats().full);
  {
    QueryMiner reference(&h.store, &h.clock, options);
    reference.RunAll();
    ExpectMinersEqual(miner, reference);
  }
}

// ---------------------------------------------------------------------------
// CachedDistanceMatrix against the dense oracle.

TEST(CachedDistanceMatrixTest, MatchesDenseOracleAcrossMutations) {
  Harness h;
  std::vector<QueryId> ids;
  for (int i = 0; i < 30; ++i) {
    ids.push_back(h.Log("user" + std::to_string(i % 3),
                        "SELECT * FROM WaterTemp WHERE temp < " +
                            std::to_string(i % 7),
                        kMicrosPerSecond));
  }
  // A statement whose runs overflow its scoring row: the cached matrix
  // scores it from its record's signature.
  ids.push_back(h.store.Append(storage::BuildRecordFromText(
      testing_util::OverflowingStatementText(), "user0", 1)));
  ASSERT_FALSE(h.store.scoring().signature_valid(ids.back()));
  metaquery::SimilarityWeights weights;
  const size_t n = ids.size();

  // Builds the matrix over `ids` from `previous`, requires it equal to
  // the dense oracle cell by cell, then retains it in `retained`.
  RetainedMatrix retained;
  auto build = [&](const char* label, size_t prune_min_points,
                   const RetainedMatrix* previous,
                   const std::vector<QueryId>& dirty,
                   CachedDistanceMatrix::BuildStats* stats,
                   size_t* oracle_pairs) {
    SCOPED_TRACE(label);
    DenseDistanceMatrix dense(h.store, ids, weights, prune_min_points);
    CachedDistanceMatrix cached(h.store, ids, weights, prune_min_points,
                                previous, dirty);
    *stats = cached.build_stats();
    *oracle_pairs = dense.pairs_scored();
    ASSERT_EQ(cached.size(), dense.size());
    for (size_t i = 0; i < dense.size(); ++i) {
      for (size_t j = 0; j < dense.size(); ++j) {
        ASSERT_EQ(cached.at(i, j), dense.at(i, j))
            << "pair (" << i << "," << j << ")";
      }
    }
    RetainedMatrix next;
    next.ids = ids;
    next.pruned = cached.pruned();
    next.data = cached.TakeData();
    retained = std::move(next);
  };

  // No retained matrix: every pair computes, once.
  CachedDistanceMatrix::BuildStats cold;
  size_t oracle_pairs = 0;
  build("no retained matrix", 512, nullptr, {}, &cold, &oracle_pairs);
  EXPECT_FALSE(retained.pruned);
  EXPECT_EQ(cold.pairs_copied, 0u);
  EXPECT_EQ(cold.pairs_computed, n * (n - 1) / 2);
  EXPECT_EQ(cold.pairs_computed, oracle_pairs);

  // A rewrite changes one record's signature. With that id dirty only
  // the pairs touching it compute; the rest copy.
  ASSERT_TRUE(
      h.store.RewriteQueryText(ids[5], "SELECT city FROM CityLocations").ok());
  CachedDistanceMatrix::BuildStats after;
  build("after rewrite, id dirty", 512, &retained, {ids[5]}, &after,
        &oracle_pairs);
  EXPECT_EQ(after.pairs_computed, n - 1);
  EXPECT_EQ(after.pairs_copied, (n - 1) * (n - 2) / 2);

  // The same window past the pruning threshold: the exact matrix scored
  // other pairs, so none of it is reused, and every pair the sketches
  // admit computes once.
  CachedDistanceMatrix::BuildStats pruned;
  build("pruned, retained matrix exact", 16, &retained, {}, &pruned,
        &oracle_pairs);
  EXPECT_TRUE(retained.pruned);
  EXPECT_EQ(pruned.pairs_copied, 0u);
  EXPECT_EQ(pruned.pairs_computed, oracle_pairs);
  EXPECT_LT(pruned.pairs_computed, n * (n - 1) / 2);
}

TEST(IncrementalMiningTest, WindowCrossingThePruningThresholdMatchesOracle) {
  Harness h;
  QueryMinerOptions options;
  options.refresh_threshold = 1;
  options.full_rebuild_interval = 0;
  options.clustering.sketch_prune_min_points = 24;
  int next = 0;
  auto log = [&](int count) {
    for (int i = 0; i < count; ++i, ++next) {
      h.Log("user" + std::to_string(next % 3), MixedQuery(next),
            kMicrosPerSecond);
    }
  };
  auto expect_matches_oracle = [&](const QueryMiner& miner) {
    QueryMiner reference(&h.store, &h.clock, options);
    reference.RunAll();
    ExpectMinersEqual(miner, reference);
    ExpectClusteringEqual(
        miner.clustering(),
        KMedoidsCluster(h.store,
                        ClusteringWindow(h.store, options.clustering_sample),
                        options.clustering));
  };

  log(20);
  QueryMiner miner(&h.store, &h.clock, options);
  miner.RunAll();  // 20 records: exact

  log(10);  // 30 records: pruned, over an exact retained matrix
  ASSERT_TRUE(miner.MaybeRefresh());
  EXPECT_FALSE(miner.last_refresh_stats().full);
  EXPECT_EQ(miner.last_refresh_stats().pairs_copied, 0u);
  EXPECT_GT(miner.last_refresh_stats().pairs_computed, 0u);
  {
    SCOPED_TRACE("exact -> pruned");
    expect_matches_oracle(miner);
  }

  log(5);  // 35 records: pruned over pruned, so the survivors copy
  ASSERT_TRUE(miner.MaybeRefresh());
  EXPECT_FALSE(miner.last_refresh_stats().full);
  EXPECT_EQ(miner.last_refresh_stats().pairs_copied, 30u * 29u / 2);
  {
    SCOPED_TRACE("pruned -> pruned");
    expect_matches_oracle(miner);
  }
}

TEST(IncrementalMiningTest, DeletionInFullWindowReadmitsAnOlderId) {
  Harness h;
  QueryMinerOptions options;
  options.refresh_threshold = 1;
  options.full_rebuild_interval = 0;
  options.clustering_sample = 12;
  std::vector<QueryId> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(h.Log("user" + std::to_string(i % 3), MixedQuery(i),
                        kMicrosPerSecond));
  }
  QueryMiner miner(&h.store, &h.clock, options);
  miner.RunAll();  // window: ids[8..19]
  ASSERT_EQ(miner.clustering().ClusterOf(ids[7]), -1);

  // Two deletions inside the window and one append re-admit ids[7],
  // which no retained matrix has seen.
  ASSERT_TRUE(h.store.Delete(ids[10], h.store.Get(ids[10])->user).ok());
  ASSERT_TRUE(h.store.Delete(ids[14], h.store.Get(ids[14])->user).ok());
  h.Log("user0", MixedQuery(20), kMicrosPerSecond);
  ASSERT_TRUE(miner.MaybeRefresh());
  EXPECT_FALSE(miner.last_refresh_stats().full);
  EXPECT_NE(miner.clustering().ClusterOf(ids[7]), -1);
  // Ten survivors copy; the pairs touching ids[7] or the append compute.
  EXPECT_EQ(miner.last_refresh_stats().pairs_copied, 10u * 9u / 2);
  EXPECT_EQ(miner.last_refresh_stats().pairs_computed, 2u * 10u + 1u);

  QueryMiner reference(&h.store, &h.clock, options);
  reference.RunAll();
  ExpectMinersEqual(miner, reference);
  ExpectClusteringEqual(
      miner.clustering(),
      KMedoidsCluster(h.store,
                      ClusteringWindow(h.store, options.clustering_sample),
                      options.clustering));
}

// ---------------------------------------------------------------------------
// Indexed lookups == linear references.

TEST(IncrementalMiningTest, SessionAndClusterLookupsMatchLinearReference) {
  Harness h;
  for (int u = 0; u < 3; ++u) {
    for (int i = 0; i < 6; ++i) {
      h.Log("user" + std::to_string(u),
            "SELECT * FROM WaterTemp WHERE temp < " + std::to_string(i),
            i == 2 ? 30 * kMicrosPerMinute : kMicrosPerSecond);
    }
  }
  QueryMiner miner(&h.store, &h.clock, {});
  miner.RunAll();
  ASSERT_GT(miner.sessions().size(), 3u);

  for (const Session& s : miner.sessions()) {
    EXPECT_EQ(miner.FindSession(s.id), &s);
  }
  EXPECT_EQ(miner.FindSession(999), nullptr);
  EXPECT_EQ(miner.FindSession(-1), nullptr);

  for (int u = 0; u < 3; ++u) {
    std::string user = "user" + std::to_string(u);
    std::vector<const Session*> linear;
    for (const Session& s : miner.sessions()) {
      if (s.user == user) linear.push_back(&s);
    }
    std::sort(linear.begin(), linear.end(),
              [](const Session* a, const Session* b) {
                return a->start > b->start;
              });
    std::vector<const Session*> indexed = miner.SessionsOfUser(user);
    ASSERT_EQ(indexed.size(), linear.size()) << user;
    for (size_t i = 0; i < indexed.size(); ++i) {
      EXPECT_EQ(indexed[i]->start, linear[i]->start);
      EXPECT_EQ(indexed[i]->user, user);
    }
  }
  EXPECT_TRUE(miner.SessionsOfUser("nobody").empty());

  // ClusterOf: indexed lookups agree with membership.
  const Clustering& c = miner.clustering();
  for (size_t i = 0; i < c.clusters.size(); ++i) {
    for (QueryId id : c.clusters[i]) {
      EXPECT_EQ(c.ClusterOf(id), static_cast<int>(i));
    }
  }
  EXPECT_EQ(c.ClusterOf(99999), -1);
}

}  // namespace
}  // namespace cqms::miner
