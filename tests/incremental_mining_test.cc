// Incremental mining engine tests: (1) the headline equality suite — a
// seeded ~5k synthetic log driven through several MaybeRefresh cycles
// of interleaved appends / rewrites / deletes / flag flips / output
// syncs must leave sessions, association rules, popularity and
// clustering *bit-identical* to a from-scratch RunAll on the same final
// store; (2) DistanceCache unit behavior (lookup/insert/invalidate/
// grow/compact) and CachedDistanceMatrix-vs-DenseDistanceMatrix
// equality across mutations; (3) incremental sessionizer edge cases
// (out-of-order appends, undeletes); (4) the O(1)/indexed FindSession /
// SessionsOfUser / ClusterOf lookups against linear references.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "miner/distance_cache.h"
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

  // And the cache-backed clustering must match the dense oracle.
  std::vector<QueryId> sample;
  for (auto it = h.store.records().rbegin(); it != h.store.records().rend();
       ++it) {
    if (it->HasFlag(storage::kFlagDeleted) || it->parse_failed()) continue;
    sample.push_back(it->id);
    if (sample.size() >= miner_options.clustering_sample) break;
  }
  std::reverse(sample.begin(), sample.end());
  Clustering oracle =
      KMedoidsCluster(h.store, sample, miner_options.clustering);
  ExpectClusteringEqual(miner.clustering(), oracle);

  // The incremental path actually reused prior distances: almost
  // everything bulk-copies from the retained matrix, the rest splits
  // between cache hits and fresh computes touching the delta.
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
// DistanceCache unit behavior.

TEST(DistanceCacheTest, InsertLookupInvalidateOverwrite) {
  DistanceCache cache(64);
  double d = -1;
  EXPECT_FALSE(cache.Lookup(3, 7, &d));
  cache.Insert(7, 3, 0.25);  // unordered: {3,7}
  ASSERT_TRUE(cache.Lookup(3, 7, &d));
  EXPECT_EQ(d, 0.25);
  ASSERT_TRUE(cache.Lookup(7, 3, &d));
  EXPECT_EQ(d, 0.25);

  cache.Insert(3, 7, 0.5);  // overwrite in place
  ASSERT_TRUE(cache.Lookup(3, 7, &d));
  EXPECT_EQ(d, 0.5);
  EXPECT_EQ(cache.entries(), 1u);

  cache.Insert(3, 8, 0.75);
  cache.Invalidate(3);  // kills {3,7} and {3,8}...
  EXPECT_FALSE(cache.Lookup(3, 7, &d));
  EXPECT_FALSE(cache.Lookup(3, 8, &d));
  cache.Insert(3, 7, 0.125);  // ...and re-inserting revives the pair
  ASSERT_TRUE(cache.Lookup(3, 7, &d));
  EXPECT_EQ(d, 0.125);

  cache.Clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_FALSE(cache.Lookup(3, 7, &d));
}

TEST(DistanceCacheTest, GrowPreservesLiveEntriesAndDropsStale) {
  DistanceCache cache(64);
  for (QueryId a = 0; a < 40; ++a) {
    for (QueryId b = a + 1; b < a + 4; ++b) {
      cache.Insert(a, b, static_cast<double>(a) + static_cast<double>(b) / 100);
    }
  }
  EXPECT_GT(cache.capacity(), 64u);  // grew past the initial table
  double d = -1;
  for (QueryId a = 0; a < 40; ++a) {
    for (QueryId b = a + 1; b < a + 4; ++b) {
      ASSERT_TRUE(cache.Lookup(a, b, &d));
      EXPECT_EQ(d, static_cast<double>(a) + static_cast<double>(b) / 100);
    }
  }

  const size_t before = cache.entries();
  cache.Invalidate(0);  // pairs {0,1},{0,2},{0,3} go stale
  EXPECT_EQ(cache.CompactIfNeeded(/*max_stale_fraction=*/0.0), 3u);
  EXPECT_EQ(cache.entries(), before - 3);
  ASSERT_TRUE(cache.Lookup(1, 2, &d));  // survivors intact
  EXPECT_EQ(d, 1.02);
}

TEST(DistanceCacheTest, CachedMatrixMatchesDenseOracleAcrossMutations) {
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
  DistanceCache cache;

  auto expect_matches_dense = [&](const char* label,
                                  CachedDistanceMatrix::BuildStats* stats) {
    SCOPED_TRACE(label);
    DenseDistanceMatrix dense(h.store, ids, weights, 512);
    CachedDistanceMatrix cached(h.store, ids, weights, 512, &cache,
                                /*previous=*/nullptr, /*dirty=*/{});
    *stats = cached.build_stats();
    ASSERT_EQ(cached.size(), dense.size());
    for (size_t i = 0; i < dense.size(); ++i) {
      for (size_t j = 0; j < dense.size(); ++j) {
        ASSERT_EQ(cached.at(i, j), dense.at(i, j))
            << "pair (" << i << "," << j << ")";
      }
    }
  };

  CachedDistanceMatrix::BuildStats cold;
  expect_matches_dense("cold cache", &cold);
  EXPECT_EQ(cold.pairs_reused, 0u);
  EXPECT_EQ(cold.pairs_computed, cold.pairs_enumerated);

  CachedDistanceMatrix::BuildStats warm;
  expect_matches_dense("warm cache", &warm);
  EXPECT_EQ(warm.pairs_reused, warm.pairs_enumerated);
  EXPECT_EQ(warm.pairs_computed, 0u);

  // A rewrite changes one record's signature; after invalidation only
  // that record's row recomputes, and the matrix matches a fresh dense
  // build again.
  ASSERT_TRUE(
      h.store.RewriteQueryText(ids[5], "SELECT city FROM CityLocations").ok());
  cache.Invalidate(ids[5]);
  CachedDistanceMatrix::BuildStats after;
  expect_matches_dense("after rewrite + invalidate", &after);
  EXPECT_GT(after.pairs_reused, 0u);
  EXPECT_GT(after.pairs_computed, 0u);
  EXPECT_LT(after.pairs_computed, after.pairs_enumerated);
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
