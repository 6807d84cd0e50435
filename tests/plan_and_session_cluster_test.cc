// Tests for two cross-cutting features: execution-plan capture (paper
// §4.1 runtime features) and session clustering (§4.3).

#include <gtest/gtest.h>

#include "client/browse.h"
#include "miner/session_clustering.h"
#include "storage/persistence.h"
#include "test_util.h"

namespace cqms {
namespace {

using testing_util::Harness;

TEST(PlanCaptureTest, ScanWithPushdownIsRecorded) {
  Harness h;
  auto r = h.database.ExecuteSql("SELECT * FROM WaterTemp WHERE temp < 18");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->plan.find("scan watertemp"), std::string::npos);
  EXPECT_NE(r->plan.find("pushdown"), std::string::npos);
  EXPECT_NE(r->plan.find("temp < 18"), std::string::npos);
}

TEST(PlanCaptureTest, HashJoinVsNestedLoopIsVisible) {
  Harness h;
  auto hash = h.database.ExecuteSql(
      "SELECT * FROM WaterTemp T, WaterSalinity S WHERE T.loc_x = S.loc_x");
  ASSERT_TRUE(hash.ok());
  EXPECT_NE(hash->plan.find("hash join watersalinity"), std::string::npos);

  auto nested = h.database.ExecuteSql(
      "SELECT * FROM WaterTemp T, WaterSalinity S WHERE T.loc_x < S.loc_x");
  ASSERT_TRUE(nested.ok());
  EXPECT_NE(nested->plan.find("nested-loop join"), std::string::npos);
}

TEST(PlanCaptureTest, AggregateSortLimitOperatorsListed) {
  Harness h;
  auto r = h.database.ExecuteSql(
      "SELECT lake, AVG(temp) FROM WaterTemp GROUP BY lake "
      "ORDER BY lake LIMIT 3");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->plan.find("aggregate 1 function(s), 1 group key(s)"),
            std::string::npos);
  EXPECT_NE(r->plan.find("sort 1 key(s)"), std::string::npos);
  EXPECT_NE(r->plan.find("limit 3"), std::string::npos);
}

TEST(PlanCaptureTest, SubqueryPlansAreNotRecorded) {
  Harness h;
  auto r = h.database.ExecuteSql(
      "SELECT lake FROM WaterTemp T WHERE EXISTS "
      "(SELECT 1 FROM WaterSalinity S WHERE S.loc_x = T.loc_x)");
  ASSERT_TRUE(r.ok());
  // Only the outer scan appears; the correlated subquery would repeat
  // per row and is deliberately excluded.
  EXPECT_NE(r->plan.find("scan watertemp"), std::string::npos);
  EXPECT_EQ(r->plan.find("scan watersalinity"), std::string::npos);
}

TEST(PlanCaptureTest, ProfilerStoresAndPersistsPlan) {
  Harness h;
  storage::QueryId id = h.Log(
      "alice", "SELECT * FROM WaterTemp T, WaterSalinity S "
               "WHERE T.loc_x = S.loc_x AND T.temp < 18");
  const storage::QueryRecord* rec = h.store.Get(id);
  EXPECT_NE(rec->stats.plan->find("hash join"), std::string::npos);

  // Shows up in the browse details.
  std::string details = client::RenderQueryDetails(h.store, id);
  EXPECT_NE(details.find("plan:"), std::string::npos);

  // Survives a snapshot round-trip.
  std::string path = ::testing::TempDir() + "/cqms_plan_snapshot.log";
  ASSERT_TRUE(storage::SaveSnapshot(h.store, path).ok());
  storage::QueryStore loaded;
  ASSERT_TRUE(storage::LoadSnapshot(&loaded, path).ok());
  EXPECT_EQ(loaded.Get(id)->stats.plan, rec->stats.plan);
}

TEST(PlanCaptureTest, UnionArmsAreMarked) {
  Harness h;
  auto r = h.database.ExecuteSql(
      "SELECT lake FROM WaterTemp UNION SELECT lake FROM WaterSalinity");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->plan.find("union (dedup)"), std::string::npos);
}

class SessionClusterFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    h_ = std::make_unique<Harness>();
    // alice and bob explore temperatures (same skeletons); carol looks
    // up cities (different skeletons).
    for (const char* user : {"alice", "bob"}) {
      for (int i = 0; i < 3; ++i) {
        h_->Log(user, "SELECT * FROM WaterTemp WHERE temp < " +
                          std::to_string(10 + i),
                10 * kMicrosPerSecond);
      }
      h_->clock.Advance(60 * kMicrosPerMinute);
    }
    for (int i = 0; i < 3; ++i) {
      h_->Log("carol", "SELECT city FROM CityLocations WHERE pop > " +
                           std::to_string(1000 * i),
              10 * kMicrosPerSecond);
    }
    sessions_ = miner::IdentifySessions(&h_->store);
  }

  std::unique_ptr<Harness> h_;
  std::vector<miner::Session> sessions_;
};

TEST_F(SessionClusterFixture, SimilarityReflectsSkeletonOverlap) {
  ASSERT_EQ(sessions_.size(), 3u);
  const miner::Session* alice = nullptr;
  const miner::Session* bob = nullptr;
  const miner::Session* carol = nullptr;
  for (const auto& s : sessions_) {
    if (s.user == "alice") alice = &s;
    if (s.user == "bob") bob = &s;
    if (s.user == "carol") carol = &s;
  }
  ASSERT_TRUE(alice && bob && carol);
  EXPECT_DOUBLE_EQ(miner::SessionSimilarity(h_->store, *alice, *bob), 1.0);
  EXPECT_DOUBLE_EQ(miner::SessionSimilarity(h_->store, *alice, *carol), 0.0);
  EXPECT_DOUBLE_EQ(miner::SessionSimilarity(h_->store, *alice, *alice), 1.0);
}

TEST_F(SessionClusterFixture, ClusteringSeparatesPatterns) {
  auto clustering = miner::ClusterSessions(h_->store, sessions_, 0.4);
  EXPECT_EQ(clustering.clusters.size(), 2u);
  // alice and bob share a cluster; carol sits alone.
  int alice_cluster = -1, bob_cluster = -1, carol_cluster = -1;
  for (size_t i = 0; i < sessions_.size(); ++i) {
    int c = clustering.ClusterOfIndex(i);
    if (sessions_[i].user == "alice") alice_cluster = c;
    if (sessions_[i].user == "bob") bob_cluster = c;
    if (sessions_[i].user == "carol") carol_cluster = c;
  }
  EXPECT_EQ(alice_cluster, bob_cluster);
  EXPECT_NE(alice_cluster, carol_cluster);
}

TEST_F(SessionClusterFixture, SimilarUsersFromSharedClusters) {
  auto clustering = miner::ClusterSessions(h_->store, sessions_, 0.4);
  auto peers = miner::SimilarSessionUsers(sessions_, clustering, "alice");
  EXPECT_EQ(peers, (std::vector<std::string>{"bob"}));
  auto carol_peers = miner::SimilarSessionUsers(sessions_, clustering, "carol");
  EXPECT_TRUE(carol_peers.empty());
}

TEST(SessionClusterEdgeTest, EmptyInput) {
  Harness h;
  auto clustering = miner::ClusterSessions(h.store, {}, 0.5);
  EXPECT_TRUE(clustering.clusters.empty());
  EXPECT_EQ(clustering.ClusterOfIndex(0), -1);
}

}  // namespace
}  // namespace cqms
