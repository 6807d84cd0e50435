#include <gtest/gtest.h>

#include "client/browse.h"
#include "common/string_util.h"
#include "client/session_view.h"
#include "metaquery_reference.h"
#include "miner/sessionizer.h"
#include "test_util.h"

namespace cqms::client {
namespace {

using testing_util::Harness;

TEST(SessionViewTest, AsciiShowsOffsetsAndLabels) {
  Harness h;
  h.clock.Set(0);
  h.Log("alice", "SELECT * FROM WaterTemp WHERE temp < 22",
        95 * kMicrosPerSecond);
  h.Log("alice", "SELECT * FROM WaterTemp WHERE temp < 18");
  auto sessions = miner::IdentifySessions(&h.store);
  ASSERT_EQ(sessions.size(), 1u);
  std::string ascii = RenderSessionAscii(h.store, sessions[0]);
  EXPECT_NE(ascii.find("+0:00"), std::string::npos);
  EXPECT_NE(ascii.find("+1:35"), std::string::npos);
  EXPECT_NE(ascii.find("user alice"), std::string::npos);
}

TEST(SessionViewTest, LongTextsAreTruncated) {
  Harness h;
  std::string long_query = "SELECT lake, loc_x, loc_y, temp FROM WaterTemp "
                           "WHERE temp < 18 AND loc_x > 0 AND loc_y > 0 "
                           "ORDER BY temp DESC LIMIT 100";
  h.Log("alice", long_query, kMicrosPerSecond);
  auto sessions = miner::IdentifySessions(&h.store);
  std::string ascii = RenderSessionAscii(h.store, sessions[0], 40);
  for (const std::string& line : Split(ascii, '\n')) {
    EXPECT_LE(line.size(), 60u) << line;  // node label capped at ~40 + prefix
  }
}

TEST(SessionViewTest, DotEscapesQuotes) {
  Harness h;
  h.Log("alice", "SELECT * FROM CityLocations WHERE state = 'WA'");
  auto sessions = miner::IdentifySessions(&h.store);
  std::string dot = RenderSessionDot(h.store, sessions[0]);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_EQ(dot.find("state = \"WA\""), std::string::npos);  // quotes escaped
}

TEST(BrowseTest, SummaryGroupsBySessionAndFiltersAcl) {
  Harness h;
  h.store.acl().AddUser("alice", {"g1"});
  h.store.acl().AddUser("eve", {"g2"});
  h.Log("alice", "SELECT * FROM WaterTemp WHERE temp < 22", kMicrosPerSecond);
  h.Log("alice", "SELECT * FROM WaterTemp WHERE temp < 18");
  auto sessions = miner::IdentifySessions(&h.store);

  std::string for_alice = RenderLogSummary(h.store, sessions, "alice");
  EXPECT_NE(for_alice.find("session #"), std::string::npos);
  EXPECT_NE(for_alice.find("2 queries"), std::string::npos);

  std::string for_eve = RenderLogSummary(h.store, sessions, "eve");
  EXPECT_NE(for_eve.find("(no visible sessions)"), std::string::npos);
}

TEST(BrowseTest, QueryDetailsShowEverything) {
  Harness h;
  storage::QueryId id =
      h.Log("alice", "SELECT lake FROM WaterTemp WHERE temp < 18");
  ASSERT_TRUE(h.store.Annotate(id, {"alice", 0, "cold probe", "temp < 18"}).ok());
  ASSERT_TRUE(h.store.AddFlag(id, storage::kFlagStatsStale).ok());
  std::string details = RenderQueryDetails(h.store, id);
  EXPECT_NE(details.find("SELECT lake FROM WaterTemp"), std::string::npos);
  EXPECT_NE(details.find("status: ok"), std::string::npos);
  EXPECT_NE(details.find("stats-stale"), std::string::npos);
  EXPECT_NE(details.find("cold probe"), std::string::npos);
  EXPECT_NE(details.find("[on: temp < 18]"), std::string::npos);
  EXPECT_NE(details.find("output:"), std::string::npos);
  EXPECT_EQ(RenderQueryDetails(h.store, 999), "(no such query)\n");
}

TEST(BrowseTest, FailedQueryDetailsShowError) {
  Harness h;
  storage::QueryId id = h.Log("alice", "SELECT nope FROM WaterTemp");
  std::string details = RenderQueryDetails(h.store, id);
  EXPECT_NE(details.find("FAILED"), std::string::npos);
  EXPECT_NE(details.find("error:"), std::string::npos);
}

TEST(BrowseTest, ClusterViewShowsMedoidsAndSizes) {
  Harness h;
  std::vector<storage::QueryId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(h.Log("alice", "SELECT * FROM WaterTemp WHERE temp < " +
                                     std::to_string(i)));
    ids.push_back(h.Log("alice", "SELECT city FROM CityLocations WHERE pop > " +
                                     std::to_string(i * 1000)));
  }
  miner::KMedoidsOptions opts;
  opts.k = 2;
  auto clustering = miner::KMedoidsCluster(h.store, ids, opts);
  std::string view = RenderClusters(h.store, clustering, "alice");
  EXPECT_NE(view.find("cluster 0"), std::string::npos);
  EXPECT_NE(view.find("4 queries"), std::string::npos);
}

}  // namespace
}  // namespace cqms::client
