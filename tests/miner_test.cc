#include <gtest/gtest.h>

#include "client/session_view.h"
#include "metaquery_reference.h"
#include "miner/query_miner.h"
#include "miner/tutorial.h"
#include "test_util.h"

namespace cqms::miner {
namespace {

using storage::QueryId;
using testing_util::Harness;

TEST(SessionizerTest, TemporalGapSplitsSessions) {
  Harness h;
  h.Log("alice", "SELECT * FROM WaterTemp WHERE temp < 22",
        30 * kMicrosPerSecond);
  h.Log("alice", "SELECT * FROM WaterTemp WHERE temp < 18",
        30 * kMicrosPerMinute);  // long pause
  h.Log("alice", "SELECT * FROM WaterTemp WHERE temp < 15");
  auto sessions = IdentifySessions(&h.store);
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].queries.size(), 2u);
  EXPECT_EQ(sessions[1].queries.size(), 1u);
  // Assignments written back.
  EXPECT_EQ(h.store.Get(0)->session_id, sessions[0].id);
  EXPECT_EQ(h.store.Get(2)->session_id, sessions[1].id);
}

TEST(SessionizerTest, StructuralJumpSplitsSessions) {
  Harness h;
  h.Log("alice", "SELECT * FROM WaterTemp WHERE temp < 22");
  h.Log("alice", "SELECT city FROM CityLocations WHERE state = 'MI'");
  auto sessions = IdentifySessions(&h.store);
  EXPECT_EQ(sessions.size(), 2u);
}

TEST(SessionizerTest, UsersNeverShareSessions) {
  Harness h;
  h.Log("alice", "SELECT * FROM WaterTemp", kMicrosPerSecond);
  h.Log("bob", "SELECT * FROM WaterTemp", kMicrosPerSecond);
  h.Log("alice", "SELECT * FROM WaterTemp WHERE temp < 18");
  auto sessions = IdentifySessions(&h.store);
  ASSERT_EQ(sessions.size(), 2u);
  for (const Session& s : sessions) {
    for (QueryId id : s.queries) {
      EXPECT_EQ(h.store.Get(id)->user, s.user);
    }
  }
}

TEST(SessionizerTest, EdgesCarryFigure2Diffs) {
  Harness h;
  h.Log("alice", "SELECT * FROM WaterTemp T WHERE T.temp < 22");
  h.Log("alice", "SELECT * FROM WaterTemp T WHERE T.temp < 18");
  h.Log("alice",
        "SELECT * FROM WaterTemp T, WaterSalinity S WHERE T.temp < 18 AND "
        "S.loc_x = T.loc_x");
  auto sessions = IdentifySessions(&h.store);
  ASSERT_EQ(sessions.size(), 1u);
  ASSERT_EQ(sessions[0].edges.size(), 2u);
  // Edge 1: constant modification.
  ASSERT_EQ(sessions[0].edges[0].diff.edits.size(), 1u);
  EXPECT_EQ(sessions[0].edges[0].diff.edits[0].kind,
            sql::QueryEdit::Kind::kModifyConstant);
  // Edge 2: added table + join predicate.
  bool saw_table = false;
  for (const auto& e : sessions[0].edges[1].diff.edits) {
    if (e.kind == sql::QueryEdit::Kind::kAddTable) saw_table = true;
  }
  EXPECT_TRUE(saw_table);
}

TEST(SessionizerTest, ParseFailedQueriesStayInSession) {
  Harness h;
  h.Log("alice", "SELECT * FROM WaterTemp WHERE temp < 22");
  h.Log("alice", "SELEKT * FORM WaterTemp");  // typo
  h.Log("alice", "SELECT * FROM WaterTemp WHERE temp < 18");
  auto sessions = IdentifySessions(&h.store);
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].queries.size(), 3u);
}

TEST(SessionViewTest, AsciiAndDotRenderings) {
  Harness h;
  h.Log("alice", "SELECT * FROM WaterTemp WHERE temp < 22");
  h.Log("alice", "SELECT * FROM WaterTemp WHERE temp < 18");
  auto sessions = IdentifySessions(&h.store);
  ASSERT_EQ(sessions.size(), 1u);
  std::string ascii = client::RenderSessionAscii(h.store, sessions[0]);
  EXPECT_NE(ascii.find("q0"), std::string::npos);
  EXPECT_NE(ascii.find("->"), std::string::npos);  // the constant edit label
  std::string dot = client::RenderSessionDot(h.store, sessions[0]);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("q0 -> q1"), std::string::npos);
}

TEST(ClusteringTest, KMedoidsSeparatesStructurallyDistinctGroups) {
  Harness h;
  std::vector<QueryId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(h.Log("u", "SELECT * FROM WaterTemp WHERE temp < " +
                                 std::to_string(10 + i)));
  }
  for (int i = 0; i < 5; ++i) {
    ids.push_back(h.Log("u", "SELECT city FROM CityLocations WHERE pop > " +
                                 std::to_string(100000 * (i + 1))));
  }
  KMedoidsOptions opts;
  opts.k = 2;
  Clustering c = KMedoidsCluster(h.store, ids, opts);
  ASSERT_EQ(c.num_clusters(), 2u);
  // Every cluster must be pure: all members share their FROM table.
  for (const auto& cluster : c.clusters) {
    ASSERT_FALSE(cluster.empty());
    const auto& first_tables = h.store.Get(cluster[0])->components->tables;
    for (QueryId id : cluster) {
      EXPECT_EQ(h.store.Get(id)->components->tables, first_tables);
    }
  }
}

TEST(ClusteringTest, KMedoidsIsDeterministic) {
  Harness h;
  std::vector<QueryId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(h.Log("u", "SELECT * FROM WaterTemp WHERE temp < " +
                                 std::to_string(i)));
  }
  KMedoidsOptions opts;
  opts.k = 3;
  Clustering a = KMedoidsCluster(h.store, ids, opts);
  Clustering b = KMedoidsCluster(h.store, ids, opts);
  EXPECT_EQ(a.medoids, b.medoids);
}

TEST(ClusteringTest, ClusterOfAndEdgeCases) {
  Harness h;
  QueryId only = h.Log("u", "SELECT 1");
  Clustering c = KMedoidsCluster(h.store, {only}, {});
  ASSERT_EQ(c.num_clusters(), 1u);
  EXPECT_EQ(c.ClusterOf(only), 0);
  EXPECT_EQ(c.ClusterOf(999), -1);
  Clustering empty = KMedoidsCluster(h.store, {}, {});
  EXPECT_EQ(empty.num_clusters(), 0u);
}

TEST(ClusteringTest, AgglomerativeThresholdControlsGranularity) {
  Harness h;
  std::vector<QueryId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(h.Log("u", "SELECT * FROM WaterTemp WHERE temp < " +
                                 std::to_string(i)));
    ids.push_back(h.Log("u", "SELECT city FROM CityLocations WHERE pop > " +
                                 std::to_string(i * 1000)));
  }
  Clustering tight = AgglomerativeCluster(h.store, ids, 0.1);
  Clustering loose = AgglomerativeCluster(h.store, ids, 0.99);
  EXPECT_GT(tight.num_clusters(), 1u);
  EXPECT_EQ(loose.num_clusters(), 1u);
}

TEST(AssociationTest, MinesWaterSalinityImpliesWaterTemp) {
  // The paper's example: queries with WaterSalinity overwhelmingly also
  // use WaterTemp, while CityLocations is globally popular.
  Harness h;
  for (int i = 0; i < 10; ++i) {
    h.Log("u",
          "SELECT * FROM WaterSalinity S, WaterTemp T WHERE "
          "S.loc_x = T.loc_x AND T.temp < " + std::to_string(i));
  }
  for (int i = 0; i < 20; ++i) {
    h.Log("u", "SELECT city FROM CityLocations WHERE pop > " +
                   std::to_string(i * 1000));
  }
  std::vector<QueryId> ids;
  for (const auto& r : h.store.records()) ids.push_back(r.id);
  AssociationMinerOptions opts;
  opts.min_support = 0.05;
  opts.min_confidence = 0.5;
  auto transactions = BuildTransactions(h.store, ids, opts);
  auto rules = MineAssociationRules(transactions, opts);
  ASSERT_FALSE(rules.empty());

  auto suggestions = SuggestFromRules(rules, {"t:watersalinity"}, 10);
  ASSERT_FALSE(suggestions.empty());
  // The first *table* suggestion must be WaterTemp (predicate-skeleton
  // suggestions may interleave at equal confidence).
  bool found_table = false;
  for (const auto& [item, conf] : suggestions) {
    if (item.rfind("t:", 0) == 0) {
      EXPECT_EQ(item, "t:watertemp");
      EXPECT_GT(conf, 0.9);  // always co-occurs
      found_table = true;
      break;
    }
  }
  EXPECT_TRUE(found_table);

  // Without context, no rule fires for CityLocations.
  auto none = SuggestFromRules(rules, {"t:citylocations"});
  for (const auto& [item, conf] : none) {
    EXPECT_NE(item, "t:watertemp");  // cities never co-occur with temps
  }
}

TEST(AssociationTest, SupportAndConfidenceBounds) {
  std::vector<std::vector<std::string>> tx = {
      {"a", "b"}, {"a", "b"}, {"a"}, {"b"}, {"a", "b", "c"}};
  AssociationMinerOptions opts;
  opts.min_support = 0.2;
  opts.min_confidence = 0.1;
  auto rules = MineAssociationRules(tx, opts);
  for (const auto& r : rules) {
    EXPECT_GE(r.support, 0.2);
    EXPECT_GE(r.confidence, 0.1);
    EXPECT_LE(r.confidence, 1.0);
  }
  // a => b has confidence 3/4.
  bool found = false;
  for (const auto& r : rules) {
    if (r.antecedent == std::vector<std::string>{"a"} && r.consequent == "b") {
      EXPECT_NEAR(r.confidence, 0.75, 1e-9);
      EXPECT_NEAR(r.support, 0.6, 1e-9);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(AssociationTest, EmptyTransactionsYieldNoRules) {
  EXPECT_TRUE(MineAssociationRules({}, {}).empty());
}

TEST(PopularityTest, CountsAndDecay) {
  Harness h;
  h.clock.Set(0);
  for (int i = 0; i < 5; ++i) h.Log("u", "SELECT * FROM WaterTemp");
  h.clock.Set(100 * kMicrosPerMinute);
  h.Log("u", "SELECT city FROM CityLocations");

  PopularityTracker no_decay;
  no_decay.Build(h.store, h.clock.Now());
  EXPECT_GT(no_decay.TableScore("watertemp"),
            no_decay.TableScore("citylocations"));

  // With a short half-life, the recent city query dominates.
  PopularityTracker decayed;
  PopularityTracker::Options opts;
  opts.half_life = 10 * kMicrosPerMinute;
  decayed.Build(h.store, h.clock.Now(), opts);
  EXPECT_GT(decayed.TableScore("citylocations"),
            decayed.TableScore("watertemp"));
}

TEST(PopularityTest, TopQueriesForTableDeduplicates) {
  Harness h;
  for (int i = 0; i < 3; ++i) h.Log("u", "SELECT * FROM WaterTemp");
  h.Log("u", "SELECT lake FROM WaterTemp");
  PopularityTracker p;
  p.Build(h.store, h.clock.Now());
  auto top = p.TopQueriesForTable(h.store, "watertemp", 5);
  ASSERT_EQ(top.size(), 2u);  // two distinct canonical forms
  EXPECT_EQ(h.store.Get(top[0])->statement().canonical_text,
            "SELECT * FROM watertemp");
}

TEST(TutorialTest, GeneratesSectionsWithExamplesAndMistakes) {
  Harness h;
  for (int i = 0; i < 4; ++i) {
    h.Log("u", "SELECT lake, temp FROM WaterTemp WHERE temp < 18");
  }
  storage::QueryId annotated = h.Log("u", "SELECT * FROM WaterTemp");
  ASSERT_TRUE(h.store
                  .Annotate(annotated, {"u", 0, "full scan of temperatures", ""})
                  .ok());
  h.Log("u", "SELECT tempp FROM WaterTemp");  // bind error (mistake)

  PopularityTracker p;
  p.Build(h.store, h.clock.Now());
  auto sections = GenerateTutorial(h.store, h.database.catalog(), p);
  ASSERT_FALSE(sections.empty());
  EXPECT_EQ(sections[0].relation, "watertemp");
  EXPECT_FALSE(sections[0].columns.empty());
  EXPECT_FALSE(sections[0].example_queries.empty());
  EXPECT_FALSE(sections[0].common_mistakes.empty());

  std::string rendered = RenderTutorial(h.store, sections);
  EXPECT_NE(rendered.find("watertemp"), std::string::npos);
  EXPECT_NE(rendered.find("full scan of temperatures"), std::string::npos);
}

TEST(QueryMinerTest, RunAllPopulatesEverythingAndRefreshesIncrementally) {
  Harness h;
  for (int i = 0; i < 6; ++i) {
    h.Log("alice", "SELECT * FROM WaterTemp WHERE temp < " + std::to_string(i),
          kMicrosPerSecond);
  }
  QueryMinerOptions opts;
  opts.refresh_threshold = 5;
  QueryMiner miner(&h.store, &h.clock, opts);
  miner.RunAll();
  EXPECT_FALSE(miner.sessions().empty());
  EXPECT_GT(miner.clustering().num_clusters(), 0u);
  EXPECT_EQ(miner.queries_mined(), 6u);
  EXPECT_FALSE(miner.SessionsOfUser("alice").empty());
  EXPECT_NE(miner.FindSession(miner.sessions()[0].id), nullptr);
  EXPECT_EQ(miner.FindSession(999), nullptr);

  // Below the threshold: no refresh.
  h.Log("alice", "SELECT * FROM WaterTemp WHERE temp < 99");
  EXPECT_FALSE(miner.MaybeRefresh());
  // Reaching the threshold triggers one.
  for (int i = 0; i < 4; ++i) h.Log("alice", "SELECT 1");
  EXPECT_TRUE(miner.MaybeRefresh());
  EXPECT_EQ(miner.queries_mined(), 11u);
}

}  // namespace
}  // namespace cqms::miner
