#include <gtest/gtest.h>

#include "core/cqms.h"
#include "metaquery_reference.h"
#include "workload/synthetic.h"

namespace cqms {
namespace {

/// End-to-end tests driving the whole system through the Cqms facade,
/// exercising the paper's four interaction modes in sequence.
class CqmsIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CqmsOptions options;
    options.clock = &clock_;
    options.miner.refresh_threshold = 1;
    system_ = std::make_unique<Cqms>(options);
    ASSERT_TRUE(workload::PopulateLakeDatabase(system_->database(), 150).ok());
    system_->RegisterUser("alice", {"limnology"});
    system_->RegisterUser("bob", {"limnology"});
    system_->RegisterUser("eve", {"astronomy"});
  }

  storage::QueryId Run(const std::string& user, const std::string& sql) {
    auto e = system_->Execute(user, sql);
    clock_.Advance(20 * kMicrosPerSecond);
    return e.query_id;
  }

  SimulatedClock clock_{1'000'000};
  std::unique_ptr<Cqms> system_;
};

TEST_F(CqmsIntegrationTest, TraditionalModeExecutesAndLogs) {
  auto e = system_->Execute("alice", "SELECT lake, temp FROM WaterTemp WHERE temp < 18");
  EXPECT_TRUE(e.stats.succeeded);
  EXPECT_GT(e.result.rows.size(), 0u);
  EXPECT_EQ(system_->store()->size(), 1u);
}

TEST_F(CqmsIntegrationTest, AnnotationsWholeAndFragment) {
  storage::QueryId id =
      Run("alice", "SELECT lake FROM WaterTemp WHERE temp < 18");
  ASSERT_TRUE(system_->Annotate(id, "alice", "cold lakes baseline").ok());
  ASSERT_TRUE(system_->Annotate(id, "alice", "threshold from 2008 survey",
                                "temp < 18").ok());
  EXPECT_EQ(system_->store()->Get(id)->annotations.size(), 2u);
  // Fragment must exist in the text.
  EXPECT_EQ(system_->Annotate(id, "alice", "x", "no such fragment").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CqmsIntegrationTest, AnnotationRequestPolicy) {
  storage::QueryId simple = Run("alice", "SELECT * FROM CityLocations");
  storage::QueryId complex_query = Run(
      "alice",
      "SELECT T.lake FROM WaterTemp T, WaterSalinity S, CityLocations C "
      "WHERE T.loc_x = S.loc_x");
  EXPECT_FALSE(system_->ShouldRequestAnnotation(simple));
  EXPECT_TRUE(system_->ShouldRequestAnnotation(complex_query));
  ASSERT_TRUE(system_->Annotate(complex_query, "alice", "three-way probe").ok());
  EXPECT_FALSE(system_->ShouldRequestAnnotation(complex_query));
}

TEST_F(CqmsIntegrationTest, SearchAndBrowseMode) {
  Run("alice",
      "SELECT S.salinity, T.temp FROM WaterSalinity S, WaterTemp T "
      "WHERE S.loc_x = T.loc_x AND T.temp < 18");
  Run("bob", "SELECT city FROM CityLocations WHERE state = 'WA'");
  system_->RunMining();

  // Keyword search.
  auto hits = system_->Search(
      "bob", metaquery::LogOrderRequest().WithKeywords("salinity"));
  EXPECT_EQ(hits.matches.size(), 1u);  // bob shares alice's group

  // SQL meta-query over the feature relations.
  auto rows = system_->metaquery().Sql(
      "bob", "SELECT qid FROM DataSources WHERE relname = 'watersalinity'");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 1u);

  // Browse and session view render.
  std::string browse = system_->BrowseLog("bob");
  EXPECT_NE(browse.find("session #"), std::string::npos);
  auto view = system_->ShowSession("bob", 0);
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_NE(view->find("Session #0"), std::string::npos);
}

TEST_F(CqmsIntegrationTest, SessionViewRespectsAcl) {
  Run("alice", "SELECT * FROM WaterTemp");
  system_->RunMining();
  auto denied = system_->ShowSession("eve", 0);
  EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(system_->ShowSession("alice", 42).status().code(),
            StatusCode::kNotFound);
}

TEST_F(CqmsIntegrationTest, AssistedModeEndToEnd) {
  // Build history creating the WaterSalinity->WaterTemp association.
  for (int i = 0; i < 10; ++i) {
    Run("alice",
        "SELECT S.salinity, T.temp FROM WaterSalinity S, WaterTemp T "
        "WHERE S.loc_x = T.loc_x AND T.temp < " + std::to_string(12 + i));
  }
  for (int i = 0; i < 15; ++i) {
    Run("bob", "SELECT city FROM CityLocations WHERE pop > " +
                   std::to_string((i + 1) * 5000));
  }
  system_->RunMining();

  auto response = system_->Assist("alice", "SELECT * FROM WaterSalinity, ");
  ASSERT_FALSE(response.completions.empty());
  EXPECT_EQ(response.completions[0].text, "watertemp");

  auto full = system_->Assist(
      "alice",
      "SELECT T.temp FROM WaterSalinity S, WaterTemp T WHERE S.loc_x = T.loc_x");
  EXPECT_FALSE(full.recommendations.empty());
}

TEST_F(CqmsIntegrationTest, TutorialMentionsPopularRelations) {
  for (int i = 0; i < 5; ++i) Run("alice", "SELECT lake, temp FROM WaterTemp");
  system_->RunMining();
  std::string tutorial = system_->Tutorial();
  EXPECT_NE(tutorial.find("Relation: watertemp"), std::string::npos);
  EXPECT_NE(tutorial.find("temp DOUBLE"), std::string::npos);
}

TEST_F(CqmsIntegrationTest, AdministrativeModeVisibilityAndDeletion) {
  storage::QueryId id = Run("alice", "SELECT * FROM WaterTemp");
  // Group-mate sees it; stranger does not.
  EXPECT_TRUE(system_->store()->Visible("bob", id));
  EXPECT_FALSE(system_->store()->Visible("eve", id));

  // Owner widens to public.
  ASSERT_TRUE(system_->SetVisibility("alice", id, storage::Visibility::kPublic).ok());
  EXPECT_TRUE(system_->store()->Visible("eve", id));

  // Non-owner cannot change or delete.
  EXPECT_EQ(system_->SetVisibility("bob", id, storage::Visibility::kPrivate).code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(system_->DeleteQuery("bob", id).code(),
            StatusCode::kPermissionDenied);
  ASSERT_TRUE(system_->DeleteQuery("alice", id).ok());
  EXPECT_FALSE(system_->store()->Visible("bob", id));
}

TEST_F(CqmsIntegrationTest, MaintenanceLifecycleAfterSchemaChange) {
  storage::QueryId id = Run("alice", "SELECT temp FROM WaterTemp WHERE temp < 18");
  auto r0 = system_->RunMaintenance();
  EXPECT_EQ(r0.flagged_broken, 0u);

  clock_.Advance(kMicrosPerMinute);
  ASSERT_TRUE(system_->database()->RenameTable("WaterTemp", "LakeTemp").ok());
  auto r1 = system_->RunMaintenance();
  EXPECT_EQ(r1.repaired, 1u);
  const storage::QueryRecord* rec = system_->store()->Get(id);
  EXPECT_TRUE(rec->HasFlag(storage::kFlagRepaired));
  // The repaired query is findable under the new table name.
  metaquery::FeatureQuery q;
  q.UsesTable("LakeTemp");
  auto found =
      system_->Search("alice", metaquery::LogOrderRequest().WithFeature(q));
  EXPECT_EQ(found.matches.size(), 1u);
  // And it still executes through the traditional path.
  EXPECT_TRUE(system_->database()->Execute(*rec->Ast()).ok());
}

TEST_F(CqmsIntegrationTest, PersistenceThroughFacade) {
  Run("alice", "SELECT * FROM WaterTemp");
  std::string path = ::testing::TempDir() + "/cqms_facade_snapshot.log";
  ASSERT_TRUE(system_->SaveLog(path).ok());
  storage::QueryStore loaded;
  ASSERT_TRUE(storage::LoadSnapshot(&loaded, path).ok());
  EXPECT_EQ(loaded.size(), 1u);
}

TEST_F(CqmsIntegrationTest, FullWorkloadSmokeTest) {
  // Drive a realistic multi-user workload through the facade's profiler,
  // then exercise every subsystem on top of it.
  workload::WorkloadOptions opts;
  opts.num_sessions = 15;
  SimulatedClock* clock = &clock_;
  storage::QueryStore* store = system_->store();
  profiler::QueryProfiler facade_profiler(system_->database(), store, clock);
  workload::RegisterUsers(store, opts);
  workload::GroundTruth truth =
      workload::GenerateLog(&facade_profiler, store, clock, opts);
  ASSERT_GT(store->size(), 30u);

  system_->RunMining();
  EXPECT_GE(system_->miner().sessions().size(), opts.num_sessions - 1);

  auto report = system_->RunMaintenance();
  // Workload typos misspell table names: they parse but fail to bind, so
  // maintenance correctly flags them broken. Nothing else may be flagged.
  EXPECT_LE(report.flagged_broken, truth.typos_generated);
  EXPECT_GT(report.quality_updated, 0u);

  // Recommendations work for a workload user.
  auto response = system_->Assist(
      workload::UserName(0), "SELECT * FROM WaterTemp T WHERE T.temp < 15");
  EXPECT_FALSE(response.completions.empty() &&
               response.recommendations.empty());
  (void)truth;
}


// Cqms::RunMining frees the distance matrix its miner retained for an
// incremental refresh, which no Cqms path runs; what it mines is what a
// miner that keeps the matrix mines, run after run.
TEST_F(CqmsIntegrationTest, RunMiningMinesWhatAMinerThatKeepsTheMatrixMines) {
  workload::WorkloadOptions workload;
  workload.num_sessions = 40;
  workload.num_users = 3;
  workload::GenerateLog(&system_->profiler(), system_->store(), &clock_,
                        workload);
  ASSERT_GT(system_->store()->size(), 100u);
  miner::QueryMinerOptions options;
  options.refresh_threshold = 1;
  miner::QueryMiner kept(system_->store(), &clock_, options);
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    system_->RunMining();
    kept.RunAll();
    const miner::QueryMiner& mined = system_->miner();
    ASSERT_EQ(mined.sessions().size(), kept.sessions().size());
    for (size_t i = 0; i < kept.sessions().size(); ++i) {
      EXPECT_EQ(mined.sessions()[i].id, kept.sessions()[i].id);
      EXPECT_EQ(mined.sessions()[i].user, kept.sessions()[i].user);
      EXPECT_EQ(mined.sessions()[i].queries, kept.sessions()[i].queries);
    }
    ASSERT_EQ(mined.rules().size(), kept.rules().size());
    for (size_t i = 0; i < kept.rules().size(); ++i) {
      EXPECT_EQ(mined.rules()[i].antecedent, kept.rules()[i].antecedent);
      EXPECT_EQ(mined.rules()[i].consequent, kept.rules()[i].consequent);
      EXPECT_EQ(mined.rules()[i].count, kept.rules()[i].count);
    }
    EXPECT_EQ(mined.clustering().clusters, kept.clustering().clusters);
    EXPECT_EQ(mined.clustering().medoids, kept.clustering().medoids);
    EXPECT_GT(kept.clustering().num_clusters(), 0u);
    EXPECT_EQ(system_->MiningStats().pairs_computed,
              kept.last_refresh_stats().pairs_computed);
  }
}

}  // namespace
}  // namespace cqms
