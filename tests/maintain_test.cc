#include <gtest/gtest.h>

#include "common/string_util.h"
#include "maintain/query_maintenance.h"
#include "sql/parser.h"
#include "test_util.h"

namespace cqms::maintain {
namespace {

using storage::QueryId;
using testing_util::Harness;

TEST(RepairTest, TableRenameIsRepaired) {
  Harness h;
  auto stmt = sql::Parse("SELECT temp FROM WaterTemp WHERE temp < 18");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(h.database.RenameTable("WaterTemp", "LakeTemp").ok());

  RepairResult r =
      RepairStatement(**stmt, h.database.catalog().changes(), h.database);
  ASSERT_TRUE(r.repaired) << r.failure_reason;
  EXPECT_NE(r.new_text.find("laketemp"), std::string::npos);
  EXPECT_TRUE(h.database.ExecuteSql(r.new_text).ok());
}

TEST(RepairTest, ColumnRenameIsRepaired) {
  Harness h;
  auto stmt = sql::Parse(
      "SELECT T.temp FROM WaterTemp T WHERE T.temp < 18 ORDER BY T.temp");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(h.database.RenameColumn("WaterTemp", "temp", "temperature").ok());

  RepairResult r =
      RepairStatement(**stmt, h.database.catalog().changes(), h.database);
  ASSERT_TRUE(r.repaired) << r.failure_reason;
  EXPECT_EQ(r.new_text.find("temp <"), std::string::npos);
  EXPECT_NE(r.new_text.find("temperature"), std::string::npos);
  EXPECT_TRUE(h.database.ExecuteSql(r.new_text).ok());
}

TEST(RepairTest, ChainedRenamesFold) {
  Harness h;
  auto stmt = sql::Parse("SELECT * FROM WaterTemp");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(h.database.RenameTable("WaterTemp", "TempA").ok());
  ASSERT_TRUE(h.database.RenameTable("TempA", "TempB").ok());
  RepairResult r =
      RepairStatement(**stmt, h.database.catalog().changes(), h.database);
  ASSERT_TRUE(r.repaired);
  EXPECT_NE(r.new_text.find("tempb"), std::string::npos);
}

TEST(RepairTest, UnqualifiedColumnRenameWithSingleTable) {
  Harness h;
  auto stmt = sql::Parse("SELECT temp FROM WaterTemp WHERE temp < 9");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(h.database.RenameColumn("WaterTemp", "temp", "celsius").ok());
  RepairResult r =
      RepairStatement(**stmt, h.database.catalog().changes(), h.database);
  ASSERT_TRUE(r.repaired) << r.failure_reason;
  EXPECT_TRUE(h.database.ExecuteSql(r.new_text).ok());
}

TEST(RepairTest, DroppedColumnIsIrreparable) {
  Harness h;
  auto stmt = sql::Parse("SELECT temp FROM WaterTemp");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(h.database.DropColumn("WaterTemp", "temp").ok());
  RepairResult r =
      RepairStatement(**stmt, h.database.catalog().changes(), h.database);
  EXPECT_FALSE(r.repaired);
  EXPECT_FALSE(r.failure_reason.empty());
}

TEST(RepairTest, AlreadyValidStatementIsNotTouched) {
  Harness h;
  auto stmt = sql::Parse("SELECT temp FROM WaterTemp");
  ASSERT_TRUE(stmt.ok());
  RepairResult r = RepairStatement(**stmt, {}, h.database);
  EXPECT_FALSE(r.repaired);
}

TEST(MaintenanceTest, FlagsBrokenQueriesAfterSchemaChange) {
  Harness h;
  QueryId ok_query = h.Log("u", "SELECT city FROM CityLocations");
  QueryId doomed = h.Log("u", "SELECT count_obs FROM Species");
  QueryMaintenance maintenance(&h.database, &h.store, &h.clock,
                               MaintenanceOptions{});
  // First run: everything valid.
  MaintenanceReport r0 = maintenance.CheckSchemaValidity();
  EXPECT_EQ(r0.flagged_broken, 0u);

  h.clock.Advance(100);
  ASSERT_TRUE(h.database.DropColumn("Species", "count_obs").ok());
  MaintenanceReport r1 = maintenance.CheckSchemaValidity();
  EXPECT_EQ(r1.flagged_broken, 1u);
  EXPECT_TRUE(h.store.Get(doomed)->HasFlag(storage::kFlagSchemaBroken));
  EXPECT_FALSE(h.store.Get(ok_query)->HasFlag(storage::kFlagSchemaBroken));
}

TEST(MaintenanceTest, IncrementalCheckOnlyTouchesAffectedQueries) {
  Harness h;
  h.Log("u", "SELECT city FROM CityLocations");
  h.Log("u", "SELECT temp FROM WaterTemp");
  QueryMaintenance maintenance(&h.database, &h.store, &h.clock,
                               MaintenanceOptions{});
  MaintenanceReport first = maintenance.CheckSchemaValidity();
  EXPECT_EQ(first.queries_checked, 2u);

  h.clock.Advance(100);
  ASSERT_TRUE(h.database.AddColumn("WaterTemp", {"ph", db::ValueType::kDouble}).ok());
  MaintenanceReport second = maintenance.CheckSchemaValidity();
  EXPECT_EQ(second.queries_checked, 1u);  // only the WaterTemp query
}

TEST(MaintenanceTest, AutoRepairRewritesRenamedReferences) {
  Harness h;
  QueryId id = h.Log("u", "SELECT temp FROM WaterTemp WHERE temp < 18");
  QueryMaintenance maintenance(&h.database, &h.store, &h.clock,
                               MaintenanceOptions{});
  maintenance.CheckSchemaValidity();

  h.clock.Advance(100);
  ASSERT_TRUE(h.database.RenameTable("WaterTemp", "LakeTemp").ok());
  MaintenanceReport report = maintenance.CheckSchemaValidity();
  EXPECT_EQ(report.repaired, 1u);
  EXPECT_EQ(report.flagged_broken, 0u);
  const storage::QueryRecord* r = h.store.Get(id);
  EXPECT_TRUE(r->HasFlag(storage::kFlagRepaired));
  EXPECT_FALSE(r->HasFlag(storage::kFlagSchemaBroken));
  EXPECT_EQ(r->components->tables, (std::vector<std::string>{"laketemp"}));
  // The repaired query executes.
  EXPECT_TRUE(h.database.Execute(*r->Ast()).ok());
}

TEST(MaintenanceTest, RepairDisabledJustFlags) {
  Harness h;
  QueryId id = h.Log("u", "SELECT temp FROM WaterTemp");
  MaintenanceOptions opts;
  opts.auto_repair = false;
  QueryMaintenance maintenance(&h.database, &h.store, &h.clock, opts);
  maintenance.CheckSchemaValidity();
  h.clock.Advance(100);
  ASSERT_TRUE(h.database.RenameTable("WaterTemp", "LakeTemp").ok());
  MaintenanceReport report = maintenance.CheckSchemaValidity();
  EXPECT_EQ(report.repaired, 0u);
  EXPECT_EQ(report.flagged_broken, 1u);
  EXPECT_TRUE(h.store.Get(id)->HasFlag(storage::kFlagSchemaBroken));
}

TEST(MaintenanceTest, RecoveredQueriesAreUnflagged) {
  Harness h;
  QueryId id = h.Log("u", "SELECT temp FROM WaterTemp");
  MaintenanceOptions opts;
  opts.auto_repair = false;
  QueryMaintenance maintenance(&h.database, &h.store, &h.clock, opts);
  maintenance.CheckSchemaValidity();
  h.clock.Advance(100);
  ASSERT_TRUE(h.database.DropColumn("WaterTemp", "temp").ok());
  maintenance.CheckSchemaValidity();
  ASSERT_TRUE(h.store.Get(id)->HasFlag(storage::kFlagSchemaBroken));

  // The admin restores the column; the next run clears the flag.
  h.clock.Advance(100);
  ASSERT_TRUE(h.database.AddColumn("WaterTemp", {"temp", db::ValueType::kDouble})
                  .ok());
  MaintenanceReport report = maintenance.CheckSchemaValidity();
  EXPECT_EQ(report.unflagged, 1u);
  EXPECT_FALSE(h.store.Get(id)->HasFlag(storage::kFlagSchemaBroken));
}

TEST(MaintenanceTest, DataDriftFlagsAndRefreshesStats) {
  Harness h(50);
  QueryId id = h.Log("u", "SELECT * FROM WaterTemp WHERE temp < 18");
  MaintenanceOptions opts;
  opts.drift_threshold = 0.2;
  opts.reexecute_budget = 10;
  QueryMaintenance maintenance(&h.database, &h.store, &h.clock, opts);
  // First run takes the baseline snapshot; no drift yet.
  MaintenanceReport r0 = maintenance.RefreshStatistics();
  EXPECT_EQ(r0.tables_drifted, 0u);

  // Shift the distribution hard: add many hot readings.
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(h.database
                    .Insert("WaterTemp", {db::Value::String("Union"),
                                          db::Value::Int(1), db::Value::Int(1),
                                          db::Value::Double(95.0)})
                    .ok());
  }
  uint64_t rows_before = h.store.Get(id)->stats.result_rows;
  MaintenanceReport r1 = maintenance.RefreshStatistics();
  EXPECT_GE(r1.tables_drifted, 1u);
  EXPECT_GE(r1.stats_refreshed, 1u);
  // Stats were refreshed against the new data and the flag cleared.
  EXPECT_FALSE(h.store.Get(id)->HasFlag(storage::kFlagStatsStale));
  EXPECT_EQ(h.store.Get(id)->stats.result_rows, rows_before);  // temp<18 unchanged
  EXPECT_GT(h.store.Get(id)->stats.rows_scanned, 0u);
}

// A refresh gives the record it re-executes a plan of its own; the other
// runs of the statement, and a view pinned before the refresh, keep the
// copy they share. A later refresh to an equal plan shares the new copy.
TEST(MaintenanceTest, RefreshedPlanIsSharedOnlyByEqualRuns) {
  Harness h(50);
  const std::string sql = "SELECT lake, temp FROM WaterTemp WHERE temp < 18 LIMIT 5";
  std::vector<QueryId> ids;
  for (int i = 0; i < 3; ++i) ids.push_back(h.Log("u", sql));
  h.store.EnableViews();
  MaintenanceOptions opts;
  opts.drift_threshold = 0.2;
  opts.reexecute_budget = 1;
  QueryMaintenance maintenance(&h.database, &h.store, &h.clock, opts);
  maintenance.RefreshStatistics();  // baseline
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(h.database
                    .Insert("WaterTemp", {db::Value::String("Union"),
                                          db::Value::Int(1), db::Value::Int(1),
                                          db::Value::Double(95.0)})
                    .ok());
  }
  const std::string* old_plan = &h.store.Get(ids[0])->stats.plan.str();
  const std::string old_text = *old_plan;
  ASSERT_EQ(&h.store.Get(ids[2])->stats.plan.str(), old_plan);
  std::shared_ptr<const storage::ReadViewState> pinned = h.store.SharedView();

  ASSERT_EQ(maintenance.RefreshStatistics().stats_refreshed, 1u);
  // A copy: a record pointer is good only until the next write, and the
  // next cycle's write to the second run copies the chunk both share.
  const storage::QueryRecord refreshed_copy = *h.store.Get(ids[0]);
  const storage::QueryRecord* refreshed = &refreshed_copy;
  EXPECT_NE(refreshed->stats.plan, old_text);
  for (QueryId id : {ids[1], ids[2]}) {
    EXPECT_EQ(&h.store.Get(id)->stats.plan.str(), old_plan) << id;
  }
  EXPECT_EQ(&pinned->Get(ids[0])->stats.plan.str(), old_plan);
  EXPECT_EQ(pinned->Get(ids[0])->stats.plan, old_text);

  // The next cycle refreshes the second run, still flagged stale.
  ASSERT_EQ(maintenance.RefreshStatistics().stats_refreshed, 1u);
  EXPECT_EQ(h.store.Get(ids[1])->stats.plan, refreshed->stats.plan);
  EXPECT_EQ(&h.store.Get(ids[1])->stats.plan.str(),
            &h.store.Get(ids[0])->stats.plan.str());
  EXPECT_EQ(&h.store.Get(ids[2])->stats.plan.str(), old_plan);
}

TEST(MaintenanceTest, ReexecuteBudgetIsHonored) {
  Harness h(30);
  for (int i = 0; i < 5; ++i) {
    h.Log("u", "SELECT * FROM WaterTemp WHERE temp < " + std::to_string(10 + i));
  }
  MaintenanceOptions opts;
  opts.drift_threshold = 0.1;
  opts.reexecute_budget = 2;
  QueryMaintenance maintenance(&h.database, &h.store, &h.clock, opts);
  maintenance.RefreshStatistics();  // baseline
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(h.database
                    .Insert("WaterTemp", {db::Value::String("Union"),
                                          db::Value::Int(1), db::Value::Int(1),
                                          db::Value::Double(80.0)})
                    .ok());
  }
  MaintenanceReport r = maintenance.RefreshStatistics();
  EXPECT_EQ(r.stats_refreshed, 2u);
  // The rest remain flagged for the next cycle.
  size_t still_stale = 0;
  for (const auto& rec : h.store.records()) {
    if (rec.HasFlag(storage::kFlagStatsStale)) ++still_stale;
  }
  EXPECT_EQ(still_stale, 3u);
}

TEST(QualityTest, ComponentsInfluenceScoreAsDocumented) {
  Harness h;
  QueryId good = h.Log("u", "SELECT city FROM CityLocations WHERE state = 'WA'");
  QueryId broken = h.Log("u", "SELECT bogus FROM CityLocations");
  QueryId complex_query = h.Log(
      "u",
      "SELECT T.lake FROM WaterTemp T, WaterSalinity S, CityLocations C "
      "WHERE T.loc_x = S.loc_x AND T.temp < 18 AND C.state = 'WA' AND "
      "S.salinity > 0.1 AND T.loc_y = S.loc_y");

  double q_good = ComputeQuality(*h.store.Get(good), h.store);
  double q_broken = ComputeQuality(*h.store.Get(broken), h.store);
  double q_complex = ComputeQuality(*h.store.Get(complex_query), h.store);
  EXPECT_GT(q_good, q_broken);
  EXPECT_GT(q_good, q_complex);  // simplicity counts

  // Annotation raises quality.
  ASSERT_TRUE(h.store.Annotate(good, {"u", 0, "note", ""}).ok());
  EXPECT_GT(ComputeQuality(*h.store.Get(good), h.store), q_good);

  // Deleted queries score zero.
  ASSERT_TRUE(h.store.Delete(good, "u").ok());
  EXPECT_EQ(ComputeQuality(*h.store.Get(good), h.store), 0.0);
}

TEST(QualityTest, UpdateAllWritesBack) {
  Harness h;
  h.Log("u", "SELECT 1");
  h.Log("u", "SELECT city FROM CityLocations");
  EXPECT_EQ(UpdateAllQuality(&h.store), 2u);
  for (const auto& r : h.store.records()) {
    EXPECT_GT(r.quality, 0.0);
    EXPECT_LE(r.quality, 1.0);
  }
}

TEST(MaintenanceTest, RunAllCompactsScoringArenasPastThreshold) {
  Harness h;
  std::vector<QueryId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(h.Log("u", "SELECT lake, temp FROM WaterTemp WHERE temp < " +
                                 std::to_string(i)));
  }
  // Churn rewrites to orphan arena runs.
  for (int round = 0; round < 3; ++round) {
    for (QueryId id : ids) {
      ASSERT_TRUE(h.store
                      .RewriteQueryText(
                          id, "SELECT * FROM WaterSalinity WHERE salinity < " +
                                  std::to_string(round * 10 + id))
                      .ok());
    }
  }
  const size_t garbage = h.store.scoring().arena_garbage();
  ASSERT_GT(garbage, 0u);

  // Below threshold: nothing happens.
  MaintenanceOptions high;
  high.compact_arena_min_garbage = garbage + 1;
  MaintenanceReport untouched =
      QueryMaintenance(&h.database, &h.store, &h.clock, high).RunAll();
  EXPECT_EQ(untouched.arena_bytes_compacted, 0u);
  EXPECT_EQ(untouched.arena_garbage_bytes, h.store.scoring().arena_garbage());

  // At threshold: reclaimed exactly, garbage resets, columns coherent.
  MaintenanceOptions low;
  low.compact_arena_min_garbage = 1;
  const size_t garbage_before = h.store.scoring().arena_garbage();
  MaintenanceReport compacted =
      QueryMaintenance(&h.database, &h.store, &h.clock, low).RunAll();
  EXPECT_EQ(compacted.arena_bytes_compacted, garbage_before);
  EXPECT_EQ(compacted.arena_garbage_bytes, 0u);
  EXPECT_EQ(h.store.scoring().arena_garbage(), 0u);
  for (QueryId id : ids) {
    const storage::QueryRecord* r = h.store.Get(id);
    EXPECT_EQ(std::string(h.store.scoring().row_of(id).lowered_text()),
              ToLower(r->text));
    auto tables = h.store.scoring().row_of(id).tables();
    ASSERT_EQ(tables.size, r->statement().signature.tables.size());
    for (size_t t = 0; t < tables.size; ++t) {
      EXPECT_EQ(tables.data[t], r->statement().signature.tables[t]);
    }
  }
}

TEST(MaintenanceTest, RunAllCombinesEverything) {
  Harness h;
  h.Log("u", "SELECT temp FROM WaterTemp");
  QueryMaintenance maintenance(&h.database, &h.store, &h.clock,
                               MaintenanceOptions{});
  MaintenanceReport report = maintenance.RunAll();
  EXPECT_EQ(report.queries_checked, 1u);
  EXPECT_EQ(report.quality_updated, 1u);
}

}  // namespace
}  // namespace cqms::maintain
