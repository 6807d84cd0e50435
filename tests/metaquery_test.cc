#include <algorithm>

#include <gtest/gtest.h>

#include "assist/recommend.h"
#include "metaquery/meta_query_executor.h"
#include "metaquery_reference.h"
#include "sql/parser.h"
#include "test_util.h"

namespace cqms::metaquery {
namespace {

using storage::QueryId;
using testing_util::Harness;

TEST(SimilarityTest, IdenticalQueriesScoreOne) {
  auto a = storage::BuildRecordFromText("SELECT * FROM t WHERE x = 1", "u", 0);
  auto b = storage::BuildRecordFromText("SELECT * FROM t WHERE x = 1", "u", 0);
  EXPECT_DOUBLE_EQ(FeatureSimilarity(a.components, b.components), 1.0);
  EXPECT_DOUBLE_EQ(TextSimilarity(a, b), 1.0);
  EXPECT_NEAR(CombinedSimilarity(a, b), 1.0, 1e-9);
}

TEST(SimilarityTest, DisjointQueriesScoreLow) {
  auto a = storage::BuildRecordFromText("SELECT x FROM alpha WHERE x < 1", "u", 0);
  auto b = storage::BuildRecordFromText("SELECT y FROM beta WHERE y > 2", "u", 0);
  EXPECT_LT(CombinedSimilarity(a, b), 0.25);
}

TEST(SimilarityTest, ConstantChangeKeepsHighSimilarity) {
  auto a = storage::BuildRecordFromText(
      "SELECT * FROM WaterTemp WHERE temp < 22", "u", 0);
  auto b = storage::BuildRecordFromText(
      "SELECT * FROM WaterTemp WHERE temp < 18", "u", 0);
  // Same skeleton: feature similarity sees identical structure.
  EXPECT_GT(FeatureSimilarity(a.components, b.components), 0.95);
}

TEST(SimilarityTest, OutputSimilarityComparesBlackBox) {
  storage::OutputSummary a, b, c;
  a.column_names = b.column_names = c.column_names = {"x"};
  std::vector<db::Row> rows, others;
  for (int i = 0; i < 10; ++i) {
    rows.push_back({db::Value::Int(i)});
    others.push_back({db::Value::Int(i + 100)});
  }
  a.sample_rows = b.sample_rows = rows;
  c.sample_rows = others;
  EXPECT_DOUBLE_EQ(OutputSimilarity(a, b), 1.0);
  EXPECT_DOUBLE_EQ(OutputSimilarity(a, c), 0.0);
  storage::OutputSummary empty;
  EXPECT_LT(OutputSimilarity(a, empty), 0);  // unavailable
}

TEST(SimilarityTest, NormalizedEditDistanceBounds) {
  auto a = storage::BuildRecordFromText("SELECT * FROM t", "u", 0);
  auto b = storage::BuildRecordFromText("SELECT * FROM t", "u", 0);
  EXPECT_DOUBLE_EQ(NormalizedEditDistance(a.components, b.components), 0.0);
  auto c = storage::BuildRecordFromText(
      "SELECT z FROM other WHERE z IN (1,2)", "u", 0);
  double d = NormalizedEditDistance(a.components, c.components);
  EXPECT_GT(d, 0.5);
  EXPECT_LE(d, 1.0);
}

class MetaQueryFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    h_ = std::make_unique<Harness>();
    h_->store.acl().AddUser("alice", {"lab"});
    h_->store.acl().AddUser("bob", {"lab"});
    h_->store.acl().AddUser("eve", {"other"});
    correlate_ = h_->Log("alice",
                         "SELECT S.salinity, T.temp FROM WaterSalinity S, "
                         "WaterTemp T WHERE S.loc_x = T.loc_x AND T.temp < 18");
    city_ = h_->Log("bob",
                    "SELECT city FROM CityLocations WHERE state = 'WA' "
                    "ORDER BY pop DESC");
    agg_ = h_->Log("alice",
                   "SELECT lake, AVG(temp) FROM WaterTemp GROUP BY lake");
    nested_ = h_->Log("bob",
                      "SELECT lake FROM WaterTemp WHERE temp = "
                      "(SELECT MAX(temp) FROM WaterTemp)");
    executor_ = std::make_unique<MetaQueryExecutor>(&h_->store);
  }

  std::vector<QueryId> Search(const std::string& viewer,
                              const MetaQueryRequest& request) const {
    return executor_->Execute(viewer, request).Ids();
  }

  /// The top `k` matches for `sql_text`, which must parse.
  std::vector<MetaQueryMatch> Knn(const std::string& viewer,
                                  const std::string& sql_text,
                                  size_t k) const {
    storage::QueryRecord probe = storage::BuildRecordFromText(
        sql_text, viewer, 0, storage::SignatureMode::kTransient);
    EXPECT_FALSE(probe.parse_failed()) << sql_text;
    return executor_->Execute(viewer, KnnRequest(probe, k)).matches;
  }

  std::unique_ptr<Harness> h_;
  std::unique_ptr<MetaQueryExecutor> executor_;
  QueryId correlate_, city_, agg_, nested_;
};

TEST_F(MetaQueryFixture, KeywordSearchMatchesAllWords) {
  auto ids = Search("alice", LogOrderRequest().WithKeywords("salinity temp"));
  EXPECT_EQ(ids, (std::vector<QueryId>{correlate_}));
  // match-any unions.
  auto any = Search("alice", LogOrderRequest().WithKeywords(
                                 "salinity city", /*match_all=*/false));
  EXPECT_EQ(any.size(), 2u);
}

TEST_F(MetaQueryFixture, KeywordSearchRespectsAcl) {
  auto ids = Search("eve", LogOrderRequest().WithKeywords("salinity"));
  EXPECT_TRUE(ids.empty());  // eve shares no group with alice
}

TEST_F(MetaQueryFixture, SubstringSearch) {
  auto ids = Search("bob", LogOrderRequest().WithSubstring("ORDER BY pop"));
  EXPECT_EQ(ids, (std::vector<QueryId>{city_}));
  EXPECT_TRUE(Search("bob", LogOrderRequest().WithSubstring("zzz")).empty());
}

TEST_F(MetaQueryFixture, FeatureQueryByTableAndPredicate) {
  FeatureQuery q;
  q.UsesTable("WaterTemp").HasPredicateOn("watertemp", "temp", "<");
  auto ids = Search("alice", LogOrderRequest().WithFeature(q));
  EXPECT_EQ(ids, (std::vector<QueryId>{correlate_}));
}

TEST_F(MetaQueryFixture, FeatureQueryRuntimeConditions) {
  FeatureQuery q;
  q.UsesTable("CityLocations").SucceededOnly().MinResultRows(1);
  auto ids = Search("bob", LogOrderRequest().WithFeature(q));
  EXPECT_EQ(ids, (std::vector<QueryId>{city_}));
}

TEST_F(MetaQueryFixture, SqlMetaQueryOverFeatureRelations) {
  auto result = executor_->Sql(
      "alice",
      "SELECT Q.qid FROM Queries Q, DataSources D WHERE Q.qid = D.qid AND "
      "D.relname = 'watersalinity'");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].AsInt(), correlate_);
}

TEST_F(MetaQueryFixture, SqlMetaQueryFiltersInvisibleQids) {
  auto result = executor_->Sql("eve", "SELECT qid FROM Queries");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rows.empty());
}

TEST_F(MetaQueryFixture, GeneratedMetaQueryFindsCorrelatingQueries) {
  // The user has typed only: SELECT ... FROM WaterSalinity, WaterTemp
  // plus the attributes of interest; Figure 1's scenario.
  auto partial = sql::Parse(
      "SELECT S.salinity, T.temp FROM WaterSalinity S, WaterTemp T");
  ASSERT_TRUE(partial.ok());
  auto meta_sql = GenerateMetaQueryFromPartial(**partial);
  ASSERT_TRUE(meta_sql.ok()) << meta_sql.status();
  auto result = executor_->Sql("alice", *meta_sql);
  ASSERT_TRUE(result.ok()) << result.status() << "\nSQL: " << *meta_sql;
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].AsInt(), correlate_);
}

TEST_F(MetaQueryFixture, GeneratedMetaQueryRequiresTables) {
  auto partial = sql::Parse("SELECT 1");
  ASSERT_TRUE(partial.ok());
  EXPECT_FALSE(GenerateMetaQueryFromPartial(**partial).ok());
}

TEST_F(MetaQueryFixture, StructuralSearchByJoinsAndAggregates) {
  StructuralPattern joins;
  joins.min_joins = 1;
  auto ids = Search("alice", LogOrderRequest().WithStructure(joins));
  EXPECT_EQ(ids, (std::vector<QueryId>{correlate_}));

  StructuralPattern agg;
  agg.required_aggregates = {"AVG"};
  agg.requires_group_by = true;
  EXPECT_EQ(Search("alice", LogOrderRequest().WithStructure(agg)),
            (std::vector<QueryId>{agg_}));

  StructuralPattern nested;
  nested.requires_subquery = true;
  EXPECT_EQ(Search("alice", LogOrderRequest().WithStructure(nested)),
            (std::vector<QueryId>{nested_}));

  StructuralPattern skel;
  skel.required_predicate_skeletons = {"watertemp.temp < ?"};
  EXPECT_EQ(Search("alice", LogOrderRequest().WithStructure(skel)),
            (std::vector<QueryId>{correlate_}));

  StructuralPattern forbidden;
  forbidden.required_tables = {"watertemp"};
  forbidden.forbidden_tables = {"watersalinity"};
  auto no_salinity =
      Search("alice", LogOrderRequest().WithStructure(forbidden));
  EXPECT_EQ(no_salinity, (std::vector<QueryId>{agg_, nested_}));
}

TEST_F(MetaQueryFixture, QueryByDataPositiveAndNegative) {
  // Find queries whose output includes state 'WA' (the city query).
  std::vector<DataExample> examples;
  examples.push_back({{db::Value::String("Seattle")}, true});
  QueryByDataOptions opts;
  opts.reexecute_on = &h_->database;
  auto ids = Search("bob", LogOrderRequest().WithData(examples, opts));
  EXPECT_EQ(ids, (std::vector<QueryId>{city_}));

  // Negative example: exclude Seattle -> the city query drops out.
  examples.push_back({{db::Value::String("Seattle")}, false});
  EXPECT_TRUE(
      Search("bob", LogOrderRequest().WithData(examples, opts)).empty());
}

TEST_F(MetaQueryFixture, QueryByDataLakeWashingtonScenario) {
  // The paper's example: "all queries whose output includes Lake
  // Washington but not Lake Union" (here: lake names in aggregates).
  std::vector<DataExample> examples;
  examples.push_back({{db::Value::String("Washington")}, true});
  examples.push_back({{db::Value::String("Union")}, false});
  QueryByDataOptions opts;
  opts.reexecute_on = &h_->database;
  // Log a query that provably matches (includes Washington, not Union).
  QueryId filtered = h_->Log(
      "alice", "SELECT lake FROM WaterTemp WHERE lake = 'Washington'");
  auto ids = Search("alice", LogOrderRequest().WithData(examples, opts));
  EXPECT_NE(std::find(ids.begin(), ids.end(), filtered), ids.end());
  // The per-lake aggregate outputs Union too, so it must be excluded.
  EXPECT_EQ(std::find(ids.begin(), ids.end(), agg_), ids.end());
}

TEST_F(MetaQueryFixture, KnnFindsStructuralNeighbors) {
  auto neighbors = Knn("alice",
                       "SELECT T.temp FROM WaterSalinity S, WaterTemp T WHERE "
                       "S.loc_x = T.loc_x AND T.temp < 20",
                       2);
  ASSERT_FALSE(neighbors.empty());
  EXPECT_EQ(neighbors[0].id, correlate_);
  EXPECT_GT(neighbors[0].similarity, 0.5);
}

TEST_F(MetaQueryFixture, KnnRespectsAclAndFlags) {
  EXPECT_TRUE(Knn("eve", "SELECT * FROM WaterTemp", 5).empty());

  ASSERT_TRUE(h_->store.AddFlag(agg_, storage::kFlagObsolete).ok());
  auto neighbors =
      Knn("alice", "SELECT lake, AVG(temp) FROM WaterTemp GROUP BY lake", 10);
  for (const MetaQueryMatch& n : neighbors) EXPECT_NE(n.id, agg_);
}

TEST_F(MetaQueryFixture, KnnUnparsableProbeFails) {
  // A similarity request takes a built probe; the text entry point that
  // builds one refuses text that does not parse.
  assist::RecommendationEngine engine(&h_->store);
  EXPECT_EQ(engine.Recommend("alice", "SELEKT", 3).status().code(),
            StatusCode::kParseError);
}

TEST(RowMatchTest, SubsetSemantics) {
  db::Row row = {db::Value::String("Seattle"), db::Value::Int(750000)};
  EXPECT_TRUE(RowMatchesExample(row, {db::Value::String("Seattle")}));
  EXPECT_TRUE(RowMatchesExample(
      row, {db::Value::Int(750000), db::Value::String("Seattle")}));
  EXPECT_FALSE(RowMatchesExample(row, {db::Value::String("Tacoma")}));
  EXPECT_TRUE(RowMatchesExample(row, {}));  // empty example matches all
}

}  // namespace
}  // namespace cqms::metaquery
