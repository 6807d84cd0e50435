#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "assist/assisted_composer.h"
#include "sql/parser.h"
#include "test_util.h"

namespace cqms::assist {
namespace {

using storage::QueryId;
using testing_util::Harness;

/// Shared setup: a log where WaterSalinity strongly co-occurs with
/// WaterTemp while CityLocations is globally more popular — the paper's
/// context-aware completion scenario (§2.3).
class AssistFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    h_ = std::make_unique<Harness>();
    h_->store.acl().AddUser("alice", {"lab"});
    for (int i = 0; i < 12; ++i) {
      h_->Log("alice",
              "SELECT S.salinity, T.temp FROM WaterSalinity S, WaterTemp T "
              "WHERE S.loc_x = T.loc_x AND T.temp < " + std::to_string(12 + i));
    }
    for (int i = 0; i < 25; ++i) {
      h_->Log("alice", "SELECT city FROM CityLocations WHERE pop > " +
                           std::to_string((i + 1) * 10000));
    }
    miner::QueryMinerOptions opts;
    opts.association.min_support = 0.02;
    opts.association.min_confidence = 0.3;
    miner_ = std::make_unique<miner::QueryMiner>(&h_->store, &h_->clock, opts);
    miner_->RunAll();
    composer_ = std::make_unique<AssistedComposer>(&h_->store, &h_->database,
                                                   miner_.get());
  }

  std::unique_ptr<Harness> h_;
  std::unique_ptr<miner::QueryMiner> miner_;
  std::unique_ptr<AssistedComposer> composer_;
};

TEST(ClauseInferenceTest, RecognizesClauses) {
  EXPECT_EQ(InferClause(""), ClauseContext::kStart);
  EXPECT_EQ(InferClause("SELECT x"), ClauseContext::kSelect);
  EXPECT_EQ(InferClause("SELECT x FROM "), ClauseContext::kFrom);
  EXPECT_EQ(InferClause("SELECT x FROM t WHERE "), ClauseContext::kWhere);
  EXPECT_EQ(InferClause("SELECT x FROM t JOIN u ON "), ClauseContext::kWhere);
  EXPECT_EQ(InferClause("SELECT x FROM t GROUP BY "), ClauseContext::kGroupBy);
  EXPECT_EQ(InferClause("SELECT x FROM t ORDER BY "), ClauseContext::kOrderBy);
  EXPECT_EQ(InferClause("SELECT x FROM t LIMIT "), ClauseContext::kOther);
}

TEST_F(AssistFixture, ContextAwareTableCompletion) {
  // The paper's example: after WaterSalinity, WaterTemp must outrank the
  // globally-more-popular CityLocations.
  auto response = composer_->Assist("alice", "SELECT * FROM WaterSalinity, ");
  ASSERT_FALSE(response.completions.empty());
  const CompletionSuggestion& top = response.completions[0];
  EXPECT_EQ(top.kind, CompletionSuggestion::Kind::kTable);
  EXPECT_EQ(top.text, "watertemp");
  // CityLocations appears later (popularity), not first.
  bool saw_cities = false;
  for (size_t i = 1; i < response.completions.size(); ++i) {
    if (response.completions[i].text == "citylocations") saw_cities = true;
  }
  EXPECT_TRUE(saw_cities);
}

TEST_F(AssistFixture, GlobalPopularityWithoutContext) {
  // With an empty FROM, popularity ranks CityLocations first.
  auto response = composer_->Assist("alice", "SELECT * FROM ");
  ASSERT_FALSE(response.completions.empty());
  EXPECT_EQ(response.completions[0].text, "citylocations");
}

TEST_F(AssistFixture, PrefixFiltersTableCompletion) {
  auto response = composer_->Assist("alice", "SELECT * FROM Wat");
  ASSERT_FALSE(response.completions.empty());
  for (const auto& c : response.completions) {
    if (c.kind == CompletionSuggestion::Kind::kTable) {
      EXPECT_EQ(c.text.rfind("wat", 0), 0u) << c.text;
    }
  }
}

TEST_F(AssistFixture, ColumnCompletionInWhere) {
  auto response =
      composer_->Assist("alice", "SELECT * FROM WaterTemp WHERE te");
  bool found_temp = false;
  for (const auto& c : response.completions) {
    if (c.kind == CompletionSuggestion::Kind::kColumn && c.text == "temp") {
      found_temp = true;
    }
  }
  EXPECT_TRUE(found_temp);
}

TEST_F(AssistFixture, PredicateSuggestionsFromRules) {
  auto response =
      composer_->Assist("alice", "SELECT * FROM WaterSalinity, WaterTemp WHERE ");
  bool found_predicate = false;
  for (const auto& c : response.completions) {
    if (c.kind == CompletionSuggestion::Kind::kPredicate) found_predicate = true;
  }
  EXPECT_TRUE(found_predicate);
}

TEST_F(AssistFixture, KeywordCompletionMidWord) {
  auto response = composer_->Assist("alice", "SELECT * FR");
  bool found_from = false;
  for (const auto& c : response.completions) {
    if (c.kind == CompletionSuggestion::Kind::kKeyword && c.text == "FROM") {
      found_from = true;
    }
  }
  EXPECT_TRUE(found_from);
}

TEST_F(AssistFixture, EmptyTextSuggestsSelect) {
  auto response = composer_->Assist("alice", "");
  ASSERT_FALSE(response.completions.empty());
  EXPECT_EQ(response.completions[0].text, "SELECT");
}

TEST_F(AssistFixture, SpellCheckCorrectsTableAndColumn) {
  CorrectionEngine engine(&h_->store, &h_->database);
  auto corrections =
      engine.CorrectIdentifiers("SELECT tem FROM WatrTemp WHERE temq < 5");
  ASSERT_GE(corrections.size(), 2u);
  bool fixed_table = false, fixed_column = false;
  for (const auto& c : corrections) {
    if (c.original == "WatrTemp" && c.replacement == "watertemp") fixed_table = true;
    if ((c.original == "temq" || c.original == "tem") && c.replacement == "temp") {
      fixed_column = true;
    }
  }
  EXPECT_TRUE(fixed_table);
  EXPECT_TRUE(fixed_column);
}

TEST_F(AssistFixture, SpellCheckLeavesAliasesAlone) {
  CorrectionEngine engine(&h_->store, &h_->database);
  auto corrections = engine.CorrectIdentifiers(
      "SELECT T.temp FROM WaterTemp T WHERE T.temp < 5");
  EXPECT_TRUE(corrections.empty());
}

TEST_F(AssistFixture, AutoCorrectSplicesReplacements) {
  CorrectionEngine engine(&h_->store, &h_->database);
  auto fixed = engine.AutoCorrect("SELECT temp FROM WatrTemp WHERE temp < 5");
  ASSERT_TRUE(fixed.ok()) << fixed.status();
  EXPECT_EQ(*fixed, "SELECT temp FROM watertemp WHERE temp < 5");
  EXPECT_TRUE(h_->database.ExecuteSql(*fixed).ok());
  // Nothing to fix -> NotFound.
  EXPECT_FALSE(engine.AutoCorrect("SELECT temp FROM WaterTemp").ok());
}

TEST_F(AssistFixture, PredicateRelaxationForEmptyResults) {
  // The user picks an impossible threshold; logged queries used sane
  // ones. The engine proposes the popular constant.
  auto stmt = sql::Parse(
      "SELECT * FROM WaterSalinity S, WaterTemp T WHERE S.loc_x = T.loc_x "
      "AND T.temp < -50");
  ASSERT_TRUE(stmt.ok());
  CorrectionEngine engine(&h_->store, &h_->database);
  auto relaxations = engine.SuggestPredicateRelaxations("alice", **stmt);
  ASSERT_FALSE(relaxations.empty());
  EXPECT_EQ(relaxations[0].kind, Correction::Kind::kPredicateConstant);
  EXPECT_NE(relaxations[0].original.find("-50"), std::string::npos);
  EXPECT_EQ(relaxations[0].replacement.find("-50"), std::string::npos);
}

TEST_F(AssistFixture, RecommendationsRankSimilarLoggedQueries) {
  RecommendationEngine engine(&h_->store);
  auto recs = engine.Recommend(
      "alice",
      "SELECT T.temp FROM WaterSalinity S, WaterTemp T WHERE S.loc_x = T.loc_x",
      3);
  ASSERT_TRUE(recs.ok());
  ASSERT_FALSE(recs->empty());
  // The top recommendation is a correlate-template query.
  const storage::QueryRecord* top = h_->store.Get((*recs)[0].id);
  ASSERT_NE(top, nullptr);
  EXPECT_NE(top->text->find("WaterSalinity"), std::string::npos);
  EXPECT_FALSE((*recs)[0].diff.empty());
}

TEST_F(AssistFixture, RecommendationsDeduplicateByFingerprint) {
  RecommendationEngine engine(&h_->store);
  // Log the same query many times.
  for (int i = 0; i < 5; ++i) h_->Log("alice", "SELECT lake FROM WaterTemp");
  auto recs = engine.Recommend("alice", "SELECT lake FROM WaterTemp", 10);
  ASSERT_TRUE(recs.ok());
  std::set<std::string> texts;
  for (const auto& r : *recs) {
    EXPECT_TRUE(
        texts.insert(h_->store.Get(r.id)->statement().canonical_text).second)
        << "duplicate recommendation: " << r.text;
  }
}

TEST_F(AssistFixture, RecommendationCarriesAnnotation) {
  QueryId id = h_->Log("alice", "SELECT lake, temp FROM WaterTemp WHERE temp < 14");
  ASSERT_TRUE(
      h_->store.Annotate(id, {"alice", 0, "cold-water probe", ""}).ok());
  RecommendationEngine engine(&h_->store);
  auto recs =
      engine.Recommend("alice", "SELECT lake, temp FROM WaterTemp WHERE temp < 13", 1);
  ASSERT_TRUE(recs.ok());
  ASSERT_FALSE(recs->empty());
  EXPECT_EQ((*recs)[0].annotation, "cold-water probe");
}

TEST_F(AssistFixture, SessionPatternRestrictionFiltersStrangers) {
  // A stranger in the same group issues a structurally alien query.
  h_->store.acl().AddUser("bob", {"lab"});
  h_->Log("bob", "SELECT sensor_id FROM Sensors WHERE kind = 'ph'");

  RecommendOptions opts;
  opts.restrict_to_similar_sessions = true;
  RecommendationEngine engine(&h_->store);
  auto recs = engine.Recommend("alice", "SELECT sensor_id FROM Sensors", 5, opts);
  ASSERT_TRUE(recs.ok());
  for (const auto& r : *recs) {
    EXPECT_NE(h_->store.Get(r.id)->user, "bob");  // no shared session skeletons
  }
}

TEST_F(AssistFixture, RecommendationRequiresParsableProbe) {
  RecommendationEngine engine(&h_->store);
  EXPECT_FALSE(engine.Recommend("alice", "SELEKT", 3).ok());
}

TEST_F(AssistFixture, AssistBundlesAllThreePanels) {
  auto response = composer_->Assist(
      "alice", "SELECT S.salinity FROM WaterSalinity S, WaterTemp T "
               "WHERE S.loc_x = T.loc_x");
  EXPECT_FALSE(response.completions.empty() && response.corrections.empty() &&
               response.recommendations.empty());
  EXPECT_FALSE(response.recommendations.empty());
}

}  // namespace
}  // namespace cqms::assist
