// Property-style sweeps over a corpus of generated query texts: the
// invariants every sql-layer transformation must preserve.

#include <gtest/gtest.h>

#include "metaquery/similarity.h"
#include "sql/canonical.h"
#include "sql/components.h"
#include "sql/diff.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "storage/record_builder.h"

namespace cqms::sql {
namespace {

// A corpus spanning every construct the grammar supports.
const char* kCorpus[] = {
    "SELECT 1",
    "SELECT 1 + 2 * 3 - -4",
    "SELECT * FROM WaterTemp",
    "SELECT t.* FROM WaterTemp t",
    "SELECT DISTINCT lake FROM WaterTemp",
    "SELECT lake AS l, temp FROM WaterTemp WHERE temp < 18",
    "SELECT * FROM WaterSalinity S, WaterTemp T, CityLocations L "
    "WHERE T.temp < 18 AND S.loc_x = T.loc_x AND S.loc_y = T.loc_y",
    "SELECT * FROM a JOIN b ON a.x = b.x",
    "SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.x WHERE a.y IS NOT NULL",
    "SELECT * FROM a RIGHT JOIN b ON a.x = b.x",
    "SELECT * FROM a CROSS JOIN b",
    "SELECT city, COUNT(*) AS n FROM t GROUP BY city HAVING COUNT(*) > 5 "
    "ORDER BY n DESC, city LIMIT 10 OFFSET 5",
    "SELECT COUNT(DISTINCT lake), SUM(temp), AVG(temp), MIN(temp), MAX(temp) "
    "FROM WaterTemp",
    "SELECT * FROM t WHERE x IN (1, 2, 3) AND y NOT IN (4, 5)",
    "SELECT * FROM t WHERE x BETWEEN 1 AND 10 AND y NOT BETWEEN 2 AND 3",
    "SELECT * FROM t WHERE name LIKE 'Lake%' AND note NOT LIKE '%tmp%'",
    "SELECT * FROM t WHERE x IS NULL OR y IS NOT NULL",
    "SELECT * FROM t WHERE NOT (a = 1 OR b = 2) AND c <> 3",
    "SELECT * FROM t WHERE x IN (SELECT y FROM u WHERE u.k = t.k)",
    "SELECT * FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.k)",
    "SELECT (SELECT MAX(x) FROM u) AS best FROM t",
    "SELECT CASE WHEN temp < 10 THEN 'cold' WHEN temp < 25 THEN 'mild' "
    "ELSE 'hot' END FROM WaterTemp",
    "SELECT CASE x WHEN 1 THEN 'one' ELSE 'many' END FROM t",
    "SELECT UPPER(name) || '!' FROM t WHERE LENGTH(name) > 3",
    "SELECT a FROM t UNION SELECT b FROM u UNION ALL SELECT c FROM v",
    "SELECT -temp, +temp, temp % 2 FROM WaterTemp WHERE temp / 2 > 1.5e1",
    "SELECT \"Quoted Name\" FROM \"Quoted Table\"",
    "SELECT x FROM t WHERE s = 'it''s quoted'",
};

class CorpusTest : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(AllQueries, CorpusTest, ::testing::ValuesIn(kCorpus));

TEST_P(CorpusTest, PrintParsePrintIsAFixpoint) {
  auto first = Parse(GetParam());
  ASSERT_TRUE(first.ok()) << first.status();
  std::string once = PrintStatement(**first);
  auto second = Parse(once);
  ASSERT_TRUE(second.ok()) << second.status() << " for printed: " << once;
  EXPECT_EQ(PrintStatement(**second), once);
}

TEST_P(CorpusTest, CanonicalizationIsIdempotent) {
  auto stmt = Parse(GetParam());
  ASSERT_TRUE(stmt.ok());
  std::string canon1 = CanonicalText(**stmt);
  auto reparsed = Parse(canon1);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << " for: " << canon1;
  EXPECT_EQ(CanonicalText(**reparsed), canon1);
}

TEST_P(CorpusTest, SkeletonReparsesAndKeepsStructure) {
  auto stmt = Parse(GetParam());
  ASSERT_TRUE(stmt.ok());
  // The skeleton replaces constants with '?', which is not re-parseable;
  // it must still be non-empty and stable across canonicalization.
  std::string s1 = CanonicalSkeleton(**stmt);
  std::string s2 = CanonicalSkeleton(*Canonicalize(**stmt));
  EXPECT_FALSE(s1.empty());
  EXPECT_EQ(s1, s2);
}

TEST_P(CorpusTest, OneCanonicalizationYieldsBothPrintings) {
  auto stmt = Parse(GetParam());
  ASSERT_TRUE(stmt.ok());
  CanonicalForms forms = CanonicalTextAndSkeleton(**stmt);
  EXPECT_EQ(forms.text, CanonicalText(**stmt));
  EXPECT_EQ(forms.skeleton, CanonicalSkeleton(**stmt));
  // The record builder's fingerprints hash these texts directly.
  storage::QueryRecord r = storage::BuildRecordFromText(GetParam(), "u", 0);
  EXPECT_EQ(r.statement().canonical_text, forms.text);
  EXPECT_EQ(r.statement().skeleton, forms.skeleton);
  EXPECT_EQ(r.fingerprint, Fingerprint(**stmt));
  EXPECT_EQ(r.statement().skeleton_fingerprint, SkeletonFingerprint(**stmt));
}

TEST_P(CorpusTest, CloneIsDeepAndEqual) {
  auto stmt = Parse(GetParam());
  ASSERT_TRUE(stmt.ok());
  auto clone = (*stmt)->Clone();
  EXPECT_EQ(PrintStatement(**stmt), PrintStatement(*clone));
  EXPECT_EQ(Fingerprint(**stmt), Fingerprint(*clone));
}

TEST_P(CorpusTest, ComponentsAreStableUnderReprint) {
  auto stmt = Parse(GetParam());
  ASSERT_TRUE(stmt.ok());
  auto reparsed = Parse(PrintStatement(**stmt));
  ASSERT_TRUE(reparsed.ok());
  QueryComponents a = CollectComponents(**stmt);
  QueryComponents b = CollectComponents(**reparsed);
  EXPECT_EQ(a.tables, b.tables);
  EXPECT_EQ(a.attributes, b.attributes);
  EXPECT_EQ(a.projections, b.projections);
  EXPECT_EQ(a.group_by, b.group_by);
  EXPECT_EQ(a.num_joins, b.num_joins);
  EXPECT_EQ(a.has_subquery, b.has_subquery);
  ASSERT_EQ(a.predicates.size(), b.predicates.size());
  for (size_t i = 0; i < a.predicates.size(); ++i) {
    EXPECT_EQ(a.predicates[i].ToString(), b.predicates[i].ToString());
  }
}

TEST_P(CorpusTest, SelfDiffIsEmptyAndDiffIsSymmetricInSize) {
  auto stmt = Parse(GetParam());
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(DiffQueries(**stmt, **stmt).Identical());
  // Against a fixed reference query, |diff(a,b)| == |diff(b,a)|.
  auto ref = Parse("SELECT * FROM WaterTemp WHERE temp < 18");
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(DiffQueries(**stmt, **ref).Distance(),
            DiffQueries(**ref, **stmt).Distance());
}

TEST_P(CorpusTest, SimilarityIsReflexiveSymmetricAndBounded) {
  storage::QueryRecord a = storage::BuildRecordFromText(GetParam(), "u", 0);
  ASSERT_FALSE(a.parse_failed());
  storage::QueryRecord b = storage::BuildRecordFromText(
      "SELECT * FROM WaterTemp WHERE temp < 18", "u", 0);
  double self = metaquery::CombinedSimilarity(a, a);
  EXPECT_NEAR(self, 1.0, 1e-9);
  double ab = metaquery::CombinedSimilarity(a, b);
  double ba = metaquery::CombinedSimilarity(b, a);
  EXPECT_DOUBLE_EQ(ab, ba);
  EXPECT_GE(ab, 0.0);
  EXPECT_LE(ab, 1.0);
}

TEST_P(CorpusTest, FingerprintAgreesWithCanonicalText) {
  auto stmt = Parse(GetParam());
  ASSERT_TRUE(stmt.ok());
  for (const char* other_text : kCorpus) {
    auto other = Parse(other_text);
    ASSERT_TRUE(other.ok());
    bool same_canon = CanonicalText(**stmt) == CanonicalText(**other);
    bool same_fp = Fingerprint(**stmt) == Fingerprint(**other);
    EXPECT_EQ(same_canon, same_fp) << GetParam() << " vs " << other_text;
  }
}

TEST_P(CorpusTest, PrettyPrinterReparses) {
  auto stmt = Parse(GetParam());
  ASSERT_TRUE(stmt.ok());
  std::string pretty = PrettyPrintStatement(**stmt);
  auto reparsed = Parse(pretty);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\npretty:\n" << pretty;
  EXPECT_EQ(PrintStatement(**reparsed), PrintStatement(**stmt));
}

}  // namespace
}  // namespace cqms::sql
