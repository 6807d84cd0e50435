// Golden digest of the SQL executor's observable output.
//
// Every statement below is executed and folded into one FNV-1a digest of
// what a caller can see: the column names, each value's type and
// rendering, `rows_scanned`, the plan text, and for a failed statement its
// error string. The constants were recorded with the copying executor
// that materialized a Row per scan row and per join combination; any
// executor that reads base rows in place must reproduce them byte for
// byte.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "test_util.h"

namespace cqms::db {
namespace {

/// Accumulates the digest; each piece is followed by a unit separator so
/// adjacent pieces cannot run together.
class Digest {
 public:
  void Add(std::string_view piece) {
    h_ = Fnv1a64(piece, h_);
    h_ = Fnv1a64("\x1f", h_);
  }

  void AddExecution(const Result<QueryResult>& r) {
    if (!r.ok()) {
      ++errors_;
      Add("error");
      Add(r.status().ToString());
      return;
    }
    Add("ok");
    for (const std::string& name : r->column_names) Add(name);
    for (const Row& row : r->rows) {
      Add("row");
      for (const Value& v : row) {
        Add(ValueTypeToString(v.type()));
        Add(v.ToString());
      }
    }
    Add(std::to_string(r->rows_scanned));
    Add(r->plan);
  }

  uint64_t value() const { return h_; }
  size_t errors() const { return errors_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
  size_t errors_ = 0;
};

Database MakeLakeDb(size_t rows) {
  Database db;
  Status s = workload::PopulateLakeDatabase(&db, rows);
  EXPECT_TRUE(s.ok()) << s;
  return db;
}

/// Every distinct text of a seeded exploration log, typo'd texts
/// included, in first-submission order. The texts do not depend on the
/// database's size.
std::vector<std::string> StreamTexts() {
  testing_util::Harness h(30);
  workload::WorkloadOptions options;
  options.num_sessions = 300;
  options.seed = 17;
  workload::RegisterUsers(&h.store, options);
  workload::GenerateLog(h.profiler.get(), &h.store, &h.clock, options);
  std::vector<std::string> texts;
  std::set<std::string> seen;
  for (const storage::QueryRecord& r : h.store.records()) {
    if (seen.insert(r.text).second) texts.push_back(r.text);
  }
  return texts;
}

/// Shapes the seeded stream does not reach: outer joins read through
/// their null-extended side, joins under subqueries, star expansion
/// after a join, empty aggregates, set operations and binding errors.
const char* const kEdgeCases[] = {
    // LEFT / RIGHT joins; the null-extended source is read in WHERE,
    // SELECT and GROUP BY. Every WaterTemp location has a WaterSalinity
    // row, so the ON clauses add a condition some pairs fail.
    "SELECT T.lake, S.salinity FROM WaterTemp T LEFT JOIN WaterSalinity S "
    "ON T.loc_x = S.loc_x AND S.salinity > 0.5 "
    "WHERE S.salinity IS NULL OR T.temp > 25",
    "SELECT T.lake, T.temp, S.lake, COALESCE(S.salinity, -1) FROM WaterTemp T "
    "LEFT JOIN WaterSalinity S ON T.lake = S.lake AND S.salinity > 0.6",
    "SELECT S.lake, COUNT(*) AS n, COUNT(S.salinity), MAX(T.temp) FROM "
    "WaterTemp T LEFT JOIN WaterSalinity S ON T.loc_x = S.loc_x AND "
    "S.salinity < 0.3 GROUP BY S.lake ORDER BY n DESC",
    "SELECT T.temp, S.* FROM WaterSalinity S RIGHT JOIN WaterTemp T "
    "ON S.loc_x = T.loc_x AND S.salinity > 0.5 WHERE T.temp < 15",
    "SELECT * FROM WaterTemp T RIGHT JOIN WaterSalinity S "
    "ON T.loc_x < S.loc_x AND T.temp > 24",
    "SELECT S.lake, T.lake FROM WaterTemp T RIGHT JOIN WaterSalinity S "
    "ON T.loc_y = S.loc_y AND T.temp > 20 "
    "WHERE T.lake IS NULL OR S.salinity < 0.1",
    "SELECT N.kind, COUNT(R.ts), SUM(R.value) FROM Sensors N LEFT JOIN "
    "Readings R ON N.sensor_id = R.sensor_id GROUP BY N.kind ORDER BY N.kind",
    "SELECT T.lake, S.lake, C.city FROM WaterTemp T LEFT JOIN WaterSalinity S "
    "ON T.loc_x = S.loc_x AND S.lake = 'Union' "
    "JOIN CityLocations C ON C.pop > 700000 WHERE T.temp > 20",
    // A three-way join with a residual predicate spanning all three.
    "SELECT T.lake, S.salinity, C.city FROM WaterTemp T, WaterSalinity S, "
    "CityLocations C WHERE T.loc_x = S.loc_x AND "
    "T.temp + S.salinity * 10 < C.pop / 50000",
    "SELECT COUNT(*), SUM(R.value) FROM Sensors N, Readings R, Species P "
    "WHERE N.sensor_id = R.sensor_id AND N.lake = P.lake AND "
    "R.value > P.count_obs",
    // Star expansion after a join.
    "SELECT S.*, T.* FROM WaterTemp T, WaterSalinity S "
    "WHERE T.loc_x = S.loc_x",
    "SELECT T.*, S.lake FROM WaterTemp T JOIN WaterSalinity S "
    "ON T.lake = S.lake WHERE T.temp > 20 LIMIT 20",
    // Correlated subqueries whose outer FROM is a join.
    "SELECT T.lake, S.salinity FROM WaterTemp T, WaterSalinity S WHERE "
    "T.loc_x = S.loc_x AND EXISTS (SELECT 1 FROM CityLocations C "
    "WHERE C.pop > T.temp * 30000)",
    "SELECT T.lake, S.lake FROM WaterTemp T LEFT JOIN WaterSalinity S "
    "ON T.loc_x = S.loc_x AND S.salinity > 0.5 WHERE NOT EXISTS "
    "(SELECT 1 FROM Species P WHERE P.lake = S.lake AND P.count_obs > 30)",
    "SELECT T.lake, S.salinity FROM WaterTemp T LEFT JOIN WaterSalinity S "
    "ON T.loc_x = S.loc_x AND S.salinity > 0.5 WHERE T.loc_x IN "
    "(SELECT R.sensor_id FROM Readings R WHERE R.value > S.salinity * 40)",
    "SELECT T.lake FROM WaterTemp T JOIN WaterSalinity S ON T.lake = S.lake "
    "WHERE T.loc_y IN (SELECT R.sensor_id FROM Readings R "
    "WHERE R.value < S.salinity * 50)",
    "SELECT T.lake, (SELECT COUNT(*) FROM Species P WHERE P.lake = T.lake "
    "AND P.count_obs > S.salinity * 40) AS n FROM WaterTemp T, "
    "WaterSalinity S WHERE T.loc_x = S.loc_x ORDER BY n, T.lake",
    "SELECT T.lake, (SELECT MAX(S.salinity) FROM WaterSalinity S "
    "WHERE S.loc_x = T.loc_x) FROM WaterTemp T, CityLocations C "
    "WHERE C.city = 'Seattle'",
    "SELECT T.lake, (SELECT S.salinity FROM WaterSalinity S "
    "WHERE S.loc_x = T.loc_x) FROM WaterTemp T, CityLocations C "
    "WHERE C.city = 'Seattle'",
    // No FROM clause.
    "SELECT 1 + 1",
    "SELECT 1 + 1 AS two, 'a' || 'b', NULL",
    "SELECT *",
    // Aggregates over empty input.
    "SELECT COUNT(*), SUM(temp), AVG(temp), MIN(lake), MAX(temp) "
    "FROM WaterTemp WHERE temp > 1000",
    "SELECT lake, COUNT(DISTINCT lake), SUM(DISTINCT loc_x) "
    "FROM WaterTemp WHERE 1 = 0",
    "SELECT lake, COUNT(*) FROM WaterTemp WHERE temp > 1000 GROUP BY lake",
    "SELECT COUNT(*), MAX(S.salinity) FROM WaterTemp T, WaterSalinity S "
    "WHERE T.temp > 1000",
    // A group's non-key columns come from its first input tuple.
    "SELECT lake, temp, loc_x, COUNT(*) FROM WaterTemp GROUP BY lake "
    "ORDER BY lake",
    "SELECT T.lake, S.salinity, COUNT(*) FROM WaterTemp T, WaterSalinity S "
    "WHERE T.loc_x = S.loc_x GROUP BY T.lake",
    // HAVING with ORDER BY on an alias.
    "SELECT lake AS l, SUM(loc_x) AS sx, AVG(temp) AS a FROM WaterTemp "
    "GROUP BY lake HAVING MAX(temp) > 10 ORDER BY sx DESC, l",
    "SELECT T.lake, COUNT(*) AS pairs FROM WaterTemp T, WaterSalinity S "
    "WHERE T.lake = S.lake GROUP BY T.lake HAVING COUNT(*) > 2 "
    "ORDER BY pairs DESC",
    // DISTINCT, UNION and UNION ALL.
    "SELECT DISTINCT lake FROM WaterTemp ORDER BY lake",
    "SELECT DISTINCT T.lake, S.lake FROM WaterTemp T, WaterSalinity S "
    "WHERE T.loc_x = S.loc_x",
    "SELECT lake FROM WaterTemp UNION SELECT lake FROM WaterSalinity",
    "SELECT lake FROM WaterTemp WHERE temp < 10 UNION ALL "
    "SELECT lake FROM Species WHERE count_obs > 30",
    "SELECT lake FROM WaterTemp UNION SELECT lake, temp FROM WaterTemp",
    // LIMIT with OFFSET.
    "SELECT * FROM WaterTemp ORDER BY temp LIMIT 5 OFFSET 3",
    "SELECT T.lake, S.salinity FROM WaterTemp T, WaterSalinity S "
    "WHERE T.loc_x = S.loc_x ORDER BY S.salinity DESC LIMIT 4 OFFSET 1",
    "SELECT lake FROM WaterTemp LIMIT 3 OFFSET 100",
    // Unknown and ambiguous columns inside a join.
    "SELECT lake FROM WaterTemp T, WaterSalinity S WHERE T.loc_x = S.loc_x",
    "SELECT T.lake FROM WaterTemp T, WaterSalinity S WHERE lake = 'Union'",
    "SELECT T.lake FROM WaterTemp T LEFT JOIN WaterSalinity S "
    "ON T.loc_x = S.loc_x WHERE lake = 'Union'",
    "SELECT T.nope FROM WaterTemp T, WaterSalinity S",
    "SELECT T.lake FROM WaterTemp T JOIN WaterSalinity S "
    "ON T.nope = S.loc_x",
    "SELECT T.lake FROM WaterTemp T JOIN WaterSalinity S "
    "ON S.loc_x = C.pop JOIN CityLocations C ON C.pop > 0",
    "SELECT X.* FROM WaterTemp T, WaterSalinity S",
    "SELECT T.lake FROM WaterTemp T, Nope N",
    "SELECT T.nope FROM WaterTemp T WHERE 1 = 0",
};

/// Name resolution, aggregate lookup, literal and function edges, and
/// LIMIT without ORDER BY: shapes where an executor that resolves names,
/// aggregates and functions once per block, or stops projecting early,
/// could differ from one that resolves them on every row. Its constant
/// was recorded with the executor that looked every column up by name and
/// every aggregate up by its printed call, on every row.
const char* const kBindingEdgeCases[] = {
    // Mixed-case identifiers, qualified by alias and by table name.
    "SELECT t.LAKE, WATERTEMP.Temp FROM WaterTemp, WaterSalinity t "
    "WHERE WaterTemp.LOC_X = T.loc_x AND t.Salinity > 0.3",
    "SELECT Lake, COUNT(*) FROM WATERTEMP GROUP BY LAKE ORDER BY lake",
    // A correlated subquery whose columns shadow the outer ones.
    "SELECT T.lake, (SELECT COUNT(*) FROM WaterSalinity S WHERE "
    "lake = T.lake AND loc_x > T.loc_x) AS n FROM WaterTemp T ORDER BY n, "
    "T.lake",
    "SELECT lake, temp FROM WaterTemp T WHERE temp > (SELECT AVG(temp) "
    "FROM WaterTemp W WHERE W.lake = T.lake)",
    "SELECT lake FROM WaterTemp T WHERE EXISTS (SELECT 1 FROM CityLocations "
    "C WHERE pop > temp * 30000)",
    "SELECT lake FROM WaterTemp WHERE EXISTS (SELECT 1 FROM WaterSalinity S, "
    "Species P WHERE lake = 'Union')",
    // A subquery that names an outer aggregate by its text.
    "SELECT lake, (SELECT MAX(count_obs) FROM Species P WHERE "
    "P.count_obs < COUNT(*)) FROM WaterTemp GROUP BY lake",
    "SELECT lake, COUNT(*), (SELECT MAX(count_obs) FROM Species P WHERE "
    "P.count_obs < COUNT(*) * 5) FROM WaterTemp GROUP BY lake",
    "SELECT lake, COUNT(*) FROM WaterTemp GROUP BY lake HAVING EXISTS "
    "(SELECT 1 FROM Species P WHERE P.count_obs > COUNT(*) * 10)",
    "SELECT lake FROM WaterTemp GROUP BY lake HAVING EXISTS "
    "(SELECT 1 FROM Species P WHERE P.count_obs > COUNT(*))",
    "SELECT lake, (SELECT COUNT(*) FROM Species P WHERE P.lake = W.lake "
    "HAVING COUNT(*) > 0) FROM WaterTemp W GROUP BY lake",
    // Aggregates where no aggregation context holds them.
    "SELECT lake FROM WaterTemp WHERE COUNT(*) > 1",
    "SELECT lake, COUNT(*) FROM WaterTemp WHERE MAX(temp) > 1 GROUP BY lake",
    "SELECT lake FROM WaterTemp WHERE 1 = 0 AND COUNT(*) > 1",
    "SELECT lake FROM WaterTemp T WHERE T.nope = 1 AND MAX(T.temp) > 1",
    "SELECT SUM(COUNT(*)) FROM WaterTemp",
    "SELECT COUNT(*) FROM WaterTemp GROUP BY COUNT(*)",
    "SELECT T.lake FROM WaterTemp T JOIN WaterSalinity S ON COUNT(*) > 1",
    // One aggregate text repeated in SELECT, HAVING and ORDER BY.
    "SELECT lake, AVG(temp) FROM WaterTemp GROUP BY lake "
    "HAVING AVG(temp) > 10 ORDER BY AVG(temp) DESC",
    "SELECT lake, CASE WHEN COUNT(*) > 5 THEN 'many' ELSE 'few' END, "
    "MAX(temp) - MIN(temp) FROM WaterTemp GROUP BY lake "
    "HAVING COUNT(*) > 1 ORDER BY MAX(temp) - MIN(temp), COUNT(*)",
    // Every literal kind inside predicates.
    "SELECT lake, temp FROM WaterTemp WHERE temp > 12.5 AND loc_x <> 2 AND "
    "lake <> 'Union' AND (temp = NULL) IS NULL AND TRUE",
    "SELECT lake FROM WaterTemp WHERE FALSE OR loc_x IN (1, 3, NULL) OR "
    "temp BETWEEN 20.5 AND 22 OR lake LIKE 'S%'",
    "SELECT lake, loc_x * 2.5, -temp, 'x' || lake, NOT (temp > 15) "
    "FROM WaterTemp WHERE lake = 'Washington' OR lake = 'Sammamish'",
    // Wrong-arity and unknown functions, over rows and over no rows.
    "SELECT UPPER(lake, lake) FROM WaterTemp",
    "SELECT UPPER(lake, lake) FROM WaterTemp WHERE 1 = 0",
    "SELECT FOO(lake) FROM WaterTemp",
    "SELECT FOO(lake) FROM WaterTemp WHERE 1 = 0",
    "SELECT lake FROM WaterTemp WHERE FOO(temp) > 1",
    "SELECT UPPER(nope, lake) FROM WaterTemp",
    "SELECT LOWER(lake), LENGTH(lake), ABS(loc_x - 3), ROUND(temp, 1), "
    "SUBSTR(lake, 2, 3), COALESCE(NULL, lake) FROM WaterTemp LIMIT 3",
    // Lazy errors behind short circuits and untaken branches.
    "SELECT lake FROM WaterTemp WHERE 1 = 1 OR nope = 1",
    "SELECT CASE WHEN 1 = 1 THEN lake ELSE nope END FROM WaterTemp",
    // LIMIT without ORDER BY: over a join, with an OFFSET past the end,
    // with DISTINCT, and before a UNION.
    "SELECT T.lake, S.salinity FROM WaterTemp T, WaterSalinity S "
    "WHERE T.loc_x = S.loc_x LIMIT 5",
    "SELECT * FROM WaterTemp T, WaterSalinity S WHERE T.temp < 20 LIMIT 7 "
    "OFFSET 2",
    "SELECT T.lake, S.salinity FROM WaterTemp T, WaterSalinity S "
    "LIMIT 5 OFFSET 100000",
    "SELECT DISTINCT T.lake FROM WaterTemp T, WaterSalinity S LIMIT 3",
    "SELECT lake FROM WaterTemp LIMIT 2 UNION SELECT lake FROM Species",
    "SELECT lake FROM WaterTemp UNION ALL SELECT lake FROM Species LIMIT 2",
    "SELECT * FROM WaterTemp T LEFT JOIN WaterSalinity S "
    "ON T.loc_x = S.loc_x AND S.salinity > 0.5 LIMIT 4",
    "SELECT lake, 1, T.temp FROM WaterTemp T LIMIT 0",
    "SELECT lake AS l FROM WaterTemp ORDER BY l LIMIT 3",
    "SELECT lake, COUNT(*) FROM WaterTemp GROUP BY lake LIMIT 1",
    "SELECT P.lake FROM Species P WHERE P.lake IN (SELECT T.lake FROM "
    "WaterTemp T, WaterSalinity S WHERE T.temp > S.salinity LIMIT 1)",
    "SELECT lake, (SELECT P.species FROM Species P WHERE P.lake = T.lake "
    "LIMIT 1) FROM WaterTemp T",
    // LIMIT 0 over an unknown column, and LIMIT 1 over a projection that
    // fails only on a later row: both still fail.
    "SELECT nope FROM WaterTemp LIMIT 0",
    "SELECT CASE WHEN temp < 10 THEN lake + 1 ELSE temp END FROM WaterTemp "
    "LIMIT 1",
    // ORDER BY aliases, before and after a star.
    "SELECT temp AS lake FROM WaterTemp ORDER BY lake LIMIT 4",
    "SELECT *, temp AS t FROM WaterTemp ORDER BY t",
    "SELECT temp AS t, * FROM WaterTemp ORDER BY t DESC LIMIT 3",
    // One qualifier naming two FROM sources.
    "SELECT X.lake FROM WaterTemp X, Species X WHERE X.temp > X.count_obs",
    "SELECT * FROM WaterTemp, WaterTemp WHERE WaterTemp.temp > 20",
};

TEST(ExecutorGoldenTest, SeededStreamOnSmallAndLargeLakeDb) {
  const std::vector<std::string> texts = StreamTexts();
  ASSERT_GT(texts.size(), 300u);
  const Database small = MakeLakeDb(30);
  const Database large = MakeLakeDb(400);
  Digest on_small, on_large;
  for (const std::string& text : texts) {
    on_small.AddExecution(small.ExecuteSql(text));
    on_large.AddExecution(large.ExecuteSql(text));
  }
  // The stream includes typo'd texts, which fail.
  EXPECT_GT(on_small.errors(), 0u);
  EXPECT_LT(on_small.errors(), texts.size() / 4);
  EXPECT_EQ(on_small.value(), 0xedcfa8430db4497bULL) << texts.size() << " texts";
  EXPECT_EQ(on_large.value(), 0x6cef68f97c3bc733ULL) << texts.size() << " texts";
}

TEST(ExecutorGoldenTest, EdgeCasesOnSmallLakeDb) {
  const Database db = MakeLakeDb(30);
  Digest digest;
  for (const char* text : kEdgeCases) digest.AddExecution(db.ExecuteSql(text));
  EXPECT_EQ(digest.value(), 0x6c0c627d7568dba2ULL);
}

TEST(ExecutorGoldenTest, BindingEdgeCasesOnSmallLakeDb) {
  const Database db = MakeLakeDb(30);
  Digest digest;
  for (const char* text : kBindingEdgeCases) {
    digest.AddExecution(db.ExecuteSql(text));
  }
  EXPECT_EQ(digest.value(), 0x877d4cf83f0ab787ULL);
}

}  // namespace
}  // namespace cqms::db
