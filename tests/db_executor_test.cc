#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/hash.h"
#include "db/database.h"
#include "sql/parser.h"

namespace cqms::db {
namespace {

// --- Value ------------------------------------------------------------------

#if defined(__x86_64__) && defined(__GLIBCXX__)
// Rows, results and output samples hold values by value, and projection
// copies every output value: a type tag, one 8-byte int, double or
// bool, and one pointer to a shared string.
TEST(ValueTest, IsAtMost24Bytes) { EXPECT_LE(sizeof(Value), 24u); }
#endif

// Each accessor reads its own type and returns the zero of its result
// for every other type, whatever another type's payload holds (an int's
// bits would read as a true bool or a denormal double).
TEST(ValueTest, AccessorsReadTheirOwnTypeOnly) {
  struct Case {
    Value value;
    int64_t as_int;
    double as_double;
    bool as_bool;
    std::string as_string;
  };
  const Case cases[] = {
      {Value::Null(), 0, 0.0, false, ""},
      {Value(), 0, 0.0, false, ""},
      {Value::Int(7), 7, 7.0, false, ""},
      {Value::Int(-1), -1, -1.0, false, ""},
      {Value::Int(1), 1, 1.0, false, ""},
      {Value::Double(2.5), 0, 2.5, false, ""},
      {Value::Double(-0.0), 0, -0.0, false, ""},
      {Value::String("abc"), 0, 0.0, false, "abc"},
      {Value::String("a string longer than the small-string buffer"), 0, 0.0,
       false, "a string longer than the small-string buffer"},
      {Value::String(""), 0, 0.0, false, ""},
      {Value::Bool(true), 0, 0.0, true, ""},
      {Value::Bool(false), 0, 0.0, false, ""},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.value.ToSqlLiteral());
    EXPECT_EQ(c.value.AsInt(), c.as_int);
    EXPECT_EQ(c.value.AsDouble(), c.as_double);
    EXPECT_EQ(std::signbit(c.value.AsDouble()), std::signbit(c.as_double));
    EXPECT_EQ(c.value.AsBool(), c.as_bool);
    EXPECT_EQ(c.value.AsString(), c.as_string);
  }
}

// The empty string is a string, not a null: it equals another empty
// string, sorts before every other string and after every number, and
// hashes as the FNV-1a of no bytes.
TEST(ValueTest, EmptyStringStaysAString) {
  const Value empty = Value::String("");
  EXPECT_EQ(empty.type(), ValueType::kString);
  EXPECT_FALSE(empty.is_null());
  EXPECT_EQ(empty.Compare(Value::String(std::string())), 0);
  EXPECT_TRUE(empty == Value::String(""));
  EXPECT_EQ(empty.Hash(), Value::String(std::string()).Hash());
  EXPECT_EQ(empty.Hash(), Fnv1a64(""));
  EXPECT_EQ(Value::String("abc").Hash(), Fnv1a64("abc"));
  EXPECT_EQ(empty.Compare(Value::String("a")), -1);
  EXPECT_EQ(Value::String("a").Compare(empty), 1);
  EXPECT_EQ(empty.Compare(Value::Null()), 1);
  EXPECT_EQ(empty.Compare(Value::Int(5)), 1);
  EXPECT_EQ(empty.Compare(Value::Bool(false)), -1);
  EXPECT_EQ(empty.ToString(), "");
  EXPECT_EQ(empty.ToSqlLiteral(), "''");
  EXPECT_EQ(HashRow({empty}), HashRow({Value::String("")}));
}

// Copies of a string value, and of the rows holding it, read one copy
// of the string; a moved value takes it along.
TEST(ValueTest, CopiesOfAStringReadOneCopy) {
  for (const char* text : {"short", "a string longer than the buffer"}) {
    const Value original = Value::String(text);
    const Value copy = original;
    EXPECT_EQ(&copy.AsString(), &original.AsString());
    Value assigned = Value::Int(3);
    assigned = original;
    EXPECT_EQ(&assigned.AsString(), &original.AsString());
    const Row row = {Value::Int(1), original};
    const Row row_copy = row;
    EXPECT_EQ(&row_copy[1].AsString(), &original.AsString());
    Value moved = std::move(assigned);
    EXPECT_EQ(&moved.AsString(), &original.AsString());
    EXPECT_EQ(moved.AsString(), text);
    EXPECT_EQ(copy.Compare(original), 0);
  }
}

/// Builds the small limnology database the paper's examples revolve
/// around (WaterTemp / WaterSalinity / CityLocations).
Database MakeLakeDb() {
  Database db;
  EXPECT_TRUE(db.CreateTable(TableSchema(
                                 "WaterTemp",
                                 {{"lake", ValueType::kString},
                                  {"loc_x", ValueType::kInt},
                                  {"loc_y", ValueType::kInt},
                                  {"temp", ValueType::kDouble}}))
                  .ok());
  EXPECT_TRUE(db.CreateTable(TableSchema(
                                 "WaterSalinity",
                                 {{"lake", ValueType::kString},
                                  {"loc_x", ValueType::kInt},
                                  {"loc_y", ValueType::kInt},
                                  {"salinity", ValueType::kDouble}}))
                  .ok());
  EXPECT_TRUE(db.CreateTable(TableSchema("CityLocations",
                                         {{"city", ValueType::kString},
                                          {"state", ValueType::kString},
                                          {"pop", ValueType::kInt}}))
                  .ok());
  auto ins = [&](const std::string& t, Row r) {
    EXPECT_TRUE(db.Insert(t, std::move(r)).ok());
  };
  ins("WaterTemp", {Value::String("Washington"), Value::Int(1), Value::Int(1),
                    Value::Double(15.5)});
  ins("WaterTemp", {Value::String("Washington"), Value::Int(2), Value::Int(1),
                    Value::Double(16.0)});
  ins("WaterTemp", {Value::String("Union"), Value::Int(3), Value::Int(2),
                    Value::Double(19.5)});
  ins("WaterTemp", {Value::String("Sammamish"), Value::Int(4), Value::Int(3),
                    Value::Double(12.0)});
  ins("WaterSalinity", {Value::String("Washington"), Value::Int(1), Value::Int(1),
                        Value::Double(0.2)});
  ins("WaterSalinity", {Value::String("Union"), Value::Int(3), Value::Int(2),
                        Value::Double(0.5)});
  ins("CityLocations",
      {Value::String("Seattle"), Value::String("WA"), Value::Int(750000)});
  ins("CityLocations",
      {Value::String("Bellevue"), Value::String("WA"), Value::Int(150000)});
  ins("CityLocations",
      {Value::String("Detroit"), Value::String("MI"), Value::Int(630000)});
  return db;
}

QueryResult Exec(const Database& db, const std::string& sql) {
  auto r = db.ExecuteSql(sql);
  EXPECT_TRUE(r.ok()) << r.status() << " for: " << sql;
  return r.ok() ? std::move(r).value() : QueryResult{};
}

TEST(ExecutorTest, SelectConstantWithoutFrom) {
  Database db;
  QueryResult r = Exec(db, "SELECT 1 + 2 * 3");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 7);
}

TEST(ExecutorTest, FullScanSelectStar) {
  Database db = MakeLakeDb();
  QueryResult r = Exec(db, "SELECT * FROM WaterTemp");
  EXPECT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.column_names,
            (std::vector<std::string>{"lake", "loc_x", "loc_y", "temp"}));
}

TEST(ExecutorTest, FilterComparison) {
  Database db = MakeLakeDb();
  QueryResult r = Exec(db, "SELECT lake FROM WaterTemp WHERE temp < 18");
  EXPECT_EQ(r.rows.size(), 3u);
}

TEST(ExecutorTest, ProjectionWithAliasAndExpression) {
  Database db = MakeLakeDb();
  QueryResult r =
      Exec(db, "SELECT temp * 2 AS double_temp FROM WaterTemp WHERE loc_x = 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.column_names[0], "double_temp");
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsDouble(), 31.0);
}

TEST(ExecutorTest, ImplicitJoinWithWhere) {
  Database db = MakeLakeDb();
  QueryResult r = Exec(db,
                      "SELECT T.lake, S.salinity FROM WaterTemp T, "
                      "WaterSalinity S WHERE T.loc_x = S.loc_x AND "
                      "T.loc_y = S.loc_y");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST(ExecutorTest, ExplicitInnerJoin) {
  Database db = MakeLakeDb();
  QueryResult r = Exec(db,
                      "SELECT T.lake FROM WaterTemp T JOIN WaterSalinity S "
                      "ON T.loc_x = S.loc_x");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST(ExecutorTest, LeftJoinPreservesUnmatchedRows) {
  Database db = MakeLakeDb();
  QueryResult r = Exec(db,
                      "SELECT T.lake, S.salinity FROM WaterTemp T LEFT JOIN "
                      "WaterSalinity S ON T.loc_x = S.loc_x");
  EXPECT_EQ(r.rows.size(), 4u);
  int nulls = 0;
  for (const Row& row : r.rows) {
    if (row[1].is_null()) ++nulls;
  }
  EXPECT_EQ(nulls, 2);
}

TEST(ExecutorTest, RightJoinPreservesUnmatchedRight) {
  Database db = MakeLakeDb();
  QueryResult r = Exec(db,
                      "SELECT S.lake FROM WaterSalinity S RIGHT JOIN "
                      "CityLocations C ON S.lake = C.city");
  // No salinity lake matches a city name: all three city rows survive
  // with NULL left sides.
  EXPECT_EQ(r.rows.size(), 3u);
  for (const Row& row : r.rows) EXPECT_TRUE(row[0].is_null());
}

TEST(ExecutorTest, GroupByWithAggregates) {
  Database db = MakeLakeDb();
  QueryResult r = Exec(db,
                      "SELECT lake, COUNT(*) AS n, AVG(temp) FROM WaterTemp "
                      "GROUP BY lake ORDER BY lake");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsString(), "Sammamish");
  EXPECT_EQ(r.rows[2][0].AsString(), "Washington");
  EXPECT_EQ(r.rows[2][1].AsInt(), 2);
  EXPECT_DOUBLE_EQ(r.rows[2][2].AsDouble(), 15.75);
}

TEST(ExecutorTest, HavingFiltersGroups) {
  Database db = MakeLakeDb();
  QueryResult r = Exec(db,
                      "SELECT lake FROM WaterTemp GROUP BY lake "
                      "HAVING COUNT(*) > 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "Washington");
}

TEST(ExecutorTest, AggregateOverEmptyInput) {
  Database db = MakeLakeDb();
  QueryResult r = Exec(db, "SELECT COUNT(*), MAX(temp) FROM WaterTemp WHERE temp > 100");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST(ExecutorTest, CountDistinct) {
  Database db = MakeLakeDb();
  QueryResult r = Exec(db, "SELECT COUNT(DISTINCT lake) FROM WaterTemp");
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
}

/// Runs `sql`, which must fail with an ExecutionError naming its
/// aggregate.
void ExpectNonNumericAggregateError(const std::string& sql,
                                    const std::string& func) {
  Database db = MakeLakeDb();
  auto r = db.ExecuteSql(sql);
  ASSERT_FALSE(r.ok()) << sql;
  EXPECT_EQ(r.status().code(), StatusCode::kExecutionError) << sql;
  EXPECT_NE(r.status().message().find(func + " over non-numeric"),
            std::string::npos)
      << r.status();
}

TEST(ExecutorTest, SumOverStringsIsExecutionError) {
  ExpectNonNumericAggregateError("SELECT SUM(lake) FROM WaterTemp", "SUM");
}

TEST(ExecutorTest, SumDistinctOverStringsIsExecutionError) {
  ExpectNonNumericAggregateError("SELECT SUM(DISTINCT lake) FROM WaterTemp",
                                 "SUM");
}

TEST(ExecutorTest, AvgOverStringsIsExecutionError) {
  ExpectNonNumericAggregateError("SELECT AVG(lake) FROM WaterTemp", "AVG");
}

TEST(ExecutorTest, AvgDistinctOverStringsIsExecutionError) {
  ExpectNonNumericAggregateError("SELECT AVG(DISTINCT lake) FROM WaterTemp",
                                 "AVG");
}

TEST(ExecutorTest, SumAndAvgSkipNulls) {
  Database db = MakeLakeDb();
  // Two of the four WaterTemp rows find no salinity row at their loc_x.
  QueryResult r = Exec(db,
                      "SELECT SUM(S.salinity), AVG(S.salinity), "
                      "AVG(DISTINCT S.salinity) FROM WaterTemp T LEFT JOIN "
                      "WaterSalinity S ON T.loc_x = S.loc_x");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsDouble(), 0.7);
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsDouble(), 0.35);
  EXPECT_DOUBLE_EQ(r.rows[0][2].AsDouble(), 0.35);
  // A string column whose every input is NULL sums to NULL, not an error.
  r = Exec(db,
           "SELECT SUM(S.lake), AVG(S.lake) FROM WaterTemp T LEFT JOIN "
           "WaterSalinity S ON T.loc_x = S.loc_x AND S.loc_x > 100");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_TRUE(r.rows[0][0].is_null());
  EXPECT_TRUE(r.rows[0][1].is_null());
}

/// Runs `sql`, which must fail with ExecutionError "integer overflow".
void ExpectIntegerOverflow(const Database& db, const std::string& sql) {
  auto r = db.ExecuteSql(sql);
  ASSERT_FALSE(r.ok()) << sql;
  EXPECT_EQ(r.status().code(), StatusCode::kExecutionError) << sql;
  EXPECT_EQ(r.status().message(), "integer overflow") << sql;
}

/// A one-column INT table `T` holding `values`.
Database MakeIntTable(const std::vector<int64_t>& values) {
  Database db;
  EXPECT_TRUE(db.CreateTable(TableSchema("T", {{"v", ValueType::kInt}})).ok());
  for (int64_t v : values) EXPECT_TRUE(db.Insert("T", {Value::Int(v)}).ok());
  return db;
}

// No literal spells INT64_MIN; this expression computes it.
const std::string kInt64Min = "(-9223372036854775807 - 1)";

TEST(IntegerOverflowTest, Addition) {
  Database db;
  ExpectIntegerOverflow(db, "SELECT 9223372036854775807 + 1");
  ExpectIntegerOverflow(db, "SELECT " + kInt64Min + " + -1");
  EXPECT_EQ(Exec(db, "SELECT 9223372036854775806 + 1").rows[0][0].AsInt(),
            INT64_MAX);
}

TEST(IntegerOverflowTest, Subtraction) {
  Database db;
  ExpectIntegerOverflow(db, "SELECT -9223372036854775807 - 2");
  ExpectIntegerOverflow(db, "SELECT 9223372036854775807 - -1");
  EXPECT_EQ(Exec(db, "SELECT " + kInt64Min).rows[0][0].AsInt(), INT64_MIN);
}

TEST(IntegerOverflowTest, Multiplication) {
  Database db;
  ExpectIntegerOverflow(db, "SELECT 4611686018427387904 * 2");
  ExpectIntegerOverflow(db, "SELECT " + kInt64Min + " * -1");
  EXPECT_EQ(Exec(db, "SELECT 4611686018427387903 * 2").rows[0][0].AsInt(),
            INT64_MAX - 1);
}

TEST(IntegerOverflowTest, Division) {
  Database db;
  // The exactness test once computed INT64_MIN % -1, which traps.
  ExpectIntegerOverflow(db, "SELECT " + kInt64Min + " / -1");
  EXPECT_EQ(Exec(db, "SELECT 9223372036854775807 / -1").rows[0][0].AsInt(),
            -INT64_MAX);
  EXPECT_EQ(Exec(db, "SELECT " + kInt64Min + " / 1").rows[0][0].AsInt(),
            INT64_MIN);
  EXPECT_DOUBLE_EQ(Exec(db, "SELECT 7 / 2").rows[0][0].AsDouble(), 3.5);
}

TEST(IntegerOverflowTest, ModuloByMinusOneIsZero) {
  Database db;
  QueryResult r = Exec(db, "SELECT " + kInt64Min + " % -1, 7 % -1, -7 % 3");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].type(), ValueType::kInt);
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
  EXPECT_EQ(r.rows[0][1].AsInt(), 0);
  EXPECT_EQ(r.rows[0][2].AsInt(), -1);
}

TEST(IntegerOverflowTest, Negation) {
  Database db;
  ExpectIntegerOverflow(db, "SELECT -" + kInt64Min);
  Database t = MakeIntTable({INT64_MIN + 1});
  EXPECT_EQ(Exec(t, "SELECT -v FROM T").rows[0][0].AsInt(), INT64_MAX);
}

TEST(IntegerOverflowTest, Abs) {
  Database db;
  ExpectIntegerOverflow(db, "SELECT ABS(" + kInt64Min + ")");
  EXPECT_EQ(Exec(db, "SELECT ABS(-9223372036854775807)").rows[0][0].AsInt(),
            INT64_MAX);
}

TEST(IntegerOverflowTest, Sum) {
  Database db = MakeIntTable({INT64_MAX, INT64_MAX, 5});
  ExpectIntegerOverflow(db, "SELECT SUM(v) FROM T");
  ExpectIntegerOverflow(db, "SELECT SUM(9223372036854775807) FROM T");
  // A double input makes the sum a double, which does not overflow.
  EXPECT_EQ(Exec(db, "SELECT SUM(v + 0.5) FROM T").rows[0][0].type(),
            ValueType::kDouble);
  EXPECT_EQ(Exec(db, "SELECT SUM(v) FROM T WHERE v < 10").rows[0][0].AsInt(), 5);
}

TEST(IntegerOverflowTest, SumDistinct) {
  Database db = MakeIntTable({INT64_MAX, INT64_MAX, 5});
  ExpectIntegerOverflow(db, "SELECT SUM(DISTINCT v) FROM T");
  Database fits = MakeIntTable({INT64_MAX - 5, INT64_MAX - 5, 5});
  EXPECT_EQ(Exec(fits, "SELECT SUM(DISTINCT v) FROM T").rows[0][0].AsInt(),
            INT64_MAX);
}

TEST(ExecutorTest, GroupingOverInfiniteAndHugeDoubles) {
  Database db;
  ASSERT_TRUE(db.CreateTable(TableSchema("D", {{"d", ValueType::kDouble}})).ok());
  ASSERT_TRUE(db.CreateTable(TableSchema("I", {{"i", ValueType::kInt}})).ok());
  const double inf = std::numeric_limits<double>::infinity();
  for (double d : {1.0, inf, -inf, 1e300, inf, 1e300, -inf}) {
    ASSERT_TRUE(db.Insert("D", {Value::Double(d)}).ok());
  }
  ASSERT_TRUE(db.Insert("I", {Value::Int(1)}).ok());

  QueryResult r = Exec(db, "SELECT d, COUNT(*) FROM D GROUP BY d");
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[0][0].AsDouble(), 1.0);
  EXPECT_EQ(r.rows[1][0].AsDouble(), inf);
  EXPECT_EQ(r.rows[1][1].AsInt(), 2);
  EXPECT_EQ(r.rows[2][0].AsDouble(), -inf);
  EXPECT_EQ(r.rows[2][1].AsInt(), 2);
  EXPECT_EQ(r.rows[3][0].AsDouble(), 1e300);
  EXPECT_EQ(r.rows[3][1].AsInt(), 2);

  EXPECT_EQ(Exec(db, "SELECT DISTINCT d FROM D").rows.size(), 4u);
  // Every product overflows to +-inf.
  EXPECT_EQ(Exec(db, "SELECT DISTINCT d * 1e308 * 1e308 FROM D").rows.size(), 2u);
  // 1 still groups with 1.0, and hash-joins with it.
  EXPECT_EQ(Exec(db, "SELECT d FROM D WHERE d = 1 UNION SELECT i FROM I")
                .rows.size(),
            1u);
  EXPECT_EQ(Exec(db, "SELECT D.d FROM D, I WHERE D.d = I.i").rows.size(), 1u);
}

TEST(ExecutorTest, OrderByDescendingAndLimit) {
  Database db = MakeLakeDb();
  QueryResult r =
      Exec(db, "SELECT lake, temp FROM WaterTemp ORDER BY temp DESC LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "Union");
  EXPECT_EQ(r.rows[1][0].AsString(), "Washington");
}

TEST(ExecutorTest, OrderByAlias) {
  Database db = MakeLakeDb();
  QueryResult r = Exec(db,
                      "SELECT lake, COUNT(*) AS n FROM WaterTemp GROUP BY lake "
                      "ORDER BY n DESC, lake LIMIT 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "Washington");
}

TEST(ExecutorTest, DistinctRemovesDuplicates) {
  Database db = MakeLakeDb();
  QueryResult r = Exec(db, "SELECT DISTINCT state FROM CityLocations");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST(ExecutorTest, LimitOffset) {
  Database db = MakeLakeDb();
  QueryResult r =
      Exec(db, "SELECT lake FROM WaterTemp ORDER BY lake LIMIT 2 OFFSET 1");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "Union");
}

TEST(ExecutorTest, InListAndBetween) {
  Database db = MakeLakeDb();
  QueryResult r = Exec(db,
                      "SELECT lake FROM WaterTemp WHERE lake IN "
                      "('Union', 'Sammamish') AND temp BETWEEN 10 AND 20");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST(ExecutorTest, LikePatterns) {
  Database db = MakeLakeDb();
  QueryResult r = Exec(db, "SELECT city FROM CityLocations WHERE city LIKE 'Se%'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "Seattle");
  r = Exec(db, "SELECT city FROM CityLocations WHERE city LIKE '_e%e'");
  EXPECT_EQ(r.rows.size(), 2u);  // Seattle, Bellevue (both end in 'e')
  r = Exec(db, "SELECT city FROM CityLocations WHERE city LIKE 'B_ll%'");
  EXPECT_EQ(r.rows.size(), 1u);  // Bellevue
}

TEST(ExecutorTest, UncorrelatedInSubquery) {
  Database db = MakeLakeDb();
  QueryResult r = Exec(db,
                      "SELECT lake FROM WaterTemp WHERE lake IN "
                      "(SELECT lake FROM WaterSalinity)");
  EXPECT_EQ(r.rows.size(), 3u);  // Washington x2, Union
}

TEST(ExecutorTest, CorrelatedExistsSubquery) {
  Database db = MakeLakeDb();
  QueryResult r = Exec(db,
                      "SELECT T.lake FROM WaterTemp T WHERE EXISTS "
                      "(SELECT 1 FROM WaterSalinity S WHERE S.loc_x = T.loc_x)");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST(ExecutorTest, ScalarSubquery) {
  Database db = MakeLakeDb();
  QueryResult r = Exec(db,
                      "SELECT lake FROM WaterTemp WHERE temp = "
                      "(SELECT MAX(temp) FROM WaterTemp)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "Union");
}

TEST(ExecutorTest, UnionDeduplicatesUnionAllDoesNot) {
  Database db = MakeLakeDb();
  QueryResult r = Exec(db,
                      "SELECT lake FROM WaterTemp UNION SELECT lake FROM "
                      "WaterSalinity");
  EXPECT_EQ(r.rows.size(), 3u);
  r = Exec(db,
          "SELECT lake FROM WaterTemp UNION ALL SELECT lake FROM WaterSalinity");
  EXPECT_EQ(r.rows.size(), 6u);
}

TEST(ExecutorTest, NullComparisonsRejectRows) {
  Database db;
  ASSERT_TRUE(db.CreateTable(TableSchema("t", {{"x", ValueType::kInt}})).ok());
  ASSERT_TRUE(db.Insert("t", {Value::Int(1)}).ok());
  ASSERT_TRUE(db.Insert("t", {Value::Null()}).ok());
  EXPECT_EQ(Exec(db, "SELECT x FROM t WHERE x = 1").rows.size(), 1u);
  EXPECT_EQ(Exec(db, "SELECT x FROM t WHERE x <> 1").rows.size(), 0u);
  EXPECT_EQ(Exec(db, "SELECT x FROM t WHERE x IS NULL").rows.size(), 1u);
  EXPECT_EQ(Exec(db, "SELECT x FROM t WHERE x IS NOT NULL").rows.size(), 1u);
}

TEST(ExecutorTest, ThreeValuedLogicInOr) {
  Database db;
  ASSERT_TRUE(db.CreateTable(TableSchema("t", {{"x", ValueType::kInt}})).ok());
  ASSERT_TRUE(db.Insert("t", {Value::Null()}).ok());
  // NULL OR TRUE is TRUE.
  EXPECT_EQ(Exec(db, "SELECT x FROM t WHERE x = 1 OR 1 = 1").rows.size(), 1u);
  // NULL AND TRUE is NULL -> rejected.
  EXPECT_EQ(Exec(db, "SELECT x FROM t WHERE x = 1 AND 1 = 1").rows.size(), 0u);
}

TEST(ExecutorTest, CaseExpression) {
  Database db = MakeLakeDb();
  QueryResult r = Exec(db,
                      "SELECT lake, CASE WHEN temp < 13 THEN 'cold' WHEN temp "
                      "< 18 THEN 'mild' ELSE 'warm' END AS band FROM WaterTemp "
                      "ORDER BY lake, band");
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[0][1].AsString(), "cold");  // Sammamish 12.0
}

TEST(ExecutorTest, ScalarFunctions) {
  Database db = MakeLakeDb();
  QueryResult r = Exec(db,
                      "SELECT UPPER(city), LENGTH(city), SUBSTR(city, 1, 3) "
                      "FROM CityLocations WHERE city = 'Seattle'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "SEATTLE");
  EXPECT_EQ(r.rows[0][1].AsInt(), 7);
  EXPECT_EQ(r.rows[0][2].AsString(), "Sea");
}

TEST(ExecutorTest, UnknownTableIsBindError) {
  Database db = MakeLakeDb();
  auto r = db.ExecuteSql("SELECT * FROM Nonexistent");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBindError);
}

TEST(ExecutorTest, UnknownColumnIsBindError) {
  Database db = MakeLakeDb();
  auto r = db.ExecuteSql("SELECT bogus FROM WaterTemp");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBindError);
}

// A name, aggregate or function that does not bind fails only where it is
// evaluated: behind a filter that keeps no rows, the statement succeeds.
TEST(ExecutorTest, UnboundNamesFailOnlyWhenEvaluated) {
  Database db = MakeLakeDb();
  const std::pair<const char*, StatusCode> cases[] = {
      {"SELECT lake FROM WaterTemp WHERE bogus", StatusCode::kBindError},
      {"SELECT lake FROM WaterTemp WHERE COUNT(*) > 1", StatusCode::kBindError},
      {"SELECT bogus FROM WaterTemp", StatusCode::kBindError},
      {"SELECT FOO(lake) FROM WaterTemp", StatusCode::kExecutionError},
      {"SELECT UPPER(lake, lake) FROM WaterTemp", StatusCode::kExecutionError},
  };
  for (const auto& [sql, code] : cases) {
    auto r = db.ExecuteSql(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), code) << sql;
    // The WHERE of every case ends up as its own conjunct after 1 = 0.
    std::string guarded(sql);
    const size_t where = guarded.find(" WHERE ");
    guarded = where == std::string::npos
                  ? guarded + " WHERE 1 = 0"
                  : guarded.substr(0, where) + " WHERE 1 = 0 AND" +
                        guarded.substr(where + 6);
    EXPECT_EQ(Exec(db, guarded).rows.size(), 0u) << guarded;
  }
}

TEST(ExecutorTest, RowsScannedIsReported) {
  Database db = MakeLakeDb();
  QueryResult r = Exec(db, "SELECT * FROM WaterTemp");
  EXPECT_GE(r.rows_scanned, 4u);
}

TEST(ValidateTest, AcceptsResolvableQueries) {
  Database db = MakeLakeDb();
  auto stmt = sql::Parse(
      "SELECT T.temp FROM WaterTemp T, WaterSalinity S WHERE "
      "T.loc_x = S.loc_x");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(db.Validate(**stmt).ok());
}

TEST(ValidateTest, RejectsUnknownTableAndColumn) {
  Database db = MakeLakeDb();
  auto s1 = sql::Parse("SELECT * FROM Gone");
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(db.Validate(**s1).code(), StatusCode::kBindError);

  auto s2 = sql::Parse("SELECT missing_col FROM WaterTemp");
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(db.Validate(**s2).code(), StatusCode::kBindError);
}

TEST(ValidateTest, ValidatesSubqueriesWithCorrelation) {
  Database db = MakeLakeDb();
  auto good = sql::Parse(
      "SELECT lake FROM WaterTemp T WHERE EXISTS (SELECT 1 FROM "
      "WaterSalinity S WHERE S.loc_x = T.loc_x)");
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(db.Validate(**good).ok());

  auto bad = sql::Parse(
      "SELECT lake FROM WaterTemp WHERE EXISTS (SELECT 1 FROM "
      "WaterSalinity WHERE bogus = 1)");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(db.Validate(**bad).ok());
}

TEST(ValidateTest, DetectsAmbiguousColumns) {
  Database db = MakeLakeDb();
  auto stmt = sql::Parse("SELECT loc_x FROM WaterTemp, WaterSalinity");
  ASSERT_TRUE(stmt.ok());
  Status s = db.Validate(**stmt);
  EXPECT_EQ(s.code(), StatusCode::kBindError);
  EXPECT_NE(s.message().find("ambiguous"), std::string::npos);
}

TEST(SchemaEvolutionTest, DropColumnInvalidatesQueries) {
  Database db = MakeLakeDb();
  auto stmt = sql::Parse("SELECT temp FROM WaterTemp");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(db.Validate(**stmt).ok());
  ASSERT_TRUE(db.DropColumn("WaterTemp", "temp").ok());
  EXPECT_FALSE(db.Validate(**stmt).ok());
}

TEST(SchemaEvolutionTest, RenameTablePropagatesToData) {
  Database db = MakeLakeDb();
  ASSERT_TRUE(db.RenameTable("WaterTemp", "LakeTemp").ok());
  EXPECT_EQ(Exec(db, "SELECT * FROM LakeTemp").rows.size(), 4u);
  EXPECT_FALSE(db.ExecuteSql("SELECT * FROM WaterTemp").ok());
}

TEST(SchemaEvolutionTest, AddColumnBackfillsNulls) {
  Database db = MakeLakeDb();
  ASSERT_TRUE(db.AddColumn("CityLocations", {"founded", ValueType::kInt}).ok());
  QueryResult r = Exec(db, "SELECT founded FROM CityLocations");
  ASSERT_EQ(r.rows.size(), 3u);
  for (const Row& row : r.rows) EXPECT_TRUE(row[0].is_null());
}

TEST(SchemaEvolutionTest, ChangeLogRecordsEvents) {
  SimulatedClock clock(1000);
  Database db(&clock);
  ASSERT_TRUE(db.CreateTable(TableSchema("t", {{"x", ValueType::kInt}})).ok());
  clock.Advance(10);
  ASSERT_TRUE(db.AddColumn("t", {"y", ValueType::kInt}).ok());
  const auto& changes = db.catalog().changes();
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_EQ(changes[0].kind, SchemaChangeKind::kCreateTable);
  EXPECT_EQ(changes[1].kind, SchemaChangeKind::kAddColumn);
  EXPECT_EQ(changes[1].timestamp, 1010);
  EXPECT_EQ(db.catalog().LastChangeTime("t"), 1010);
  EXPECT_EQ(db.catalog().ChangesSince(1005).size(), 1u);
}

}  // namespace
}  // namespace cqms::db
