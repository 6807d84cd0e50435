#ifndef CQMS_METAQUERY_FEATURE_QUERY_H_
#define CQMS_METAQUERY_FEATURE_QUERY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"
#include "storage/query_store.h"

namespace cqms::metaquery {

/// Programmatic query-by-feature (§2.2): conjunctive conditions over the
/// extracted feature relations. The meta-query planner evaluates one
/// (MetaQueryRequest::WithFeature) through the store's indexes; the
/// equivalent SQL meta-query path runs against `QueryStore::feature_db()`
/// (see GenerateMetaQueryFromPartial).
class FeatureQuery {
 public:
  /// Query must read from `table` (any nesting level).
  FeatureQuery& UsesTable(std::string table);

  /// Query must reference relation.attribute.
  FeatureQuery& UsesAttribute(std::string relation, std::string attribute);

  /// Query must contain a selection predicate on relation.attribute,
  /// optionally with a specific operator.
  FeatureQuery& HasPredicateOn(std::string relation, std::string attribute,
                               std::string op = "");

  /// Restrict to one author.
  FeatureQuery& ByUser(std::string user);

  /// Runtime-feature conditions (the paper's "desired properties, e.g.
  /// small result set, fast execution time").
  FeatureQuery& MaxExecutionMicros(int64_t micros);
  FeatureQuery& MaxResultRows(uint64_t rows);
  FeatureQuery& MinResultRows(uint64_t rows);
  FeatureQuery& SucceededOnly();

  /// Exact per-record check of every condition except visibility —
  /// verified against the record's *current* features, never the index
  /// (the meta-query planner's recheck). True for a record this query
  /// accepts.
  bool MatchesRecord(const storage::QueryRecord& record) const;

  struct PredicateCondition {
    std::string relation;
    std::string attribute;
    std::string op;  // empty = any
  };

  // Indexed conditions, exposed so the meta-query planner can fold this
  // query's posting lists into its candidate intersection. All strings
  // are stored lower-cased.
  const std::vector<std::string>& tables() const { return tables_; }
  const std::vector<std::pair<std::string, std::string>>& attributes() const {
    return attributes_;
  }
  const std::vector<PredicateCondition>& predicates() const { return predicates_; }
  const std::optional<std::string>& user() const { return user_; }

  /// True when every condition is exactly backed by a posting list
  /// (tables, attributes, user) — a candidate produced by intersecting
  /// those lists needs no per-record recheck, so the planner can keep
  /// its scoring loop off the record log. Predicate conditions need the
  /// record (the index only knows the attribute was referenced) and the
  /// runtime-feature filters are not indexed at all.
  bool IndexCovered() const {
    return predicates_.empty() && !max_execution_micros_.has_value() &&
           !max_result_rows_.has_value() && !min_result_rows_.has_value() &&
           !succeeded_only_;
  }

 private:
  std::vector<std::string> tables_;
  std::vector<std::pair<std::string, std::string>> attributes_;
  std::vector<PredicateCondition> predicates_;
  std::optional<std::string> user_;
  std::optional<int64_t> max_execution_micros_;
  std::optional<uint64_t> max_result_rows_;
  std::optional<uint64_t> min_result_rows_;
  bool succeeded_only_ = false;
};

/// Generates the Figure-1 meta-query from a *partially written* query:
/// given `SELECT ... FROM WaterSalinity, WaterTemp ...`, produces
///
///   SELECT Q.qid, Q.qtext FROM Queries Q, DataSources D1, DataSources D2
///   WHERE Q.qid = D1.qid AND Q.qid = D2.qid
///     AND D1.relname = 'watersalinity' AND D2.relname = 'watertemp'
///
/// plus one Attributes join per referenced attribute — executable SQL
/// against `QueryStore::feature_db()`. Errors if the partial query
/// references no tables.
Result<std::string> GenerateMetaQueryFromPartial(const sql::SelectStatement& partial);

}  // namespace cqms::metaquery

#endif  // CQMS_METAQUERY_FEATURE_QUERY_H_
