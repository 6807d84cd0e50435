#ifndef CQMS_METAQUERY_PARSE_TREE_QUERY_H_
#define CQMS_METAQUERY_PARSE_TREE_QUERY_H_

#include <optional>
#include <string>
#include <vector>

#include "storage/query_store.h"

namespace cqms::metaquery {

/// Query-by-parse-tree (§2.2): conditions on the *structure* of logged
/// queries — joined relations, predicate shapes, nesting, aggregation —
/// independent of constants and output.
struct StructuralPattern {
  /// Every listed table must appear in the query's FROM (any depth).
  std::vector<std::string> required_tables;
  /// None of these tables may appear.
  std::vector<std::string> forbidden_tables;
  /// Required predicate skeletons, e.g. "watertemp.temp < ?" — matches
  /// regardless of the constant (see PredicateFeature::Skeleton).
  std::vector<std::string> required_predicate_skeletons;
  /// Required aggregate functions (upper-case names).
  std::vector<std::string> required_aggregates;
  std::optional<bool> requires_subquery;
  std::optional<bool> requires_group_by;
  std::optional<int> min_joins;
  std::optional<int> max_joins;
  std::optional<int> min_nesting_depth;
};

/// True when `record` (parsed successfully) matches `pattern`.
bool MatchesPattern(const storage::QueryRecord& record,
                    const StructuralPattern& pattern);

}  // namespace cqms::metaquery

#endif  // CQMS_METAQUERY_PARSE_TREE_QUERY_H_
