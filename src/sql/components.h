#ifndef CQMS_SQL_COMPONENTS_H_
#define CQMS_SQL_COMPONENTS_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sql/ast.h"

namespace cqms::sql {

/// One WHERE/HAVING/ON predicate decomposed into the shape the paper's
/// `Predicates(qid, attrName, relName, op, const)` feature relation stores
/// (Figure 1).
struct PredicateFeature {
  std::string relation;   ///< Resolved relation name (lower-cased); may be "".
  std::string attribute;  ///< Column name (lower-cased); may be "".
  std::string op;         ///< "=", "<", "LIKE", "IN", "BETWEEN", "IS NULL", "EXPR"...
  std::string constant;   ///< Printed constant side; "" for join predicates.
  bool is_join = false;   ///< True when both sides reference columns.
  std::string rhs_relation;   ///< For join predicates: right side relation.
  std::string rhs_attribute;  ///< For join predicates: right side attribute.

  /// Human-readable rendering, e.g. "watertemp.temp < 18".
  std::string ToString() const;

  /// Rendering with the constant replaced by `?`; two predicates with
  /// equal skeletons differ only in their constants (used by the session
  /// diff to detect "tried different conditions on temp", Figure 2).
  std::string Skeleton() const;

  bool operator==(const PredicateFeature& other) const;
};

/// Syntactic decomposition of one statement: the raw material for the
/// Query Profiler's feature extraction, the structural diff, and the
/// similarity measures.
struct QueryComponents {
  std::vector<std::string> tables;  ///< Resolved, lower-cased, deduplicated.
  /// (relation, attribute) pairs referenced anywhere; lower-cased.
  std::vector<std::pair<std::string, std::string>> attributes;
  std::vector<std::string> projections;  ///< Printed select items (canonical).
  std::vector<PredicateFeature> predicates;
  std::vector<std::string> group_by;     ///< Printed group-by expressions.
  std::vector<std::string> order_by;     ///< Printed order-by expressions.
  std::vector<std::string> aggregates;   ///< Aggregate function names used.
  bool has_subquery = false;
  bool has_distinct = false;
  bool select_star = false;
  int num_joins = 0;       ///< |FROM entries| - 1 summed over the statement.
  int num_tables = 0;      ///< Total FROM entries (with duplicates).
  int max_nesting_depth = 0;  ///< 0 for flat queries.
  std::optional<int64_t> limit;

  bool operator==(const QueryComponents& other) const;
};

/// Extracts `QueryComponents` from a statement. Aliases are resolved
/// within each (sub)query scope; unqualified columns resolve to the
/// single in-scope table when unambiguous, otherwise their relation is
/// left empty. Identifiers are normalized to lower case.
QueryComponents CollectComponents(const SelectStatement& stmt);

}  // namespace cqms::sql

#endif  // CQMS_SQL_COMPONENTS_H_
