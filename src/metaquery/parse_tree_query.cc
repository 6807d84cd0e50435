#include "metaquery/parse_tree_query.h"

#include <algorithm>

#include "common/string_util.h"

namespace cqms::metaquery {

bool MatchesPattern(const storage::QueryRecord& record,
                    const StructuralPattern& pattern) {
  if (record.parse_failed()) return false;
  const sql::QueryComponents& c = record.components;

  auto has_table = [&](const std::string& t) {
    std::string lower = ToLower(t);
    return std::find(c.tables.begin(), c.tables.end(), lower) != c.tables.end();
  };
  for (const std::string& t : pattern.required_tables) {
    if (!has_table(t)) return false;
  }
  for (const std::string& t : pattern.forbidden_tables) {
    if (has_table(t)) return false;
  }
  for (const std::string& skel : pattern.required_predicate_skeletons) {
    bool found = false;
    for (const auto& p : c.predicates) {
      if (p.Skeleton() == skel) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  for (const std::string& agg : pattern.required_aggregates) {
    std::string upper = ToUpper(agg);
    if (std::find(c.aggregates.begin(), c.aggregates.end(), upper) ==
        c.aggregates.end()) {
      return false;
    }
  }
  if (pattern.requires_subquery && *pattern.requires_subquery != c.has_subquery) {
    return false;
  }
  if (pattern.requires_group_by &&
      *pattern.requires_group_by != !c.group_by.empty()) {
    return false;
  }
  if (pattern.min_joins && c.num_joins < *pattern.min_joins) return false;
  if (pattern.max_joins && c.num_joins > *pattern.max_joins) return false;
  if (pattern.min_nesting_depth && c.max_nesting_depth < *pattern.min_nesting_depth) {
    return false;
  }
  return true;
}

}  // namespace cqms::metaquery
