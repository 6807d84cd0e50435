#include "metaquery/feature_query.h"

#include <algorithm>
#include <set>

#include "common/string_util.h"
#include "sql/components.h"

namespace cqms::metaquery {

FeatureQuery& FeatureQuery::UsesTable(std::string table) {
  tables_.push_back(ToLower(table));
  return *this;
}

FeatureQuery& FeatureQuery::UsesAttribute(std::string relation,
                                          std::string attribute) {
  attributes_.emplace_back(ToLower(relation), ToLower(attribute));
  return *this;
}

FeatureQuery& FeatureQuery::HasPredicateOn(std::string relation,
                                           std::string attribute, std::string op) {
  predicates_.push_back({ToLower(relation), ToLower(attribute), std::move(op)});
  return *this;
}

FeatureQuery& FeatureQuery::ByUser(std::string user) {
  user_ = std::move(user);
  return *this;
}

FeatureQuery& FeatureQuery::MaxExecutionMicros(int64_t micros) {
  max_execution_micros_ = micros;
  return *this;
}

FeatureQuery& FeatureQuery::MaxResultRows(uint64_t rows) {
  max_result_rows_ = rows;
  return *this;
}

FeatureQuery& FeatureQuery::MinResultRows(uint64_t rows) {
  min_result_rows_ = rows;
  return *this;
}

FeatureQuery& FeatureQuery::SucceededOnly() {
  succeeded_only_ = true;
  return *this;
}

bool FeatureQuery::MatchesRecord(const storage::QueryRecord& r) const {
  if (succeeded_only_ && !r.stats.succeeded) return false;
  if (max_execution_micros_ && r.stats.execution_micros > *max_execution_micros_) {
    return false;
  }
  if (max_result_rows_ && r.stats.result_rows > *max_result_rows_) return false;
  if (min_result_rows_ && r.stats.result_rows < *min_result_rows_) return false;
  if (user_ && r.user != *user_) return false;
  // Verify indexed conditions exactly against the current record, never
  // trusting a posting list the candidate may have come from.
  for (const std::string& t : tables_) {
    const std::vector<std::string>& tables = r.components->tables;
    if (std::find(tables.begin(), tables.end(), t) == tables.end()) {
      return false;
    }
  }
  for (const auto& [rel, attr] : attributes_) {
    const auto& attributes = r.components->attributes;
    if (std::find(attributes.begin(), attributes.end(),
                  std::make_pair(rel, attr)) == attributes.end()) {
      return false;
    }
  }
  // Verify predicate conditions exactly (the index only knows the
  // attribute was referenced somewhere).
  for (const auto& pc : predicates_) {
    bool found = false;
    for (const auto& p : r.components->predicates) {
      if (p.relation == pc.relation && p.attribute == pc.attribute &&
          (pc.op.empty() || p.op == pc.op)) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

Result<std::string> GenerateMetaQueryFromPartial(
    const sql::SelectStatement& partial) {
  sql::QueryComponents c = sql::CollectComponents(partial);
  if (c.tables.empty()) {
    return Status::InvalidArgument(
        "partial query references no tables; nothing to search for");
  }

  std::string sql = "SELECT Q.qid, Q.qtext FROM Queries Q";
  std::string where;
  int alias_counter = 0;

  auto add_condition = [&](const std::string& cond) {
    if (!where.empty()) where += " AND ";
    where += cond;
  };

  for (const std::string& table : c.tables) {
    std::string alias = "D" + std::to_string(++alias_counter);
    sql += ", DataSources " + alias;
    add_condition("Q.qid = " + alias + ".qid");
    add_condition(alias + ".relname = '" + SqlEscape(table) + "'");
  }

  // Attributes with a known relation (resolved in the partial query)
  // become Attributes joins, mirroring Figure 1's A1/A2 pattern.
  std::set<std::pair<std::string, std::string>> seen;
  for (const auto& [rel, attr] : c.attributes) {
    if (rel.empty() || !seen.insert({rel, attr}).second) continue;
    std::string alias = "A" + std::to_string(++alias_counter);
    sql += ", Attributes " + alias;
    add_condition("Q.qid = " + alias + ".qid");
    add_condition(alias + ".attrname = '" + SqlEscape(attr) + "'");
    add_condition(alias + ".relname = '" + SqlEscape(rel) + "'");
  }

  if (!where.empty()) sql += " WHERE " + where;
  return sql;
}

}  // namespace cqms::metaquery
