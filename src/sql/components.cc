#include "sql/components.h"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "common/string_util.h"
#include "sql/printer.h"

namespace cqms::sql {

std::string PredicateFeature::ToString() const {
  if (is_join) {
    return relation + "." + attribute + " " + op + " " + rhs_relation + "." +
           rhs_attribute;
  }
  std::string lhs = relation.empty() ? attribute : relation + "." + attribute;
  if (op == "IS NULL" || op == "IS NOT NULL") return lhs + " " + op;
  if (op == "EXPR") return constant;  // whole expression printed
  return lhs + " " + op + " " + constant;
}

std::string PredicateFeature::Skeleton() const {
  if (is_join) return ToString();
  std::string lhs = relation.empty() ? attribute : relation + "." + attribute;
  if (op == "IS NULL" || op == "IS NOT NULL") return lhs + " " + op;
  if (op == "EXPR") return "EXPR(" + lhs + ")";
  return lhs + " " + op + " ?";
}

bool PredicateFeature::operator==(const PredicateFeature& other) const {
  return relation == other.relation && attribute == other.attribute &&
         op == other.op && constant == other.constant && is_join == other.is_join &&
         rhs_relation == other.rhs_relation && rhs_attribute == other.rhs_attribute;
}

bool QueryComponents::operator==(const QueryComponents& other) const {
  return tables == other.tables && attributes == other.attributes &&
         projections == other.projections && predicates == other.predicates &&
         group_by == other.group_by && order_by == other.order_by &&
         aggregates == other.aggregates &&
         has_subquery == other.has_subquery &&
         has_distinct == other.has_distinct &&
         select_star == other.select_star && num_joins == other.num_joins &&
         num_tables == other.num_tables &&
         max_nesting_depth == other.max_nesting_depth && limit == other.limit;
}

namespace {

/// Per-statement-scope collector. Each subquery gets its own scope with
/// its own alias map; results accumulate into the shared output.
class Collector {
 public:
  explicit Collector(QueryComponents* out) : out_(out) {}

  void CollectStatement(const SelectStatement& stmt, int depth) {
    out_->max_nesting_depth = std::max(out_->max_nesting_depth, depth);

    // Build this scope's alias map.
    std::map<std::string, std::string> alias_to_table;
    std::vector<std::string> scope_tables;
    for (const TableRef& tr : stmt.from) {
      std::string table = ToLower(tr.table);
      std::string effective = ToLower(tr.EffectiveName());
      alias_to_table[effective] = table;
      alias_to_table[table] = table;  // tables addressable by their own name
      scope_tables.push_back(table);
      tables_seen_.insert(table);
      ++out_->num_tables;
    }
    if (stmt.from.size() > 1) {
      out_->num_joins += static_cast<int>(stmt.from.size()) - 1;
    }
    if (stmt.distinct) out_->has_distinct = true;
    if (stmt.limit.has_value() && !out_->limit.has_value()) out_->limit = stmt.limit;

    auto resolve = [&](const std::string& qualifier) -> std::string {
      if (qualifier.empty()) {
        return scope_tables.size() == 1 ? scope_tables[0] : std::string();
      }
      auto it = alias_to_table.find(ToLower(qualifier));
      return it == alias_to_table.end() ? ToLower(qualifier) : it->second;
    };

    // Select list: projections + attribute refs.
    PrintOptions canon;
    canon.lowercase_identifiers = true;
    for (const SelectItem& item : stmt.select_items) {
      if (item.is_star) {
        out_->select_star = true;
        out_->projections.push_back(
            item.star_table.empty() ? "*" : ToLower(item.star_table) + ".*");
        continue;
      }
      out_->projections.push_back(PrintExpr(*item.expr, canon));
      CollectExprAttributes(*item.expr, resolve, depth);
    }

    // FROM join conditions are predicates too.
    for (const TableRef& tr : stmt.from) {
      if (tr.join_condition) {
        CollectPredicates(*tr.join_condition, resolve);
        CollectExprAttributes(*tr.join_condition, resolve, depth);
      }
    }
    if (stmt.where) {
      CollectPredicates(*stmt.where, resolve);
      CollectExprAttributes(*stmt.where, resolve, depth);
    }
    for (const auto& g : stmt.group_by) {
      out_->group_by.push_back(PrintExpr(*g, canon));
      CollectExprAttributes(*g, resolve, depth);
    }
    if (stmt.having) {
      CollectPredicates(*stmt.having, resolve);
      CollectExprAttributes(*stmt.having, resolve, depth);
    }
    for (const auto& o : stmt.order_by) {
      out_->order_by.push_back(PrintExpr(*o.expr, canon) +
                               (o.descending ? " DESC" : ""));
      CollectExprAttributes(*o.expr, resolve, depth);
    }
    if (stmt.union_next) CollectStatement(*stmt.union_next, depth);
  }

  void Finish() {
    out_->tables.assign(tables_seen_.begin(), tables_seen_.end());
    std::sort(out_->tables.begin(), out_->tables.end());
    std::sort(attributes_seen_.begin(), attributes_seen_.end());
    attributes_seen_.erase(
        std::unique(attributes_seen_.begin(), attributes_seen_.end()),
        attributes_seen_.end());
    out_->attributes = std::move(attributes_seen_);
    std::sort(out_->aggregates.begin(), out_->aggregates.end());
    out_->aggregates.erase(
        std::unique(out_->aggregates.begin(), out_->aggregates.end()),
        out_->aggregates.end());
  }

 private:
  template <typename Resolve>
  void CollectExprAttributes(const Expr& e, const Resolve& resolve, int depth) {
    // Walk without entering subqueries; subqueries are collected with
    // their own scope below. WalkExpr takes Expr* but we never mutate.
    WalkExpr(const_cast<Expr*>(&e),
             [&](Expr* node) {
               if (node->kind == ExprKind::kColumnRef) {
                 attributes_seen_.emplace_back(resolve(node->table),
                                               ToLower(node->column));
               } else if (node->kind == ExprKind::kFunctionCall &&
                          IsAggregateFunction(node->function_name)) {
                 out_->aggregates.push_back(node->function_name);
               }
             },
             /*enter_subqueries=*/false);
    // Recurse into subqueries with fresh scopes.
    WalkExpr(const_cast<Expr*>(&e),
             [&](Expr* node) {
               if (node->subquery) {
                 out_->has_subquery = true;
                 CollectStatement(*node->subquery, depth + 1);
               }
             },
             /*enter_subqueries=*/false);
  }

  /// True if the expression references any column (without entering
  /// subqueries): distinguishes constant sides of comparisons.
  static bool HasColumnRef(const Expr& e) {
    bool found = false;
    WalkExpr(const_cast<Expr*>(&e),
             [&](Expr* node) {
               if (node->kind == ExprKind::kColumnRef) found = true;
             },
             /*enter_subqueries=*/false);
    return found;
  }

  /// First column reference in the expression, if any.
  static const Expr* FirstColumnRef(const Expr& e) {
    const Expr* found = nullptr;
    WalkExpr(const_cast<Expr*>(&e),
             [&](Expr* node) {
               if (found == nullptr && node->kind == ExprKind::kColumnRef) {
                 found = node;
               }
             },
             /*enter_subqueries=*/false);
    return found;
  }

  template <typename Resolve>
  void CollectPredicates(const Expr& root, const Resolve& resolve) {
    PrintOptions canon;
    canon.lowercase_identifiers = true;
    for (const Expr* conjunct : SplitConjuncts(&root)) {
      PredicateFeature pf;
      const Expr& e = *conjunct;
      if (e.kind == ExprKind::kBinary && IsComparisonOp(e.bop)) {
        const bool left_cols = HasColumnRef(*e.left);
        const bool right_cols = HasColumnRef(*e.right);
        if (left_cols && right_cols) {
          const Expr* lc = FirstColumnRef(*e.left);
          const Expr* rc = FirstColumnRef(*e.right);
          pf.is_join = true;
          pf.relation = resolve(lc->table);
          pf.attribute = ToLower(lc->column);
          pf.op = BinaryOpToString(e.bop);
          pf.rhs_relation = resolve(rc->table);
          pf.rhs_attribute = ToLower(rc->column);
          // Normalize join orientation so a.x = b.y and b.y = a.x match.
          if (pf.op == "=" &&
              std::tie(pf.rhs_relation, pf.rhs_attribute) <
                  std::tie(pf.relation, pf.attribute)) {
            std::swap(pf.relation, pf.rhs_relation);
            std::swap(pf.attribute, pf.rhs_attribute);
          }
        } else if (left_cols || right_cols) {
          const Expr& col_side = left_cols ? *e.left : *e.right;
          const Expr& const_side = left_cols ? *e.right : *e.left;
          const Expr* col = FirstColumnRef(col_side);
          pf.relation = resolve(col->table);
          pf.attribute = ToLower(col->column);
          pf.op = BinaryOpToString(e.bop);
          if (!left_cols) {
            // Flip operator direction: 18 > temp  =>  temp < 18.
            if (pf.op == "<") pf.op = ">";
            else if (pf.op == "<=") pf.op = ">=";
            else if (pf.op == ">") pf.op = "<";
            else if (pf.op == ">=") pf.op = "<=";
          }
          pf.constant = PrintExpr(const_side, canon);
        } else {
          pf.op = "EXPR";
          pf.constant = PrintExpr(e, canon);
        }
      } else if (e.kind == ExprKind::kInList || e.kind == ExprKind::kInSubquery) {
        const Expr* col = FirstColumnRef(*e.left);
        if (col != nullptr) {
          pf.relation = resolve(col->table);
          pf.attribute = ToLower(col->column);
        }
        pf.op = e.negated ? "NOT IN" : "IN";
        if (e.kind == ExprKind::kInList) {
          std::string list = "(";
          for (size_t i = 0; i < e.in_list.size(); ++i) {
            if (i > 0) list += ", ";
            list += PrintExpr(*e.in_list[i], canon);
          }
          list += ")";
          pf.constant = std::move(list);
        } else {
          pf.constant = "(subquery)";
        }
      } else if (e.kind == ExprKind::kBetween) {
        const Expr* col = FirstColumnRef(*e.left);
        if (col != nullptr) {
          pf.relation = resolve(col->table);
          pf.attribute = ToLower(col->column);
        }
        pf.op = e.negated ? "NOT BETWEEN" : "BETWEEN";
        pf.constant =
            PrintExpr(*e.low, canon) + " AND " + PrintExpr(*e.high, canon);
      } else if (e.kind == ExprKind::kIsNull) {
        const Expr* col = FirstColumnRef(*e.left);
        if (col != nullptr) {
          pf.relation = resolve(col->table);
          pf.attribute = ToLower(col->column);
        }
        pf.op = e.negated ? "IS NOT NULL" : "IS NULL";
      } else {
        // OR-expressions, NOT, EXISTS, bare booleans: keep whole text.
        const Expr* col = FirstColumnRef(e);
        if (col != nullptr) {
          pf.relation = resolve(col->table);
          pf.attribute = ToLower(col->column);
        }
        pf.op = "EXPR";
        pf.constant = PrintExpr(e, canon);
      }
      out_->predicates.push_back(std::move(pf));
    }
  }

  QueryComponents* out_;
  std::set<std::string> tables_seen_;
  std::vector<std::pair<std::string, std::string>> attributes_seen_;
};

}  // namespace

QueryComponents CollectComponents(const SelectStatement& stmt) {
  QueryComponents out;
  Collector collector(&out);
  collector.CollectStatement(stmt, 0);
  collector.Finish();
  return out;
}

}  // namespace cqms::sql
