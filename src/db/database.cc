#include "db/database.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "common/string_util.h"
#include "sql/parser.h"
#include "sql/printer.h"

namespace cqms::db {

namespace {

/// An intermediate relation flowing between executor stages: tuples of
/// base-row pointers, `width` per tuple (one per FROM source), stored
/// flat. Scans, filters and joins pass pointers to the tables' rows, and
/// only projection builds output rows. A null pointer is a source an
/// outer join null-extended, or one not joined yet; its columns read as
/// NULL.
struct Relation {
  Layout layout;
  size_t width = 1;
  std::vector<const Row*> slots;

  size_t size() const { return slots.size() / width; }
  const Row* const* tuple(size_t i) const { return slots.data() + i * width; }
  void Append(const Row* const* t) { slots.insert(slots.end(), t, t + width); }
};

/// How an expression's column references relate to a layout.
struct BindInfo {
  bool resolvable = true;        ///< Every column ref found in the layout.
  bool ambiguous = false;        ///< Some ref matched multiple slots.
  bool has_subquery = false;     ///< Conservative: treat as non-pushable.
  std::set<std::string> qualifiers;  ///< Qualifiers of resolved slots.
};

BindInfo AnalyzeBinding(const sql::Expr& expr, const Layout& layout) {
  BindInfo info;
  sql::WalkExpr(
      const_cast<sql::Expr*>(&expr),
      [&](sql::Expr* e) {
        if (e->subquery) info.has_subquery = true;
        if (e->kind != sql::ExprKind::kColumnRef) return;
        int idx = layout.Find(ToLower(e->table), ToLower(e->column));
        if (idx == -2) {
          info.ambiguous = true;
        } else if (idx < 0) {
          info.resolvable = false;
        } else {
          info.qualifiers.insert(layout.slot(idx).qualifier);
        }
      },
      /*enter_subqueries=*/false);
  return info;
}

/// True when every FROM entry after the first is an implicit or inner
/// join — the precondition for pushing WHERE conjuncts below the joins.
bool AllJoinsInner(const sql::SelectStatement& stmt) {
  for (size_t i = 1; i < stmt.from.size(); ++i) {
    sql::JoinType t = stmt.from[i].join_type;
    if (t == sql::JoinType::kLeft || t == sql::JoinType::kRight) return false;
  }
  return true;
}

/// Grouping and DISTINCT equality: same arity, and every value compares
/// equal (NULLs equal each other).
bool RowsEqual(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].Compare(b[i]) != 0) return false;
  }
  return true;
}

/// Aggregate accumulator for one aggregate call within one group.
struct AggAccum {
  int64_t star_count = 0;       ///< Rows seen (COUNT(*)).
  int64_t non_null = 0;         ///< Non-null inputs.
  bool non_numeric = false;     ///< Some non-null input was not a number.
  bool sum_is_double = false;
  int64_t int_sum = 0;
  double double_sum = 0;
  Value min_value;              ///< Null until first input.
  Value max_value;
  std::set<Value> distinct;     ///< Populated only for DISTINCT variants.

  void AddValue(const Value& v, bool want_distinct) {
    if (v.is_null()) return;
    ++non_null;
    if (want_distinct) distinct.insert(v);
    if (v.is_numeric()) {
      if (v.type() == ValueType::kDouble) sum_is_double = true;
      if (v.type() == ValueType::kInt) int_sum += v.AsInt();
      double_sum += v.AsDouble();
    } else {
      non_numeric = true;
    }
    if (min_value.is_null() || v.Compare(min_value) < 0) min_value = v;
    if (max_value.is_null() || v.Compare(max_value) > 0) max_value = v;
  }

  Result<Value> Finalize(const std::string& func, bool is_star,
                         bool want_distinct) const {
    if (func == "COUNT") {
      if (is_star) return Value::Int(star_count);
      if (want_distinct) return Value::Int(static_cast<int64_t>(distinct.size()));
      return Value::Int(non_null);
    }
    if (func == "SUM" || func == "AVG") {
      if (non_numeric) return Status::ExecutionError(func + " over non-numeric");
      if (non_null == 0) return Value::Null();
    }
    if (func == "SUM") {
      if (want_distinct) {
        double s = 0;
        bool dbl = false;
        int64_t is = 0;
        for (const Value& v : distinct) {
          if (v.type() == ValueType::kDouble) dbl = true;
          else is += v.AsInt();
          s += v.AsDouble();
        }
        return dbl ? Value::Double(s) : Value::Int(is);
      }
      return sum_is_double ? Value::Double(double_sum) : Value::Int(int_sum);
    }
    if (func == "AVG") {
      if (want_distinct) {
        double s = 0;
        for (const Value& v : distinct) s += v.AsDouble();
        return Value::Double(s / static_cast<double>(distinct.size()));
      }
      return Value::Double(double_sum / static_cast<double>(non_null));
    }
    if (func == "MIN") return min_value;
    if (func == "MAX") return max_value;
    return Status::Internal("unknown aggregate: " + func);
  }
};

/// One distinct aggregate call appearing in the statement.
struct AggSpec {
  std::string key;             ///< Canonical printed call text.
  const sql::Expr* call;       ///< The call expression.
  bool is_star = false;        ///< COUNT(*).
};

/// One output unit of an aggregation: a representative tuple of its group
/// (all-NULL for an aggregate over empty input) and the group's aggregate
/// values.
struct GroupOut {
  const Row* const* tuple;
  std::map<std::string, Value> aggregates;
};

class ExecutorImpl {
 public:
  explicit ExecutorImpl(const Database* db)
      : db_(db), evaluator_([this](const sql::SelectStatement& s, const Env* outer) {
          return ExecuteSelect(s, outer);
        }) {}

  Result<QueryResult> Run(const sql::SelectStatement& stmt) {
    CQMS_ASSIGN_OR_RETURN(QueryResult result, ExecuteSelect(stmt, nullptr));
    result.rows_scanned = rows_scanned_;
    result.plan = plan_;
    return result;
  }

 private:
  /// Appends one operator line to the recorded plan. Only the top-level
  /// statement is recorded; (possibly correlated, repeatedly executed)
  /// subqueries would bloat the plan text.
  void Plan(const std::string& line) {
    if (depth_ == 1) plan_ += line + "\n";
  }

  struct DepthGuard {
    explicit DepthGuard(int* depth) : depth_(depth) { ++*depth_; }
    ~DepthGuard() { --*depth_; }
    int* depth_;
  };

  Result<QueryResult> ExecuteSelect(const sql::SelectStatement& stmt,
                                    const Env* outer) {
    DepthGuard guard(&depth_);
    // ---- FROM: scans -----------------------------------------------------
    // A scan of source i holds a pointer to every row of its table, in
    // slot i of a tuple wide enough for every source.
    const size_t width = std::max<size_t>(1, stmt.from.size());
    std::vector<Relation> scans;
    Layout full_layout;
    for (size_t si = 0; si < stmt.from.size(); ++si) {
      const sql::TableRef& tr = stmt.from[si];
      const Table* table = db_->GetTable(tr.table);
      if (table == nullptr) {
        return Status::BindError("unknown table: " + ToLower(tr.table));
      }
      Relation scan;
      scan.width = width;
      std::string qualifier = ToLower(tr.EffectiveName());
      const std::vector<ColumnDef>& columns = table->schema().columns();
      for (size_t c = 0; c < columns.size(); ++c) {
        scan.layout.Add(qualifier, columns[c].name, static_cast<int>(si),
                        static_cast<int>(c));
        full_layout.Add(qualifier, columns[c].name, static_cast<int>(si),
                        static_cast<int>(c));
      }
      const std::vector<Row>& rows = table->rows();
      scan.slots.assign(rows.size() * width, nullptr);
      for (size_t r = 0; r < rows.size(); ++r) scan.slots[r * width + si] = &rows[r];
      rows_scanned_ += rows.size();
      Plan("scan " + ToLower(tr.table) + " (" + std::to_string(rows.size()) +
           " rows)");
      scans.push_back(std::move(scan));
    }

    // ---- WHERE conjunct classification ------------------------------------
    std::vector<const sql::Expr*> where_conjuncts;
    if (stmt.where) where_conjuncts = sql::SplitConjuncts(stmt.where.get());
    std::vector<bool> conjunct_used(where_conjuncts.size(), false);
    const bool pushable = !stmt.from.empty() && AllJoinsInner(stmt);

    if (pushable) {
      // Push single-table conjuncts into their scans.
      for (size_t ci = 0; ci < where_conjuncts.size(); ++ci) {
        const sql::Expr& conjunct = *where_conjuncts[ci];
        BindInfo info = AnalyzeBinding(conjunct, full_layout);
        if (info.ambiguous) {
          return Status::BindError("ambiguous column reference in WHERE");
        }
        if (!info.resolvable || info.has_subquery || info.qualifiers.size() != 1) {
          continue;
        }
        const std::string& q = *info.qualifiers.begin();
        for (size_t si = 0; si < scans.size(); ++si) {
          if (ToLower(stmt.from[si].EffectiveName()) != q) continue;
          CQMS_RETURN_IF_ERROR(
              FilterInPlace(&scans[si], conjunct, outer));
          Plan("scan " + ToLower(stmt.from[si].table) + " [pushdown: " +
               sql::PrintExpr(conjunct, {}) + "]");
          conjunct_used[ci] = true;
          break;
        }
      }
    }

    // ---- Joins -------------------------------------------------------------
    Relation acc;
    if (stmt.from.empty()) {
      acc.slots.push_back(nullptr);  // one empty tuple: SELECT 1+1
    } else {
      acc = std::move(scans[0]);
      for (size_t i = 1; i < scans.size(); ++i) {
        const sql::TableRef& tr = stmt.from[i];
        // Gather predicates applicable at this join step.
        std::vector<const sql::Expr*> join_preds;
        if (tr.join_condition) {
          auto on = sql::SplitConjuncts(tr.join_condition.get());
          join_preds.insert(join_preds.end(), on.begin(), on.end());
        }
        Layout combined = CombineLayouts(acc.layout, scans[i].layout);
        if (pushable) {
          for (size_t ci = 0; ci < where_conjuncts.size(); ++ci) {
            if (conjunct_used[ci]) continue;
            BindInfo info = AnalyzeBinding(*where_conjuncts[ci], combined);
            if (!info.resolvable || info.has_subquery || info.ambiguous) continue;
            join_preds.push_back(where_conjuncts[ci]);
            conjunct_used[ci] = true;
          }
        }
        CQMS_ASSIGN_OR_RETURN(
            acc, JoinStep(acc, scans[i], i, std::move(combined), tr.join_type,
                          join_preds, outer, ToLower(tr.table)));
      }
    }

    // ---- Residual WHERE ----------------------------------------------------
    for (size_t ci = 0; ci < where_conjuncts.size(); ++ci) {
      if (conjunct_used[ci]) continue;
      Plan("filter " + sql::PrintExpr(*where_conjuncts[ci], {}));
      CQMS_RETURN_IF_ERROR(FilterInPlace(&acc, *where_conjuncts[ci], outer));
    }

    // ---- Aggregation detection --------------------------------------------
    std::vector<AggSpec> agg_specs;
    CollectAggSpecs(stmt, &agg_specs);
    const bool aggregate_mode = !agg_specs.empty() || !stmt.group_by.empty();

    // In aggregate mode each output unit is a group; otherwise it is a
    // tuple of `acc`.
    std::vector<const Row*> null_tuple;  // represents an empty aggregate
    std::vector<GroupOut> groups;
    if (aggregate_mode) {
      null_tuple.assign(width, nullptr);
      Plan("aggregate " + std::to_string(agg_specs.size()) + " function(s), " +
           std::to_string(stmt.group_by.size()) + " group key(s)");
      CQMS_ASSIGN_OR_RETURN(
          groups, BuildGroups(stmt, acc, agg_specs, null_tuple.data(), outer));
      // HAVING.
      if (stmt.having) {
        size_t kept = 0;
        for (size_t gi = 0; gi < groups.size(); ++gi) {
          Env env{&acc.layout, groups[gi].tuple, outer, &groups[gi].aggregates};
          CQMS_ASSIGN_OR_RETURN(bool pass, evaluator_.EvalPredicate(*stmt.having, env));
          if (!pass) continue;
          if (kept != gi) groups[kept] = std::move(groups[gi]);
          ++kept;
        }
        groups.resize(kept);
      }
    }
    const size_t num_units = aggregate_mode ? groups.size() : acc.size();

    // ---- Projection ----------------------------------------------------------
    QueryResult result;
    struct OutputExpr {
      const sql::Expr* expr = nullptr;  // null => star slot
      int star_slot = -1;
    };
    std::vector<OutputExpr> outputs;
    for (const sql::SelectItem& item : stmt.select_items) {
      if (item.is_star) {
        std::string qualifier = ToLower(item.star_table);
        if (!qualifier.empty()) {
          std::vector<int> slots = acc.layout.SlotsForQualifier(qualifier);
          if (slots.empty()) {
            return Status::BindError("unknown qualifier in select list: " + qualifier);
          }
          for (int s : slots) {
            outputs.push_back({nullptr, s});
            result.column_names.push_back(acc.layout.slot(s).column);
          }
        } else {
          if (acc.layout.size() == 0) {
            return Status::BindError("SELECT * with no FROM clause");
          }
          for (size_t s = 0; s < acc.layout.size(); ++s) {
            outputs.push_back({nullptr, static_cast<int>(s)});
            result.column_names.push_back(acc.layout.slot(s).column);
          }
        }
        continue;
      }
      outputs.push_back({item.expr.get(), -1});
      if (!item.alias.empty()) {
        result.column_names.push_back(ToLower(item.alias));
      } else if (item.expr->kind == sql::ExprKind::kColumnRef) {
        result.column_names.push_back(ToLower(item.expr->column));
      } else {
        result.column_names.push_back(sql::PrintExpr(*item.expr, {}));
      }
    }

    // Each output row is built once, here; ORDER BY keys go to one flat
    // array, `num_keys` per row.
    const size_t num_keys = stmt.order_by.size();
    std::vector<Value> order_keys;
    order_keys.reserve(num_units * num_keys);
    result.rows.reserve(num_units);
    for (size_t u = 0; u < num_units; ++u) {
      const Env env =
          aggregate_mode
              ? Env{&acc.layout, groups[u].tuple, outer, &groups[u].aggregates}
              : Env{&acc.layout, acc.tuple(u), outer, nullptr};
      Row out;
      out.reserve(outputs.size());
      for (const OutputExpr& oe : outputs) {
        if (oe.expr == nullptr) {
          out.push_back(acc.layout.Read(env.tuple, oe.star_slot));
        } else {
          CQMS_ASSIGN_OR_RETURN(Value v, evaluator_.Eval(*oe.expr, env));
          out.push_back(std::move(v));
        }
      }
      for (const sql::OrderItem& oi : stmt.order_by) {
        CQMS_ASSIGN_OR_RETURN(
            Value v, EvalOrderExpr(*oi.expr, env, stmt.select_items, out));
        order_keys.push_back(std::move(v));
      }
      result.rows.push_back(std::move(out));
    }

    // ---- ORDER BY -------------------------------------------------------------
    if (num_keys > 0) {
      Plan("sort " + std::to_string(num_keys) + " key(s)");
      std::vector<size_t> perm(result.rows.size());
      for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
      std::stable_sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
        for (size_t k = 0; k < num_keys; ++k) {
          int cmp = order_keys[a * num_keys + k].Compare(order_keys[b * num_keys + k]);
          if (cmp != 0) return stmt.order_by[k].descending ? cmp > 0 : cmp < 0;
        }
        return false;
      });
      std::vector<Row> sorted;
      sorted.reserve(result.rows.size());
      for (size_t i : perm) sorted.push_back(std::move(result.rows[i]));
      result.rows = std::move(sorted);
    }

    // ---- DISTINCT ---------------------------------------------------------------
    if (stmt.distinct) {
      Plan("distinct");
      DeduplicateRows(&result.rows);
    }

    // ---- LIMIT / OFFSET ------------------------------------------------------------
    if (stmt.offset.has_value()) {
      size_t off = static_cast<size_t>(std::max<int64_t>(0, *stmt.offset));
      if (off >= result.rows.size()) {
        result.rows.clear();
      } else {
        result.rows.erase(result.rows.begin(), result.rows.begin() + off);
      }
    }
    if (stmt.limit.has_value()) {
      Plan("limit " + std::to_string(*stmt.limit));
      size_t lim = static_cast<size_t>(std::max<int64_t>(0, *stmt.limit));
      if (result.rows.size() > lim) result.rows.resize(lim);
    }

    // ---- UNION ------------------------------------------------------------------
    if (stmt.union_next) {
      Plan(stmt.union_all ? "union all" : "union (dedup)");
      CQMS_ASSIGN_OR_RETURN(QueryResult rest, ExecuteSelect(*stmt.union_next, outer));
      if (rest.column_names.size() != result.column_names.size()) {
        return Status::ExecutionError("UNION arms have different arity");
      }
      for (Row& r : rest.rows) result.rows.push_back(std::move(r));
      if (!stmt.union_all) DeduplicateRows(&result.rows);
    }
    return result;
  }

  /// Keeps the tuples of `rel` that satisfy `predicate`, compacting them
  /// in place.
  Status FilterInPlace(Relation* rel, const sql::Expr& predicate,
                       const Env* outer) {
    const size_t width = rel->width;
    const size_t n = rel->size();
    size_t kept = 0;
    for (size_t i = 0; i < n; ++i) {
      Env env{&rel->layout, rel->tuple(i), outer, nullptr};
      CQMS_ASSIGN_OR_RETURN(bool pass, evaluator_.EvalPredicate(predicate, env));
      if (!pass) continue;
      if (kept != i) {
        std::copy_n(rel->tuple(i), width, rel->slots.begin() + kept * width);
      }
      ++kept;
    }
    rel->slots.resize(kept * width);
    return Status::Ok();
  }

  static Layout CombineLayouts(const Layout& a, const Layout& b) {
    Layout out;
    for (const Layout* l : {&a, &b}) {
      for (size_t i = 0; i < l->size(); ++i) {
        const Slot& s = l->slot(i);
        out.Add(s.qualifier, s.column, s.source, s.index);
      }
    }
    return out;
  }

  /// Detects `left_col = right_col` equi-predicates where one side binds
  /// in `a` and the other in `b`. Returns slot indices or {-1,-1}.
  static std::pair<int, int> FindEquiSlots(const sql::Expr& pred, const Layout& a,
                                           const Layout& b) {
    if (pred.kind != sql::ExprKind::kBinary || pred.bop != sql::BinaryOp::kEq) {
      return {-1, -1};
    }
    const sql::Expr* l = pred.left.get();
    const sql::Expr* r = pred.right.get();
    if (l == nullptr || r == nullptr) return {-1, -1};
    if (l->kind != sql::ExprKind::kColumnRef || r->kind != sql::ExprKind::kColumnRef) {
      return {-1, -1};
    }
    int la = a.Find(ToLower(l->table), ToLower(l->column));
    int lb = b.Find(ToLower(l->table), ToLower(l->column));
    int ra = a.Find(ToLower(r->table), ToLower(r->column));
    int rb = b.Find(ToLower(r->table), ToLower(r->column));
    if (la >= 0 && rb >= 0 && lb == -1 && ra == -1) return {la, rb};
    if (ra >= 0 && lb >= 0 && rb == -1 && la == -1) return {ra, lb};
    return {-1, -1};
  }

  /// Joins `right`, the scan of FROM source `source`, onto `left`. Each
  /// candidate tuple is assembled in one scratch buffer, and only those
  /// passing every residual predicate are appended to the output.
  Result<Relation> JoinStep(const Relation& left, const Relation& right,
                            size_t source,
                            Layout combined, sql::JoinType join_type,
                            const std::vector<const sql::Expr*>& preds,
                            const Env* outer, const std::string& label) {
    Relation out;
    out.layout = std::move(combined);
    out.width = left.width;

    // Find a hash-join key among the predicates.
    int left_key = -1, right_key = -1;
    std::vector<const sql::Expr*> residual;
    for (const sql::Expr* p : preds) {
      if (left_key < 0) {
        auto [lk, rk] = FindEquiSlots(*p, left.layout, right.layout);
        if (lk >= 0) {
          left_key = lk;
          right_key = rk;
          continue;
        }
      }
      residual.push_back(p);
    }
    Plan(std::string(left_key >= 0 ? "hash join " : "nested-loop join ") +
         label +
         (residual.empty() ? "" : " [+" + std::to_string(residual.size()) +
                                      " residual pred(s)]"));

    const bool is_left = join_type == sql::JoinType::kLeft;
    const bool is_right = join_type == sql::JoinType::kRight;
    const size_t num_right = right.size();
    std::vector<bool> right_matched(is_right ? num_right : 0, false);

    // Left tuples have no row for `source` yet, so a left tuple that
    // matches nothing is appended as is, null-extended.
    std::vector<const Row*> scratch(out.width, nullptr);
    const Env env{&out.layout, scratch.data(), outer, nullptr};
    auto try_pair = [&](const Row* const* left_tuple, size_t ri) -> Result<bool> {
      std::copy_n(left_tuple, out.width, scratch.begin());
      scratch[source] = right.tuple(ri)[source];
      for (const sql::Expr* p : residual) {
        CQMS_ASSIGN_OR_RETURN(bool pass, evaluator_.EvalPredicate(*p, env));
        if (!pass) return false;
      }
      out.Append(scratch.data());
      if (is_right) right_matched[ri] = true;
      return true;
    };

    if (left_key >= 0) {
      // Hash join: build on the right side, probe with the left. Entries
      // sort by key hash, and the rows of one hash stay in row order.
      std::vector<std::pair<uint64_t, size_t>> entries;
      entries.reserve(num_right);
      for (size_t ri = 0; ri < num_right; ++ri) {
        const Value& v = right.layout.Read(right.tuple(ri), right_key);
        if (v.is_null()) continue;  // NULL keys never join.
        entries.emplace_back(v.Hash(), ri);
      }
      std::sort(entries.begin(), entries.end());
      for (size_t li = 0; li < left.size(); ++li) {
        const Row* const* left_tuple = left.tuple(li);
        bool matched = false;
        const Value& key = left.layout.Read(left_tuple, left_key);
        if (!key.is_null()) {
          const uint64_t h = key.Hash();
          auto it = std::lower_bound(entries.begin(), entries.end(),
                                     std::make_pair(h, size_t{0}));
          for (; it != entries.end() && it->first == h; ++it) {
            ++rows_scanned_;
            const Value& right_value =
                right.layout.Read(right.tuple(it->second), right_key);
            if (key.Compare(right_value) != 0) continue;
            CQMS_ASSIGN_OR_RETURN(bool pass, try_pair(left_tuple, it->second));
            matched = matched || pass;
          }
        }
        if (is_left && !matched) out.Append(left_tuple);
      }
    } else {
      // Nested-loop join.
      for (size_t li = 0; li < left.size(); ++li) {
        const Row* const* left_tuple = left.tuple(li);
        bool matched = false;
        for (size_t ri = 0; ri < num_right; ++ri) {
          ++rows_scanned_;
          CQMS_ASSIGN_OR_RETURN(bool pass, try_pair(left_tuple, ri));
          matched = matched || pass;
        }
        if (is_left && !matched) out.Append(left_tuple);
      }
    }

    // A right row that matched nothing joins no left source: those read
    // as NULL.
    if (is_right) {
      for (size_t ri = 0; ri < num_right; ++ri) {
        if (!right_matched[ri]) out.Append(right.tuple(ri));
      }
    }
    return out;
  }

  /// Collects the distinct aggregate calls used by the statement itself
  /// (select list, HAVING, ORDER BY), not those inside subqueries.
  static void CollectAggSpecs(const sql::SelectStatement& stmt,
                              std::vector<AggSpec>* specs) {
    auto visit = [&](const sql::Expr* root) {
      if (root == nullptr) return;
      sql::WalkExpr(
          const_cast<sql::Expr*>(root),
          [&](sql::Expr* e) {
            if (e->kind != sql::ExprKind::kFunctionCall ||
                !sql::IsAggregateFunction(e->function_name)) {
              return;
            }
            std::string key = sql::PrintExpr(*e, {});
            for (const AggSpec& s : *specs) {
              if (s.key == key) return;
            }
            AggSpec spec;
            spec.key = std::move(key);
            spec.call = e;
            spec.is_star =
                !e->args.empty() && e->args[0]->kind == sql::ExprKind::kStar;
            specs->push_back(spec);
          },
          /*enter_subqueries=*/false);
    };
    for (const sql::SelectItem& item : stmt.select_items) visit(item.expr.get());
    visit(stmt.having.get());
    for (const sql::OrderItem& oi : stmt.order_by) visit(oi.expr.get());
  }

  /// Groups the tuples of `acc` by the GROUP BY keys and finalizes every
  /// aggregate per group. A group's representative tuple is its first.
  Result<std::vector<GroupOut>> BuildGroups(const sql::SelectStatement& stmt,
                                            const Relation& acc,
                                            const std::vector<AggSpec>& specs,
                                            const Row* const* null_tuple,
                                            const Env* outer) {
    struct Group {
      Row key;
      const Row* const* tuple;
      std::vector<AggAccum> accums;
    };
    // `order` owns the groups in first-seen order; the hash table maps
    // key hashes to indices into it.
    std::vector<Group> order;
    std::unordered_map<uint64_t, std::vector<size_t>> groups;

    Row key;  // reused: a key is copied only when it starts a group
    for (size_t ti = 0; ti < acc.size(); ++ti) {
      Env env{&acc.layout, acc.tuple(ti), outer, nullptr};
      key.clear();
      for (const auto& g : stmt.group_by) {
        CQMS_ASSIGN_OR_RETURN(Value v, evaluator_.Eval(*g, env));
        key.push_back(std::move(v));
      }
      auto& bucket = groups[HashRow(key)];
      Group* group = nullptr;
      for (size_t gi : bucket) {
        if (RowsEqual(order[gi].key, key)) {
          group = &order[gi];
          break;
        }
      }
      if (group == nullptr) {
        bucket.push_back(order.size());
        order.push_back(Group{key, env.tuple, std::vector<AggAccum>(specs.size())});
        group = &order.back();
      }
      // Accumulate.
      for (size_t si = 0; si < specs.size(); ++si) {
        AggAccum& a = group->accums[si];
        ++a.star_count;
        if (specs[si].is_star) continue;
        if (specs[si].call->args.empty()) continue;
        CQMS_ASSIGN_OR_RETURN(Value v,
                              evaluator_.Eval(*specs[si].call->args[0], env));
        a.AddValue(v, specs[si].call->distinct_arg);
      }
    }

    std::vector<GroupOut> units;
    if (order.empty() && stmt.group_by.empty()) {
      // Aggregate over empty input: one group of empty accumulators.
      GroupOut u{null_tuple, {}};
      for (const AggSpec& s : specs) {
        AggAccum empty;
        CQMS_ASSIGN_OR_RETURN(
            Value v, empty.Finalize(s.call->function_name, s.is_star,
                                    s.call->distinct_arg));
        u.aggregates[s.key] = std::move(v);
      }
      units.push_back(std::move(u));
      return units;
    }

    units.reserve(order.size());
    for (const Group& g : order) {
      GroupOut u{g.tuple, {}};
      for (size_t si = 0; si < specs.size(); ++si) {
        CQMS_ASSIGN_OR_RETURN(
            Value v, g.accums[si].Finalize(specs[si].call->function_name,
                                           specs[si].is_star,
                                           specs[si].call->distinct_arg));
        u.aggregates[specs[si].key] = std::move(v);
      }
      units.push_back(std::move(u));
    }
    return units;
  }

  /// Evaluates an ORDER BY expression: a bare column that matches a
  /// select-list alias refers to the projected value; everything else is
  /// evaluated in the unit environment.
  Result<Value> EvalOrderExpr(const sql::Expr& expr, const Env& env,
                              const std::vector<sql::SelectItem>& items,
                              const Row& projected) {
    if (expr.kind == sql::ExprKind::kColumnRef && expr.table.empty()) {
      size_t out_idx = 0;
      for (const sql::SelectItem& item : items) {
        if (item.is_star) break;  // star expansion shifts indices; skip aliases
        if (!item.alias.empty() && EqualsIgnoreCase(item.alias, expr.column)) {
          return projected[out_idx];
        }
        ++out_idx;
      }
    }
    return evaluator_.Eval(expr, env);
  }

  static void DeduplicateRows(std::vector<Row>* rows) {
    std::unordered_map<uint64_t, std::vector<size_t>> seen;
    std::vector<Row> out;
    out.reserve(rows->size());
    for (Row& r : *rows) {
      auto& bucket = seen[HashRow(r)];
      bool dup = false;
      for (size_t idx : bucket) {
        if (RowsEqual(out[idx], r)) {
          dup = true;
          break;
        }
      }
      if (!dup) {
        bucket.push_back(out.size());
        out.push_back(std::move(r));
      }
    }
    *rows = std::move(out);
  }

  const Database* db_;
  Evaluator evaluator_;
  uint64_t rows_scanned_ = 0;
  std::string plan_;
  int depth_ = 0;
};

/// Scope chain used by Validate().
struct ValidateScope {
  Layout layout;
  const ValidateScope* parent = nullptr;
};

Status ValidateExprInScope(const sql::Expr& expr, const ValidateScope& scope,
                           const Catalog& catalog);

Status ValidateSelectInScope(const sql::SelectStatement& stmt,
                             const ValidateScope* parent, const Catalog& catalog) {
  ValidateScope scope;
  scope.parent = parent;
  for (size_t si = 0; si < stmt.from.size(); ++si) {
    const sql::TableRef& tr = stmt.from[si];
    const TableSchema* schema = catalog.FindTable(tr.table);
    if (schema == nullptr) {
      return Status::BindError("unknown table: " + ToLower(tr.table));
    }
    std::string qualifier = ToLower(tr.EffectiveName());
    const std::vector<ColumnDef>& columns = schema->columns();
    for (size_t c = 0; c < columns.size(); ++c) {
      scope.layout.Add(qualifier, columns[c].name, static_cast<int>(si),
                       static_cast<int>(c));
    }
  }
  for (const sql::SelectItem& item : stmt.select_items) {
    if (item.is_star) {
      if (!item.star_table.empty() &&
          scope.layout.SlotsForQualifier(ToLower(item.star_table)).empty()) {
        return Status::BindError("unknown qualifier: " + ToLower(item.star_table));
      }
      if (item.star_table.empty() && stmt.from.empty()) {
        return Status::BindError("SELECT * requires a FROM clause");
      }
      continue;
    }
    CQMS_RETURN_IF_ERROR(ValidateExprInScope(*item.expr, scope, catalog));
  }
  for (const sql::TableRef& tr : stmt.from) {
    if (tr.join_condition) {
      CQMS_RETURN_IF_ERROR(ValidateExprInScope(*tr.join_condition, scope, catalog));
    }
  }
  if (stmt.where) {
    CQMS_RETURN_IF_ERROR(ValidateExprInScope(*stmt.where, scope, catalog));
  }
  for (const auto& g : stmt.group_by) {
    CQMS_RETURN_IF_ERROR(ValidateExprInScope(*g, scope, catalog));
  }
  if (stmt.having) {
    CQMS_RETURN_IF_ERROR(ValidateExprInScope(*stmt.having, scope, catalog));
  }
  for (const sql::OrderItem& oi : stmt.order_by) {
    // ORDER BY may reference select aliases; accept those before binding.
    if (oi.expr->kind == sql::ExprKind::kColumnRef && oi.expr->table.empty()) {
      bool is_alias = false;
      for (const sql::SelectItem& item : stmt.select_items) {
        if (!item.alias.empty() && EqualsIgnoreCase(item.alias, oi.expr->column)) {
          is_alias = true;
          break;
        }
      }
      if (is_alias) continue;
    }
    CQMS_RETURN_IF_ERROR(ValidateExprInScope(*oi.expr, scope, catalog));
  }
  if (stmt.union_next) {
    CQMS_RETURN_IF_ERROR(ValidateSelectInScope(*stmt.union_next, parent, catalog));
  }
  return Status::Ok();
}

Status ValidateExprInScope(const sql::Expr& expr, const ValidateScope& scope,
                           const Catalog& catalog) {
  Status status = Status::Ok();
  sql::WalkExpr(
      const_cast<sql::Expr*>(&expr),
      [&](sql::Expr* e) {
        if (!status.ok()) return;
        if (e->kind == sql::ExprKind::kColumnRef) {
          std::string qualifier = ToLower(e->table);
          std::string column = ToLower(e->column);
          for (const ValidateScope* s = &scope; s != nullptr; s = s->parent) {
            int idx = s->layout.Find(qualifier, column);
            if (idx == -2) {
              status = Status::BindError("ambiguous column: " + column);
              return;
            }
            if (idx >= 0) return;
          }
          status = Status::BindError(
              "unknown column: " +
              (qualifier.empty() ? column : qualifier + "." + column));
        } else if (e->subquery) {
          Status sub = ValidateSelectInScope(*e->subquery, &scope, catalog);
          if (!sub.ok()) status = sub;
        }
      },
      /*enter_subqueries=*/false);
  return status;
}

}  // namespace

Status Database::CreateTable(const TableSchema& schema) {
  CQMS_RETURN_IF_ERROR(catalog_.CreateTable(schema));
  tables_[schema.name()] = Table(*catalog_.FindTable(schema.name()));
  return Status::Ok();
}

Status Database::DropTable(const std::string& table) {
  CQMS_RETURN_IF_ERROR(catalog_.DropTable(table));
  tables_.erase(ToLower(table));
  return Status::Ok();
}

Status Database::RenameTable(const std::string& table, const std::string& new_name) {
  CQMS_RETURN_IF_ERROR(catalog_.RenameTable(table, new_name));
  auto node = tables_.extract(ToLower(table));
  Table moved = std::move(node.mapped());
  *moved.mutable_schema() = *catalog_.FindTable(new_name);
  tables_[ToLower(new_name)] = std::move(moved);
  return Status::Ok();
}

Status Database::AddColumn(const std::string& table, const ColumnDef& column) {
  CQMS_RETURN_IF_ERROR(catalog_.AddColumn(table, column));
  tables_[ToLower(table)].AddColumn({ToLower(column.name), column.type});
  return Status::Ok();
}

Status Database::DropColumn(const std::string& table, const std::string& column) {
  Table& t = tables_[ToLower(table)];
  int idx = t.schema().FindColumn(column);
  CQMS_RETURN_IF_ERROR(catalog_.DropColumn(table, column));
  t.DropColumnAt(idx);
  return Status::Ok();
}

Status Database::RenameColumn(const std::string& table, const std::string& column,
                              const std::string& new_name) {
  CQMS_RETURN_IF_ERROR(catalog_.RenameColumn(table, column, new_name));
  *tables_[ToLower(table)].mutable_schema() = *catalog_.FindTable(table);
  return Status::Ok();
}

Status Database::Insert(const std::string& table, Row row) {
  auto it = tables_.find(ToLower(table));
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + ToLower(table));
  }
  return it->second.Append(std::move(row));
}

const Table* Database::GetTable(const std::string& table) const {
  auto it = tables_.find(ToLower(table));
  return it == tables_.end() ? nullptr : &it->second;
}

Table* Database::GetMutableTable(const std::string& table) {
  auto it = tables_.find(ToLower(table));
  return it == tables_.end() ? nullptr : &it->second;
}

Result<QueryResult> Database::ExecuteSql(std::string_view sql_text) const {
  CQMS_ASSIGN_OR_RETURN(auto stmt, sql::Parse(sql_text));
  return Execute(*stmt);
}

Result<QueryResult> Database::Execute(const sql::SelectStatement& stmt) const {
  ExecutorImpl executor(this);
  return executor.Run(stmt);
}

Status Database::Validate(const sql::SelectStatement& stmt) const {
  return ValidateSelectInScope(stmt, nullptr, catalog_);
}

}  // namespace cqms::db
