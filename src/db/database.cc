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

/// How an expression's column references bind to a layout, for deciding
/// where a WHERE conjunct is evaluated.
struct BindInfo {
  bool resolvable = true;        ///< Every column ref binds in the layout.
  bool ambiguous = false;        ///< Some ref matched multiple slots.
  bool has_subquery = false;     ///< Conservative: treat as non-pushable.
  /// Qualifier of the first bound slot; whether any other differs.
  const std::string* qualifier = nullptr;
  bool mixed_qualifiers = false;
};

BindInfo AnalyzeBinding(const sql::Expr& expr, const Layout& layout) {
  BindInfo info;
  sql::WalkExpr(
      const_cast<sql::Expr*>(&expr),
      [&](sql::Expr* e) {
        if (e->subquery) info.has_subquery = true;
        if (e->kind != sql::ExprKind::kColumnRef) return;
        int idx = BindColumnSlot(*e, layout);
        if (idx == -2) {
          info.ambiguous = true;
        } else if (idx < 0) {
          info.resolvable = false;
        } else {
          const std::string& q = layout.slot(idx).qualifier;
          if (info.qualifier == nullptr) {
            info.qualifier = &q;
          } else if (*info.qualifier != q) {
            info.mixed_qualifiers = true;
          }
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
  bool int_sum_overflow = false;  ///< `int_sum` left int64's range.
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
      if (v.type() == ValueType::kInt &&
          __builtin_add_overflow(int_sum, v.AsInt(), &int_sum)) {
        int_sum_overflow = true;
      }
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
        bool overflow = false;
        int64_t is = 0;
        for (const Value& v : distinct) {
          if (v.type() == ValueType::kDouble) dbl = true;
          else if (__builtin_add_overflow(is, v.AsInt(), &is)) overflow = true;
          s += v.AsDouble();
        }
        if (dbl) return Value::Double(s);
        if (overflow) return Status::ExecutionError("integer overflow");
        return Value::Int(is);
      }
      if (sum_is_double) return Value::Double(double_sum);
      if (int_sum_overflow) return Status::ExecutionError("integer overflow");
      return Value::Int(int_sum);
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

/// One output unit of an aggregation: a representative tuple of its group
/// (all-NULL for an aggregate over empty input) and the group's aggregate
/// values, indexed like the block's `AggSpec`s.
struct GroupOut {
  const Row* const* tuple;
  std::vector<Value> aggregates;
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
  /// Appends one operator line, formatted by `line()`, to the recorded
  /// plan. Only the top-level statement is recorded; (possibly
  /// correlated, repeatedly executed) subqueries would bloat the plan
  /// text, so below it the line is not even formatted.
  template <typename Line>
  void Plan(const Line& line) {
    if (depth_ != 1) return;
    plan_ += line();
    plan_ += '\n';
  }

  struct DepthGuard {
    explicit DepthGuard(int* depth) : depth_(depth) { ++*depth_; }
    ~DepthGuard() { --*depth_; }
    int* depth_;
  };

  /// One output column: a slot read in place, or a bound expression.
  struct OutputExpr {
    int slot = -1;                   ///< >= 0: read this slot of the unit
    const BoundExpr* bound = nullptr;  ///< otherwise: evaluate this
  };

  /// One ORDER BY key: a select-list alias names projected column
  /// `output`; any other key is evaluated in the unit's environment.
  struct OrderKey {
    int output = -1;
    BoundExpr bound;
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
      Plan([&] {
        return "scan " + ToLower(tr.table) + " (" +
               std::to_string(rows.size()) + " rows)";
      });
      scans.push_back(std::move(scan));
    }

    // ---- WHERE conjunct classification ------------------------------------
    std::vector<const sql::Expr*> where_conjuncts;
    if (stmt.where) where_conjuncts = sql::SplitConjuncts(stmt.where.get());
    std::vector<bool> conjunct_used(where_conjuncts.size(), false);
    const bool pushable = !stmt.from.empty() && AllJoinsInner(stmt);

    if (pushable) {
      // Push single-table conjuncts into their scans, bound against the
      // scan's own layout.
      for (size_t ci = 0; ci < where_conjuncts.size(); ++ci) {
        const sql::Expr& conjunct = *where_conjuncts[ci];
        BindInfo info = AnalyzeBinding(conjunct, full_layout);
        if (info.ambiguous) {
          return Status::BindError("ambiguous column reference in WHERE");
        }
        if (!info.resolvable || info.has_subquery || info.qualifier == nullptr ||
            info.mixed_qualifiers) {
          continue;
        }
        for (size_t si = 0; si < scans.size(); ++si) {
          if (ToLower(stmt.from[si].EffectiveName()) != *info.qualifier) continue;
          const BoundExpr bound =
              Bind(conjunct, Env{&scans[si].layout, nullptr, outer});
          CQMS_RETURN_IF_ERROR(FilterInPlace(&scans[si], bound, outer));
          Plan([&] {
            return "scan " + ToLower(stmt.from[si].table) + " [pushdown: " +
                   sql::PrintExpr(conjunct, {}) + "]";
          });
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
    const Env acc_scope{&acc.layout, nullptr, outer};
    for (size_t ci = 0; ci < where_conjuncts.size(); ++ci) {
      if (conjunct_used[ci]) continue;
      Plan([&] {
        return "filter " + sql::PrintExpr(*where_conjuncts[ci], {});
      });
      CQMS_RETURN_IF_ERROR(
          FilterInPlace(&acc, Bind(*where_conjuncts[ci], acc_scope), outer));
    }

    // ---- Aggregation detection --------------------------------------------
    std::vector<AggSpec> agg_specs;
    CollectAggSpecs(stmt, &agg_specs);
    const bool aggregate_mode = !agg_specs.empty() || !stmt.group_by.empty();
    // HAVING, the select list and ORDER BY see the group's aggregates.
    const Env unit_scope{&acc.layout, nullptr, outer,
                         aggregate_mode ? &agg_specs : nullptr};

    // In aggregate mode each output unit is a group; otherwise it is a
    // tuple of `acc`.
    std::vector<const Row*> null_tuple;  // represents an empty aggregate
    std::vector<GroupOut> groups;
    if (aggregate_mode) {
      null_tuple.assign(width, nullptr);
      Plan([&] {
        return "aggregate " + std::to_string(agg_specs.size()) +
               " function(s), " + std::to_string(stmt.group_by.size()) +
               " group key(s)";
      });
      CQMS_ASSIGN_OR_RETURN(groups, BuildGroups(stmt, acc, agg_specs,
                                                null_tuple.data(), acc_scope));
      // HAVING.
      if (stmt.having) {
        const BoundExpr having = Bind(*stmt.having, unit_scope);
        size_t kept = 0;
        for (size_t gi = 0; gi < groups.size(); ++gi) {
          const Env env{&acc.layout, groups[gi].tuple, outer, &agg_specs,
                        groups[gi].aggregates.data()};
          CQMS_ASSIGN_OR_RETURN(bool pass, evaluator_.EvalPredicate(having, env));
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
    std::vector<BoundExpr> bound_items;
    bound_items.reserve(stmt.select_items.size());
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
            outputs.push_back({s, nullptr});
            result.column_names.push_back(acc.layout.slot(s).column);
          }
        } else {
          if (acc.layout.size() == 0) {
            return Status::BindError("SELECT * with no FROM clause");
          }
          for (size_t s = 0; s < acc.layout.size(); ++s) {
            outputs.push_back({static_cast<int>(s), nullptr});
            result.column_names.push_back(acc.layout.slot(s).column);
          }
        }
        continue;
      }
      bound_items.push_back(Bind(*item.expr, unit_scope));
      const BoundExpr& bound = bound_items.back();
      // A column of this block's tuple is projected like a star slot.
      if (bound.kind == BoundExpr::Kind::kSlot && bound.depth == 0) {
        outputs.push_back({bound.index, nullptr});
      } else {
        outputs.push_back({-1, &bound});
      }
      if (!item.alias.empty()) {
        result.column_names.push_back(ToLower(item.alias));
      } else if (item.expr->kind == sql::ExprKind::kColumnRef) {
        result.column_names.push_back(ToLower(item.expr->column));
      } else {
        result.column_names.push_back(sql::PrintExpr(*item.expr, {}));
      }
    }
    const std::vector<OrderKey> order_by = BindOrderBy(stmt, unit_scope);

    // Without ORDER BY, DISTINCT or aggregation, OFFSET+LIMIT units are
    // all the result keeps. When every output is a read that cannot fail,
    // projecting the rest could raise no error either, so projection
    // stops there. Scans, filters and joins above ran in full.
    size_t units_to_project = num_units;
    if (stmt.limit.has_value() && order_by.empty() && !stmt.distinct &&
        !aggregate_mode &&
        std::all_of(outputs.begin(), outputs.end(), [](const OutputExpr& oe) {
          return oe.bound == nullptr || oe.bound->IsRead();
        })) {
      const size_t off = static_cast<size_t>(
          std::max<int64_t>(0, stmt.offset.value_or(0)));
      const size_t lim = static_cast<size_t>(std::max<int64_t>(0, *stmt.limit));
      units_to_project = std::min(num_units, off + lim);
    }

    // Each output row is built once, here; ORDER BY keys go to one flat
    // array, `num_keys` per row.
    const size_t num_keys = order_by.size();
    std::vector<Value> order_keys;
    order_keys.reserve(units_to_project * num_keys);
    result.rows.reserve(units_to_project);
    for (size_t u = 0; u < units_to_project; ++u) {
      const Env env =
          aggregate_mode
              ? Env{&acc.layout, groups[u].tuple, outer, &agg_specs,
                    groups[u].aggregates.data()}
              : Env{&acc.layout, acc.tuple(u), outer};
      Row out;
      out.reserve(outputs.size());
      for (const OutputExpr& oe : outputs) {
        if (oe.bound == nullptr) {
          out.push_back(acc.layout.Read(env.tuple, oe.slot));
        } else {
          CQMS_ASSIGN_OR_RETURN(Value v, evaluator_.Eval(*oe.bound, env));
          out.push_back(std::move(v));
        }
      }
      for (const OrderKey& key : order_by) {
        if (key.output >= 0) {
          order_keys.push_back(out[key.output]);
        } else {
          CQMS_ASSIGN_OR_RETURN(Value v, evaluator_.Eval(key.bound, env));
          order_keys.push_back(std::move(v));
        }
      }
      result.rows.push_back(std::move(out));
    }

    // ---- ORDER BY -------------------------------------------------------------
    if (num_keys > 0) {
      Plan([&] { return "sort " + std::to_string(num_keys) + " key(s)"; });
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
      Plan([] { return "distinct"; });
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
      Plan([&] { return "limit " + std::to_string(*stmt.limit); });
      size_t lim = static_cast<size_t>(std::max<int64_t>(0, *stmt.limit));
      if (result.rows.size() > lim) result.rows.resize(lim);
    }

    // ---- UNION ------------------------------------------------------------------
    if (stmt.union_next) {
      Plan([&] { return stmt.union_all ? "union all" : "union (dedup)"; });
      CQMS_ASSIGN_OR_RETURN(QueryResult rest, ExecuteSelect(*stmt.union_next, outer));
      if (rest.column_names.size() != result.column_names.size()) {
        return Status::ExecutionError("UNION arms have different arity");
      }
      for (Row& r : rest.rows) result.rows.push_back(std::move(r));
      if (!stmt.union_all) DeduplicateRows(&result.rows);
    }
    return result;
  }

  /// Keeps the tuples of `rel` that satisfy `predicate`, bound against
  /// `rel->layout`, compacting them in place.
  Status FilterInPlace(Relation* rel, const BoundExpr& predicate,
                       const Env* outer) {
    const size_t width = rel->width;
    const size_t n = rel->size();
    size_t kept = 0;
    for (size_t i = 0; i < n; ++i) {
      const Env env{&rel->layout, rel->tuple(i), outer};
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

  /// Detects a `left_col = right_col` equi-predicate with one side in each
  /// join input. `pred` is bound against the step's combined layout: the
  /// left input's `left_size` slots, then the right input's. Returns slot
  /// indices into the left and right layouts, or {-1,-1}.
  static std::pair<int, int> FindEquiSlots(const BoundExpr& pred,
                                           size_t left_size) {
    if (pred.kind != BoundExpr::Kind::kBinary ||
        pred.expr->bop != sql::BinaryOp::kEq) {
      return {-1, -1};
    }
    auto local_slot = [](const BoundExpr& side) {
      return side.kind == BoundExpr::Kind::kSlot && side.depth == 0 ? side.index
                                                                   : -1;
    };
    const int l = local_slot(pred.children[0]);
    const int r = local_slot(pred.children[1]);
    const int split = static_cast<int>(left_size);
    if (l < 0 || r < 0) return {-1, -1};
    if (l < split && r >= split) return {l, r - split};
    if (r < split && l >= split) return {r, l - split};
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

    // Bind every predicate against the combined layout, and take the
    // first equi-predicate across the inputs as the hash-join key.
    const Env scope{&out.layout, nullptr, outer};
    int left_key = -1, right_key = -1;
    std::vector<BoundExpr> residual;
    residual.reserve(preds.size());
    for (const sql::Expr* p : preds) {
      BoundExpr bound = Bind(*p, scope);
      if (left_key < 0) {
        auto [lk, rk] = FindEquiSlots(bound, left.layout.size());
        if (lk >= 0) {
          left_key = lk;
          right_key = rk;
          continue;
        }
      }
      residual.push_back(std::move(bound));
    }
    Plan([&] {
      return std::string(left_key >= 0 ? "hash join " : "nested-loop join ") +
             label +
             (residual.empty() ? "" : " [+" + std::to_string(residual.size()) +
                                          " residual pred(s)]");
    });

    const bool is_left = join_type == sql::JoinType::kLeft;
    const bool is_right = join_type == sql::JoinType::kRight;
    const size_t num_right = right.size();
    std::vector<bool> right_matched(is_right ? num_right : 0, false);

    // Left tuples have no row for `source` yet, so a left tuple that
    // matches nothing is appended as is, null-extended.
    std::vector<const Row*> scratch(out.width, nullptr);
    const Env env{&out.layout, scratch.data(), outer};
    auto try_pair = [&](const Row* const* left_tuple, size_t ri) -> Result<bool> {
      std::copy_n(left_tuple, out.width, scratch.begin());
      scratch[source] = right.tuple(ri)[source];
      for (const BoundExpr& p : residual) {
        CQMS_ASSIGN_OR_RETURN(bool pass, evaluator_.EvalPredicate(p, env));
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
            for (AggSpec& s : *specs) {
              if (s.key == key) {
                s.calls.push_back(e);
                return;
              }
            }
            AggSpec spec;
            spec.key = std::move(key);
            spec.calls.push_back(e);
            spec.is_star =
                !e->args.empty() && e->args[0]->kind == sql::ExprKind::kStar;
            specs->push_back(std::move(spec));
          },
          /*enter_subqueries=*/false);
    };
    for (const sql::SelectItem& item : stmt.select_items) visit(item.expr.get());
    visit(stmt.having.get());
    for (const sql::OrderItem& oi : stmt.order_by) visit(oi.expr.get());
  }

  /// Groups the tuples of `acc` by the GROUP BY keys and finalizes every
  /// aggregate per group. A group's representative tuple is its first.
  /// Keys and aggregate arguments are bound in `scope`, which holds no
  /// aggregates of this block.
  Result<std::vector<GroupOut>> BuildGroups(const sql::SelectStatement& stmt,
                                            const Relation& acc,
                                            const std::vector<AggSpec>& specs,
                                            const Row* const* null_tuple,
                                            const Env& scope) {
    struct Group {
      Row key;
      const Row* const* tuple;
      std::vector<AggAccum> accums;
    };
    std::vector<BoundExpr> keys;
    keys.reserve(stmt.group_by.size());
    for (const auto& g : stmt.group_by) keys.push_back(Bind(*g, scope));
    // The argument each spec accumulates. COUNT(*) and a call without an
    // argument read none; their entry stays unbound (`expr` null).
    std::vector<BoundExpr> args(specs.size());
    for (size_t si = 0; si < specs.size(); ++si) {
      const sql::Expr& call = *specs[si].calls[0];
      if (!specs[si].is_star && !call.args.empty()) {
        args[si] = Bind(*call.args[0], scope);
      }
    }

    // `order` owns the groups in first-seen order; the hash table maps
    // key hashes to indices into it.
    std::vector<Group> order;
    std::unordered_map<uint64_t, std::vector<size_t>> groups;

    Row key;  // reused: a key is copied only when it starts a group
    Value scratch;
    for (size_t ti = 0; ti < acc.size(); ++ti) {
      const Env env{scope.layout, acc.tuple(ti), scope.parent};
      key.clear();
      for (const BoundExpr& k : keys) {
        CQMS_ASSIGN_OR_RETURN(const Value* v, evaluator_.Operand(k, env, &scratch));
        key.push_back(*v);
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
        if (args[si].expr == nullptr) continue;
        CQMS_ASSIGN_OR_RETURN(const Value* v,
                              evaluator_.Operand(args[si], env, &scratch));
        a.AddValue(*v, specs[si].calls[0]->distinct_arg);
      }
    }

    auto finalize = [&](const std::vector<AggAccum>& accums,
                        const Row* const* tuple) -> Result<GroupOut> {
      GroupOut u{tuple, {}};
      u.aggregates.reserve(specs.size());
      for (size_t si = 0; si < specs.size(); ++si) {
        const sql::Expr& call = *specs[si].calls[0];
        CQMS_ASSIGN_OR_RETURN(
            Value v, accums[si].Finalize(call.function_name, specs[si].is_star,
                                         call.distinct_arg));
        u.aggregates.push_back(std::move(v));
      }
      return u;
    };

    std::vector<GroupOut> units;
    if (order.empty() && stmt.group_by.empty()) {
      // Aggregate over empty input: one group of empty accumulators.
      CQMS_ASSIGN_OR_RETURN(
          GroupOut u, finalize(std::vector<AggAccum>(specs.size()), null_tuple));
      units.push_back(std::move(u));
      return units;
    }

    units.reserve(order.size());
    for (const Group& g : order) {
      CQMS_ASSIGN_OR_RETURN(GroupOut u, finalize(g.accums, g.tuple));
      units.push_back(std::move(u));
    }
    return units;
  }

  /// Binds the ORDER BY keys. A bare column that matches a select-list
  /// alias names the projected value; everything else is evaluated in the
  /// unit environment.
  static std::vector<OrderKey> BindOrderBy(const sql::SelectStatement& stmt,
                                           const Env& scope) {
    std::vector<OrderKey> keys;
    keys.reserve(stmt.order_by.size());
    for (const sql::OrderItem& oi : stmt.order_by) {
      const sql::Expr& expr = *oi.expr;
      OrderKey key;
      if (expr.kind == sql::ExprKind::kColumnRef && expr.table.empty()) {
        int out_idx = 0;
        for (const sql::SelectItem& item : stmt.select_items) {
          if (item.is_star) break;  // star expansion shifts indices; skip aliases
          if (!item.alias.empty() && EqualsIgnoreCase(item.alias, expr.column)) {
            key.output = out_idx;
            break;
          }
          ++out_idx;
        }
      }
      if (key.output < 0) key.bound = Bind(expr, scope);
      keys.push_back(std::move(key));
    }
    return keys;
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
