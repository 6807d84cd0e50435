#include "db/expr_eval.h"

#include <cmath>

#include "common/string_util.h"
#include "db/database.h"
#include "sql/printer.h"

namespace cqms::db {

namespace {

/// Kleene three-valued logic encoding: -1 unknown, 0 false, 1 true.
int ToTernary(const Value& v) {
  if (v.is_null()) return -1;
  if (v.type() == ValueType::kBool) return v.AsBool() ? 1 : 0;
  // Numeric truthiness (nonzero == true) for robustness.
  if (v.is_numeric()) return v.AsDouble() != 0 ? 1 : 0;
  return -1;
}

}  // namespace

const Value& Layout::Read(const Row* const* tuple, size_t i) const {
  static const Value kNull;
  const Slot& slot = slots_[i];
  const Row* row = tuple[slot.source];
  return row == nullptr ? kNull : (*row)[slot.index];
}

int Layout::Find(const std::string& qualifier, const std::string& column) const {
  int found = -1;
  for (size_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    if (s.column != column) continue;
    if (!qualifier.empty() && s.qualifier != qualifier) continue;
    if (found >= 0) return -2;  // ambiguous
    found = static_cast<int>(i);
  }
  return found;
}

std::vector<int> Layout::SlotsForQualifier(const std::string& qualifier) const {
  std::vector<int> out;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].qualifier == qualifier) out.push_back(static_cast<int>(i));
  }
  return out;
}

bool Evaluator::LikeMatch(const std::string& text, const std::string& pattern) {
  // Iterative wildcard matcher with backtracking over the last `%`.
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Result<Value> Evaluator::EvalColumn(const sql::Expr& expr, const Env& env) const {
  std::string qualifier = ToLower(expr.table);
  std::string column = ToLower(expr.column);
  for (const Env* e = &env; e != nullptr; e = e->parent) {
    if (e->layout == nullptr) continue;
    int idx = e->layout->Find(qualifier, column);
    if (idx == -2) {
      return Status::BindError("ambiguous column reference: " + column);
    }
    if (idx >= 0) return e->layout->Read(e->tuple, idx);
  }
  return Status::BindError("unknown column: " +
                           (qualifier.empty() ? column : qualifier + "." + column));
}

Result<Value> Evaluator::EvalBinary(const sql::Expr& expr, const Env& env) const {
  using sql::BinaryOp;
  // AND/OR get short-circuit Kleene treatment.
  if (expr.bop == BinaryOp::kAnd || expr.bop == BinaryOp::kOr) {
    CQMS_ASSIGN_OR_RETURN(Value lv, Eval(*expr.left, env));
    int l = ToTernary(lv);
    if (expr.bop == BinaryOp::kAnd && l == 0) return Value::Bool(false);
    if (expr.bop == BinaryOp::kOr && l == 1) return Value::Bool(true);
    CQMS_ASSIGN_OR_RETURN(Value rv, Eval(*expr.right, env));
    int r = ToTernary(rv);
    if (expr.bop == BinaryOp::kAnd) {
      if (r == 0) return Value::Bool(false);
      if (l == 1 && r == 1) return Value::Bool(true);
      return Value::Null();
    }
    if (r == 1) return Value::Bool(true);
    if (l == 0 && r == 0) return Value::Bool(false);
    return Value::Null();
  }

  CQMS_ASSIGN_OR_RETURN(Value lv, Eval(*expr.left, env));
  CQMS_ASSIGN_OR_RETURN(Value rv, Eval(*expr.right, env));

  switch (expr.bop) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod: {
      if (lv.is_null() || rv.is_null()) return Value::Null();
      if (!lv.is_numeric() || !rv.is_numeric()) {
        return Status::ExecutionError("arithmetic on non-numeric value");
      }
      bool both_int =
          lv.type() == ValueType::kInt && rv.type() == ValueType::kInt;
      if (expr.bop == BinaryOp::kDiv) {
        double denom = rv.AsDouble();
        if (denom == 0) return Value::Null();  // SQL engines vary; NULL is safe.
        if (both_int && lv.AsInt() % rv.AsInt() == 0) {
          return Value::Int(lv.AsInt() / rv.AsInt());
        }
        return Value::Double(lv.AsDouble() / denom);
      }
      if (expr.bop == BinaryOp::kMod) {
        if (!both_int) return Status::ExecutionError("modulo requires integers");
        if (rv.AsInt() == 0) return Value::Null();
        return Value::Int(lv.AsInt() % rv.AsInt());
      }
      if (both_int) {
        int64_t a = lv.AsInt(), b = rv.AsInt();
        switch (expr.bop) {
          case BinaryOp::kAdd: return Value::Int(a + b);
          case BinaryOp::kSub: return Value::Int(a - b);
          default: return Value::Int(a * b);
        }
      }
      double a = lv.AsDouble(), b = rv.AsDouble();
      switch (expr.bop) {
        case BinaryOp::kAdd: return Value::Double(a + b);
        case BinaryOp::kSub: return Value::Double(a - b);
        default: return Value::Double(a * b);
      }
    }
    case BinaryOp::kEq:
    case BinaryOp::kNeq:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      if (lv.is_null() || rv.is_null()) return Value::Null();
      int cmp = lv.Compare(rv);
      switch (expr.bop) {
        case BinaryOp::kEq: return Value::Bool(cmp == 0);
        case BinaryOp::kNeq: return Value::Bool(cmp != 0);
        case BinaryOp::kLt: return Value::Bool(cmp < 0);
        case BinaryOp::kLe: return Value::Bool(cmp <= 0);
        case BinaryOp::kGt: return Value::Bool(cmp > 0);
        default: return Value::Bool(cmp >= 0);
      }
    }
    case BinaryOp::kLike:
    case BinaryOp::kNotLike: {
      if (lv.is_null() || rv.is_null()) return Value::Null();
      if (lv.type() != ValueType::kString || rv.type() != ValueType::kString) {
        return Status::ExecutionError("LIKE requires string operands");
      }
      bool match = LikeMatch(lv.AsString(), rv.AsString());
      return Value::Bool(expr.bop == BinaryOp::kLike ? match : !match);
    }
    case BinaryOp::kConcat: {
      if (lv.is_null() || rv.is_null()) return Value::Null();
      return Value::String(lv.ToString() + rv.ToString());
    }
    default:
      return Status::Internal("unhandled binary operator");
  }
}

Result<Value> Evaluator::EvalFunction(const sql::Expr& expr, const Env& env) const {
  const std::string& name = expr.function_name;

  // Aggregates must have been pre-computed by the executor and exposed
  // through the environment.
  if (sql::IsAggregateFunction(name)) {
    for (const Env* e = &env; e != nullptr; e = e->parent) {
      if (e->aggregates == nullptr) continue;
      auto it = e->aggregates->find(sql::PrintExpr(expr, {}));
      if (it != e->aggregates->end()) return it->second;
    }
    return Status::BindError("aggregate function " + name +
                             " used outside an aggregation context");
  }

  std::vector<Value> args;
  args.reserve(expr.args.size());
  for (const auto& a : expr.args) {
    CQMS_ASSIGN_OR_RETURN(Value v, Eval(*a, env));
    args.push_back(std::move(v));
  }

  auto require_args = [&](size_t n) -> Status {
    if (args.size() != n) {
      return Status::ExecutionError(name + " expects " + std::to_string(n) +
                                    " argument(s)");
    }
    return Status::Ok();
  };

  if (name == "UPPER" || name == "LOWER") {
    CQMS_RETURN_IF_ERROR(require_args(1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].type() != ValueType::kString) {
      return Status::ExecutionError(name + " requires a string");
    }
    return Value::String(name == "UPPER" ? ToUpper(args[0].AsString())
                                         : ToLower(args[0].AsString()));
  }
  if (name == "LENGTH") {
    CQMS_RETURN_IF_ERROR(require_args(1));
    if (args[0].is_null()) return Value::Null();
    return Value::Int(static_cast<int64_t>(args[0].ToString().size()));
  }
  if (name == "ABS") {
    CQMS_RETURN_IF_ERROR(require_args(1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].type() == ValueType::kInt) {
      return Value::Int(std::abs(args[0].AsInt()));
    }
    if (args[0].type() == ValueType::kDouble) {
      return Value::Double(std::fabs(args[0].AsDouble()));
    }
    return Status::ExecutionError("ABS requires a numeric argument");
  }
  if (name == "ROUND") {
    if (args.size() != 1 && args.size() != 2) {
      return Status::ExecutionError("ROUND expects 1 or 2 arguments");
    }
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_numeric()) {
      return Status::ExecutionError("ROUND requires a numeric argument");
    }
    int64_t digits = args.size() == 2 && !args[1].is_null() ? args[1].AsInt() : 0;
    double scale = std::pow(10.0, static_cast<double>(digits));
    double rounded = std::round(args[0].AsDouble() * scale) / scale;
    if (digits <= 0) return Value::Double(rounded);
    return Value::Double(rounded);
  }
  if (name == "SUBSTR" || name == "SUBSTRING") {
    if (args.size() != 2 && args.size() != 3) {
      return Status::ExecutionError("SUBSTR expects 2 or 3 arguments");
    }
    if (args[0].is_null()) return Value::Null();
    const std::string& s = args[0].AsString();
    int64_t start = args[1].is_null() ? 1 : args[1].AsInt();  // 1-based
    if (start < 1) start = 1;
    size_t begin = static_cast<size_t>(start - 1);
    if (begin >= s.size()) return Value::String("");
    size_t len = s.size() - begin;
    if (args.size() == 3 && !args[2].is_null()) {
      int64_t want = args[2].AsInt();
      if (want < 0) want = 0;
      len = std::min(len, static_cast<size_t>(want));
    }
    return Value::String(s.substr(begin, len));
  }
  if (name == "COALESCE") {
    for (const Value& v : args) {
      if (!v.is_null()) return v;
    }
    return Value::Null();
  }
  return Status::ExecutionError("unknown function: " + name);
}

Result<Value> Evaluator::Eval(const sql::Expr& expr, const Env& env) const {
  using sql::ExprKind;
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return Value::FromLiteral(expr.literal);
    case ExprKind::kColumnRef:
      return EvalColumn(expr, env);
    case ExprKind::kStar:
      return Status::ExecutionError("'*' is not a value expression");
    case ExprKind::kUnary: {
      CQMS_ASSIGN_OR_RETURN(Value v, Eval(*expr.left, env));
      if (expr.uop == sql::UnaryOp::kNot) {
        int t = ToTernary(v);
        if (t < 0) return Value::Null();
        return Value::Bool(t == 0);
      }
      if (v.is_null()) return Value::Null();
      if (v.type() == ValueType::kInt) return Value::Int(-v.AsInt());
      if (v.type() == ValueType::kDouble) return Value::Double(-v.AsDouble());
      return Status::ExecutionError("negation requires a numeric value");
    }
    case ExprKind::kBinary:
      return EvalBinary(expr, env);
    case ExprKind::kFunctionCall:
      return EvalFunction(expr, env);
    case ExprKind::kInList: {
      CQMS_ASSIGN_OR_RETURN(Value needle, Eval(*expr.left, env));
      if (needle.is_null()) return Value::Null();
      bool saw_null = false;
      for (const auto& item : expr.in_list) {
        CQMS_ASSIGN_OR_RETURN(Value v, Eval(*item, env));
        if (v.is_null()) {
          saw_null = true;
          continue;
        }
        if (needle.Compare(v) == 0) {
          return Value::Bool(!expr.negated);
        }
      }
      if (saw_null) return Value::Null();
      return Value::Bool(expr.negated);
    }
    case ExprKind::kInSubquery: {
      if (!subquery_runner_) {
        return Status::Unsupported("subqueries not supported in this context");
      }
      CQMS_ASSIGN_OR_RETURN(Value needle, Eval(*expr.left, env));
      if (needle.is_null()) return Value::Null();
      CQMS_ASSIGN_OR_RETURN(QueryResult sub, subquery_runner_(*expr.subquery, &env));
      if (!sub.rows.empty() && sub.rows[0].size() != 1) {
        return Status::ExecutionError("IN subquery must produce one column");
      }
      bool saw_null = false;
      for (const Row& r : sub.rows) {
        if (r[0].is_null()) {
          saw_null = true;
          continue;
        }
        if (needle.Compare(r[0]) == 0) return Value::Bool(!expr.negated);
      }
      if (saw_null) return Value::Null();
      return Value::Bool(expr.negated);
    }
    case ExprKind::kBetween: {
      CQMS_ASSIGN_OR_RETURN(Value v, Eval(*expr.left, env));
      CQMS_ASSIGN_OR_RETURN(Value lo, Eval(*expr.low, env));
      CQMS_ASSIGN_OR_RETURN(Value hi, Eval(*expr.high, env));
      if (v.is_null() || lo.is_null() || hi.is_null()) return Value::Null();
      bool in_range = v.Compare(lo) >= 0 && v.Compare(hi) <= 0;
      return Value::Bool(expr.negated ? !in_range : in_range);
    }
    case ExprKind::kIsNull: {
      CQMS_ASSIGN_OR_RETURN(Value v, Eval(*expr.left, env));
      bool is_null = v.is_null();
      return Value::Bool(expr.negated ? !is_null : is_null);
    }
    case ExprKind::kCase: {
      if (expr.case_operand) {
        CQMS_ASSIGN_OR_RETURN(Value op, Eval(*expr.case_operand, env));
        for (const auto& [when, then] : expr.when_clauses) {
          CQMS_ASSIGN_OR_RETURN(Value w, Eval(*when, env));
          if (!op.is_null() && !w.is_null() && op.Compare(w) == 0) {
            return Eval(*then, env);
          }
        }
      } else {
        for (const auto& [when, then] : expr.when_clauses) {
          CQMS_ASSIGN_OR_RETURN(Value w, Eval(*when, env));
          if (ToTernary(w) == 1) return Eval(*then, env);
        }
      }
      if (expr.else_expr) return Eval(*expr.else_expr, env);
      return Value::Null();
    }
    case ExprKind::kExists: {
      if (!subquery_runner_) {
        return Status::Unsupported("subqueries not supported in this context");
      }
      CQMS_ASSIGN_OR_RETURN(QueryResult sub, subquery_runner_(*expr.subquery, &env));
      bool nonempty = !sub.rows.empty();
      return Value::Bool(expr.negated ? !nonempty : nonempty);
    }
    case ExprKind::kScalarSubquery: {
      if (!subquery_runner_) {
        return Status::Unsupported("subqueries not supported in this context");
      }
      CQMS_ASSIGN_OR_RETURN(QueryResult sub, subquery_runner_(*expr.subquery, &env));
      if (sub.rows.empty()) return Value::Null();
      if (sub.rows.size() > 1) {
        return Status::ExecutionError("scalar subquery returned more than one row");
      }
      if (sub.rows[0].size() != 1) {
        return Status::ExecutionError("scalar subquery must produce one column");
      }
      return sub.rows[0][0];
    }
  }
  return Status::Internal("unhandled expression kind");
}

Result<bool> Evaluator::EvalPredicate(const sql::Expr& expr, const Env& env) const {
  CQMS_ASSIGN_OR_RETURN(Value v, Eval(expr, env));
  return ToTernary(v) == 1;
}

}  // namespace cqms::db
