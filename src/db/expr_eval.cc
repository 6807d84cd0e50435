#include "db/expr_eval.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "db/database.h"
#include "sql/printer.h"

namespace cqms::db {

namespace {

using Kind = BoundExpr::Kind;

/// Kleene three-valued logic encoding: -1 unknown, 0 false, 1 true.
int ToTernary(const Value& v) {
  if (v.is_null()) return -1;
  if (v.type() == ValueType::kBool) return v.AsBool() ? 1 : 0;
  // Numeric truthiness (nonzero == true) for robustness.
  if (v.is_numeric()) return v.AsDouble() != 0 ? 1 : 0;
  return -1;
}

Value FromTernary(int t) { return t < 0 ? Value::Null() : Value::Bool(t == 1); }

bool IsComparison(sql::BinaryOp op) {
  return op == sql::BinaryOp::kEq || op == sql::BinaryOp::kNeq ||
         op == sql::BinaryOp::kLt || op == sql::BinaryOp::kLe ||
         op == sql::BinaryOp::kGt || op == sql::BinaryOp::kGe;
}

/// Comparison `op` over two operands in three-valued logic: unknown when
/// either is NULL.
int CompareTernary(sql::BinaryOp op, const Value& lv, const Value& rv) {
  using sql::BinaryOp;
  if (lv.is_null() || rv.is_null()) return -1;
  const int cmp = lv.Compare(rv);
  switch (op) {
    case BinaryOp::kEq: return cmp == 0;
    case BinaryOp::kNeq: return cmp != 0;
    case BinaryOp::kLt: return cmp < 0;
    case BinaryOp::kLe: return cmp <= 0;
    case BinaryOp::kGt: return cmp > 0;
    default: return cmp >= 0;
  }
}

Status IntegerOverflow() { return Status::ExecutionError("integer overflow"); }

/// The environment `depth` parents up from `env`.
const Env& Up(const Env& env, int depth) {
  const Env* e = &env;
  for (int i = 0; i < depth; ++i) e = e->parent;
  return *e;
}

/// The value a slot, constant or aggregate node reads, in place.
const Value& ReadInPlace(const BoundExpr& expr, const Env& env) {
  switch (expr.kind) {
    case Kind::kSlot: {
      const Env& e = Up(env, expr.depth);
      return e.layout->Read(e.tuple, expr.index);
    }
    case Kind::kAggregate:
      return Up(env, expr.depth).aggregates[expr.index];
    default:
      return expr.value;
  }
}

ScalarFunction ResolveFunction(const std::string& name) {
  if (name == "UPPER") return ScalarFunction::kUpper;
  if (name == "LOWER") return ScalarFunction::kLower;
  if (name == "LENGTH") return ScalarFunction::kLength;
  if (name == "ABS") return ScalarFunction::kAbs;
  if (name == "ROUND") return ScalarFunction::kRound;
  if (name == "SUBSTR" || name == "SUBSTRING") return ScalarFunction::kSubstr;
  if (name == "COALESCE") return ScalarFunction::kCoalesce;
  return ScalarFunction::kUnknown;
}

void BindColumn(const sql::Expr& ref, const Env& scope, BoundExpr* out) {
  const std::string qualifier = ToLower(ref.table);
  const std::string column = ToLower(ref.column);
  int depth = 0;
  for (const Env* e = &scope; e != nullptr; e = e->parent, ++depth) {
    if (e->layout == nullptr) continue;
    const int slot = e->layout->Find(qualifier, column);
    if (slot == -2) {
      out->error = Status::BindError("ambiguous column reference: " + column);
      return;
    }
    if (slot >= 0) {
      out->kind = Kind::kSlot;
      out->depth = depth;
      out->index = slot;
      return;
    }
  }
  out->error = Status::BindError(
      "unknown column: " + (qualifier.empty() ? column : qualifier + "." + column));
}

void BindAggregate(const sql::Expr& call, const Env& scope, BoundExpr* out) {
  std::string key;  // printed only when an enclosing group is searched
  int depth = 0;
  for (const Env* e = &scope; e != nullptr; e = e->parent, ++depth) {
    if (e->agg_specs == nullptr) continue;
    const std::vector<AggSpec>& specs = *e->agg_specs;
    if (depth > 0 && key.empty()) key = sql::PrintExpr(call, {});
    for (size_t i = 0; i < specs.size(); ++i) {
      const bool match =
          depth == 0 ? std::find(specs[i].calls.begin(), specs[i].calls.end(),
                                 &call) != specs[i].calls.end()
                     : specs[i].key == key;
      if (!match) continue;
      out->kind = Kind::kAggregate;
      out->depth = depth;
      out->index = static_cast<int>(i);
      return;
    }
  }
  out->error = Status::BindError("aggregate function " + call.function_name +
                                 " used outside an aggregation context");
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

int BindColumnSlot(const sql::Expr& ref, const Layout& layout) {
  return layout.Find(ToLower(ref.table), ToLower(ref.column));
}

BoundExpr Bind(const sql::Expr& expr, const Env& scope) {
  using sql::ExprKind;
  BoundExpr out;
  out.expr = &expr;
  auto add = [&](const sql::Expr& child) {
    out.children.push_back(Bind(child, scope));
  };
  switch (expr.kind) {
    case ExprKind::kLiteral:
      out.kind = Kind::kConstant;
      out.value = Value::FromLiteral(expr.literal);
      break;
    case ExprKind::kColumnRef:
      BindColumn(expr, scope, &out);
      break;
    case ExprKind::kStar:
      out.error = Status::ExecutionError("'*' is not a value expression");
      break;
    case ExprKind::kUnary:
      out.kind = Kind::kUnary;
      add(*expr.left);
      break;
    case ExprKind::kBinary:
      out.kind = Kind::kBinary;
      out.children.reserve(2);
      add(*expr.left);
      add(*expr.right);
      break;
    case ExprKind::kFunctionCall:
      if (sql::IsAggregateFunction(expr.function_name)) {
        BindAggregate(expr, scope, &out);
        break;
      }
      out.kind = Kind::kFunction;
      out.function = ResolveFunction(expr.function_name);
      out.children.reserve(expr.args.size());
      for (const auto& a : expr.args) add(*a);
      break;
    case ExprKind::kInList:
      out.kind = Kind::kInList;
      out.children.reserve(1 + expr.in_list.size());
      add(*expr.left);
      for (const auto& item : expr.in_list) add(*item);
      break;
    case ExprKind::kInSubquery:
      out.kind = Kind::kInSubquery;
      add(*expr.left);
      break;
    case ExprKind::kBetween:
      out.kind = Kind::kBetween;
      out.children.reserve(3);
      add(*expr.left);
      add(*expr.low);
      add(*expr.high);
      break;
    case ExprKind::kIsNull:
      out.kind = Kind::kIsNull;
      add(*expr.left);
      break;
    case ExprKind::kCase:
      out.kind = Kind::kCase;
      out.children.reserve(2 * expr.when_clauses.size() + 2);
      if (expr.case_operand) add(*expr.case_operand);
      for (const auto& [when, then] : expr.when_clauses) {
        add(*when);
        add(*then);
      }
      if (expr.else_expr) add(*expr.else_expr);
      break;
    case ExprKind::kExists:
      out.kind = Kind::kExists;
      break;
    case ExprKind::kScalarSubquery:
      out.kind = Kind::kScalarSubquery;
      break;
    default:
      out.error = Status::Internal("unhandled expression kind");
      break;
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

Result<const Value*> Evaluator::Operand(const BoundExpr& expr, const Env& env,
                                        Value* scratch) const {
  if (expr.IsRead()) return &ReadInPlace(expr, env);
  CQMS_ASSIGN_OR_RETURN(*scratch, Eval(expr, env));
  return scratch;
}

Result<int> Evaluator::EvalTernary(const BoundExpr& expr, const Env& env) const {
  using sql::BinaryOp;
  if (expr.kind == Kind::kBinary) {
    const BinaryOp op = expr.expr->bop;
    // AND/OR get short-circuit Kleene treatment.
    if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
      CQMS_ASSIGN_OR_RETURN(int l, EvalTernary(expr.children[0], env));
      if (op == BinaryOp::kAnd && l == 0) return 0;
      if (op == BinaryOp::kOr && l == 1) return 1;
      CQMS_ASSIGN_OR_RETURN(int r, EvalTernary(expr.children[1], env));
      if (op == BinaryOp::kAnd) {
        if (r == 0) return 0;
        return l == 1 && r == 1 ? 1 : -1;
      }
      if (r == 1) return 1;
      return l == 0 && r == 0 ? 0 : -1;
    }
    if (IsComparison(op)) {
      Value left_scratch, right_scratch;
      CQMS_ASSIGN_OR_RETURN(const Value* lv,
                            Operand(expr.children[0], env, &left_scratch));
      CQMS_ASSIGN_OR_RETURN(const Value* rv,
                            Operand(expr.children[1], env, &right_scratch));
      return CompareTernary(op, *lv, *rv);
    }
  }
  Value scratch;
  CQMS_ASSIGN_OR_RETURN(const Value* v, Operand(expr, env, &scratch));
  return ToTernary(*v);
}

Result<Value> Evaluator::EvalBinary(const BoundExpr& expr, const Env& env) const {
  using sql::BinaryOp;
  const BinaryOp op = expr.expr->bop;
  if (op == BinaryOp::kAnd || op == BinaryOp::kOr || IsComparison(op)) {
    CQMS_ASSIGN_OR_RETURN(int t, EvalTernary(expr, env));
    return FromTernary(t);
  }

  Value left_scratch, right_scratch;
  CQMS_ASSIGN_OR_RETURN(const Value* left,
                        Operand(expr.children[0], env, &left_scratch));
  CQMS_ASSIGN_OR_RETURN(const Value* right,
                        Operand(expr.children[1], env, &right_scratch));
  const Value& lv = *left;
  const Value& rv = *right;

  switch (op) {
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
      int64_t out = 0;
      if (op == BinaryOp::kDiv) {
        double denom = rv.AsDouble();
        if (denom == 0) return Value::Null();  // SQL engines vary; NULL is safe.
        if (both_int) {
          const int64_t a = lv.AsInt(), b = rv.AsInt();
          // a / -1 is exact, and a % -1 traps for INT64_MIN.
          if (b == -1) {
            if (__builtin_sub_overflow(int64_t{0}, a, &out)) return IntegerOverflow();
            return Value::Int(out);
          }
          if (a % b == 0) return Value::Int(a / b);
        }
        return Value::Double(lv.AsDouble() / denom);
      }
      if (op == BinaryOp::kMod) {
        if (!both_int) return Status::ExecutionError("modulo requires integers");
        if (rv.AsInt() == 0) return Value::Null();
        if (rv.AsInt() == -1) return Value::Int(0);  // INT64_MIN % -1 traps
        return Value::Int(lv.AsInt() % rv.AsInt());
      }
      if (both_int) {
        const int64_t a = lv.AsInt(), b = rv.AsInt();
        bool overflow;
        switch (op) {
          case BinaryOp::kAdd: overflow = __builtin_add_overflow(a, b, &out); break;
          case BinaryOp::kSub: overflow = __builtin_sub_overflow(a, b, &out); break;
          default: overflow = __builtin_mul_overflow(a, b, &out); break;
        }
        if (overflow) return IntegerOverflow();
        return Value::Int(out);
      }
      double a = lv.AsDouble(), b = rv.AsDouble();
      switch (op) {
        case BinaryOp::kAdd: return Value::Double(a + b);
        case BinaryOp::kSub: return Value::Double(a - b);
        default: return Value::Double(a * b);
      }
    }
    case BinaryOp::kLike:
    case BinaryOp::kNotLike: {
      if (lv.is_null() || rv.is_null()) return Value::Null();
      if (lv.type() != ValueType::kString || rv.type() != ValueType::kString) {
        return Status::ExecutionError("LIKE requires string operands");
      }
      bool match = LikeMatch(lv.AsString(), rv.AsString());
      return Value::Bool(op == BinaryOp::kLike ? match : !match);
    }
    case BinaryOp::kConcat: {
      if (lv.is_null() || rv.is_null()) return Value::Null();
      return Value::String(lv.ToString() + rv.ToString());
    }
    default:
      return Status::Internal("unhandled binary operator");
  }
}

Result<Value> Evaluator::EvalFunction(const BoundExpr& expr, const Env& env) const {
  const std::string& name = expr.expr->function_name;
  std::vector<Value> args;
  args.reserve(expr.children.size());
  for (const BoundExpr& a : expr.children) {
    CQMS_ASSIGN_OR_RETURN(Value v, Eval(a, env));
    args.push_back(std::move(v));
  }

  auto require_args = [&](size_t n) -> Status {
    if (args.size() != n) {
      return Status::ExecutionError(name + " expects " + std::to_string(n) +
                                    " argument(s)");
    }
    return Status::Ok();
  };

  switch (expr.function) {
    case ScalarFunction::kUpper:
    case ScalarFunction::kLower:
      CQMS_RETURN_IF_ERROR(require_args(1));
      if (args[0].is_null()) return Value::Null();
      if (args[0].type() != ValueType::kString) {
        return Status::ExecutionError(name + " requires a string");
      }
      return Value::String(expr.function == ScalarFunction::kUpper
                               ? ToUpper(args[0].AsString())
                               : ToLower(args[0].AsString()));
    case ScalarFunction::kLength:
      CQMS_RETURN_IF_ERROR(require_args(1));
      if (args[0].is_null()) return Value::Null();
      return Value::Int(static_cast<int64_t>(args[0].ToString().size()));
    case ScalarFunction::kAbs:
      CQMS_RETURN_IF_ERROR(require_args(1));
      if (args[0].is_null()) return Value::Null();
      if (args[0].type() == ValueType::kInt) {
        int64_t v = args[0].AsInt();
        if (v < 0 && __builtin_sub_overflow(int64_t{0}, v, &v)) {
          return IntegerOverflow();
        }
        return Value::Int(v);
      }
      if (args[0].type() == ValueType::kDouble) {
        return Value::Double(std::fabs(args[0].AsDouble()));
      }
      return Status::ExecutionError("ABS requires a numeric argument");
    case ScalarFunction::kRound: {
      if (args.size() != 1 && args.size() != 2) {
        return Status::ExecutionError("ROUND expects 1 or 2 arguments");
      }
      if (args[0].is_null()) return Value::Null();
      if (!args[0].is_numeric()) {
        return Status::ExecutionError("ROUND requires a numeric argument");
      }
      int64_t digits = args.size() == 2 && !args[1].is_null() ? args[1].AsInt() : 0;
      double scale = std::pow(10.0, static_cast<double>(digits));
      return Value::Double(std::round(args[0].AsDouble() * scale) / scale);
    }
    case ScalarFunction::kSubstr: {
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
    case ScalarFunction::kCoalesce:
      for (Value& v : args) {
        if (!v.is_null()) return std::move(v);
      }
      return Value::Null();
    case ScalarFunction::kUnknown:
      break;
  }
  return Status::ExecutionError("unknown function: " + name);
}

Result<Value> Evaluator::Eval(const BoundExpr& expr, const Env& env) const {
  switch (expr.kind) {
    case Kind::kSlot:
    case Kind::kConstant:
    case Kind::kAggregate:
      return ReadInPlace(expr, env);
    case Kind::kError:
      return expr.error;
    case Kind::kUnary: {
      Value scratch;
      CQMS_ASSIGN_OR_RETURN(const Value* operand,
                            Operand(expr.children[0], env, &scratch));
      const Value& v = *operand;
      if (expr.expr->uop == sql::UnaryOp::kNot) {
        int t = ToTernary(v);
        if (t < 0) return Value::Null();
        return Value::Bool(t == 0);
      }
      if (v.is_null()) return Value::Null();
      if (v.type() == ValueType::kInt) {
        int64_t negated;
        if (__builtin_sub_overflow(int64_t{0}, v.AsInt(), &negated)) {
          return IntegerOverflow();
        }
        return Value::Int(negated);
      }
      if (v.type() == ValueType::kDouble) return Value::Double(-v.AsDouble());
      return Status::ExecutionError("negation requires a numeric value");
    }
    case Kind::kBinary:
      return EvalBinary(expr, env);
    case Kind::kFunction:
      return EvalFunction(expr, env);
    case Kind::kInList: {
      Value needle_scratch, item_scratch;
      CQMS_ASSIGN_OR_RETURN(const Value* needle,
                            Operand(expr.children[0], env, &needle_scratch));
      if (needle->is_null()) return Value::Null();
      bool saw_null = false;
      for (size_t i = 1; i < expr.children.size(); ++i) {
        CQMS_ASSIGN_OR_RETURN(const Value* v,
                              Operand(expr.children[i], env, &item_scratch));
        if (v->is_null()) {
          saw_null = true;
          continue;
        }
        if (needle->Compare(*v) == 0) return Value::Bool(!expr.expr->negated);
      }
      if (saw_null) return Value::Null();
      return Value::Bool(expr.expr->negated);
    }
    case Kind::kInSubquery: {
      if (!subquery_runner_) {
        return Status::Unsupported("subqueries not supported in this context");
      }
      Value scratch;
      CQMS_ASSIGN_OR_RETURN(const Value* needle,
                            Operand(expr.children[0], env, &scratch));
      if (needle->is_null()) return Value::Null();
      CQMS_ASSIGN_OR_RETURN(QueryResult sub, subquery_runner_(*expr.expr->subquery, &env));
      if (!sub.rows.empty() && sub.rows[0].size() != 1) {
        return Status::ExecutionError("IN subquery must produce one column");
      }
      bool saw_null = false;
      for (const Row& r : sub.rows) {
        if (r[0].is_null()) {
          saw_null = true;
          continue;
        }
        if (needle->Compare(r[0]) == 0) return Value::Bool(!expr.expr->negated);
      }
      if (saw_null) return Value::Null();
      return Value::Bool(expr.expr->negated);
    }
    case Kind::kBetween: {
      Value v_scratch, lo_scratch, hi_scratch;
      CQMS_ASSIGN_OR_RETURN(const Value* v,
                            Operand(expr.children[0], env, &v_scratch));
      CQMS_ASSIGN_OR_RETURN(const Value* lo,
                            Operand(expr.children[1], env, &lo_scratch));
      CQMS_ASSIGN_OR_RETURN(const Value* hi,
                            Operand(expr.children[2], env, &hi_scratch));
      if (v->is_null() || lo->is_null() || hi->is_null()) return Value::Null();
      bool in_range = v->Compare(*lo) >= 0 && v->Compare(*hi) <= 0;
      return Value::Bool(expr.expr->negated ? !in_range : in_range);
    }
    case Kind::kIsNull: {
      Value scratch;
      CQMS_ASSIGN_OR_RETURN(const Value* v,
                            Operand(expr.children[0], env, &scratch));
      bool is_null = v->is_null();
      return Value::Bool(expr.expr->negated ? !is_null : is_null);
    }
    case Kind::kCase: {
      const sql::Expr& source = *expr.expr;
      const size_t pairs = source.when_clauses.size();
      Value operand_scratch, when_scratch;
      size_t next = 0;
      if (source.case_operand) {
        CQMS_ASSIGN_OR_RETURN(const Value* operand,
                              Operand(expr.children[next++], env, &operand_scratch));
        for (size_t p = 0; p < pairs; ++p, next += 2) {
          CQMS_ASSIGN_OR_RETURN(const Value* w,
                                Operand(expr.children[next], env, &when_scratch));
          if (!operand->is_null() && !w->is_null() && operand->Compare(*w) == 0) {
            return Eval(expr.children[next + 1], env);
          }
        }
      } else {
        for (size_t p = 0; p < pairs; ++p, next += 2) {
          CQMS_ASSIGN_OR_RETURN(const Value* w,
                                Operand(expr.children[next], env, &when_scratch));
          if (ToTernary(*w) == 1) return Eval(expr.children[next + 1], env);
        }
      }
      if (source.else_expr) return Eval(expr.children[next], env);
      return Value::Null();
    }
    case Kind::kExists: {
      if (!subquery_runner_) {
        return Status::Unsupported("subqueries not supported in this context");
      }
      CQMS_ASSIGN_OR_RETURN(QueryResult sub, subquery_runner_(*expr.expr->subquery, &env));
      bool nonempty = !sub.rows.empty();
      return Value::Bool(expr.expr->negated ? !nonempty : nonempty);
    }
    case Kind::kScalarSubquery: {
      if (!subquery_runner_) {
        return Status::Unsupported("subqueries not supported in this context");
      }
      CQMS_ASSIGN_OR_RETURN(QueryResult sub, subquery_runner_(*expr.expr->subquery, &env));
      if (sub.rows.empty()) return Value::Null();
      if (sub.rows.size() > 1) {
        return Status::ExecutionError("scalar subquery returned more than one row");
      }
      if (sub.rows[0].size() != 1) {
        return Status::ExecutionError("scalar subquery must produce one column");
      }
      return std::move(sub.rows[0][0]);
    }
  }
  return Status::Internal("unhandled expression kind");
}

Result<bool> Evaluator::EvalPredicate(const BoundExpr& expr, const Env& env) const {
  CQMS_ASSIGN_OR_RETURN(int t, EvalTernary(expr, env));
  return t == 1;
}

}  // namespace cqms::db
