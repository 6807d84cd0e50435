#ifndef CQMS_DB_EXPR_EVAL_H_
#define CQMS_DB_EXPR_EVAL_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "db/value.h"
#include "sql/ast.h"

namespace cqms::db {

struct QueryResult;

/// One addressable column of an intermediate tuple: it answers to
/// (qualifier, column), both lower-cased, and reads column `index` of the
/// tuple's row for FROM source `source`. The qualifier is the table alias
/// if present, else the table name.
struct Slot {
  std::string qualifier;
  std::string column;
  int source = 0;
  int index = 0;
};

/// Describes how the columns of an intermediate tuple are addressed. A
/// tuple holds one base-row pointer per FROM source; a null pointer stands
/// for a source an outer join null-extended, and its columns read as NULL.
class Layout {
 public:
  void Add(std::string qualifier, std::string column, int source, int index) {
    slots_.push_back({std::move(qualifier), std::move(column), source, index});
  }

  size_t size() const { return slots_.size(); }
  const Slot& slot(size_t i) const { return slots_[i]; }

  /// The value of slot `i` in `tuple`, read in place from its source row.
  const Value& Read(const Row* const* tuple, size_t i) const;

  /// Finds the slot for a (possibly unqualified) column reference, both
  /// names lower-cased. Returns the slot index, -1 when not found, -2 when
  /// ambiguous.
  int Find(const std::string& qualifier, const std::string& column) const;

  /// All slot indices whose qualifier equals `qualifier` (for `t.*`).
  std::vector<int> SlotsForQualifier(const std::string& qualifier) const;

 private:
  std::vector<Slot> slots_;
};

/// One distinct aggregate call of a SELECT block, computed once per group.
struct AggSpec {
  /// Canonical printed call text. It dedupes the block's calls, and it is
  /// how a subquery names this aggregate: `COUNT(*)` in a subquery's WHERE
  /// reads the enclosing group's `COUNT(*)`.
  std::string key;
  /// Every call node with this text in the block's select list, HAVING
  /// and ORDER BY; the first supplies the function and its argument.
  std::vector<const sql::Expr*> calls;
  bool is_star = false;  ///< COUNT(*).
};

/// Evaluation environment: a tuple of base rows interpreted through a
/// layout, chained to the environment of the enclosing block so a
/// correlated subquery can read outer tuples. In an aggregation context
/// (the HAVING, select list and ORDER BY of an aggregating block) it also
/// holds the block's aggregate calls and the current group's values,
/// indexed alike.
///
/// An environment without a tuple is a bind scope: `Bind` reads only the
/// layouts and aggregate calls along the chain.
struct Env {
  const Layout* layout = nullptr;
  const Row* const* tuple = nullptr;
  const Env* parent = nullptr;
  const std::vector<AggSpec>* agg_specs = nullptr;
  const Value* aggregates = nullptr;
};

/// A scalar function, resolved from its name when a call is bound.
enum class ScalarFunction {
  kUpper, kLower, kLength, kAbs, kRound, kSubstr, kCoalesce, kUnknown
};

/// An expression bound to the environments it is evaluated in: every
/// column reference resolved to a slot, every literal converted, every
/// aggregate call resolved to a group value and every scalar function to
/// its kind. Binding raises no error. A reference that does not bind
/// holds its error, raised when the node is evaluated, so a clause that
/// is evaluated on no row fails no more than the tree it came from.
struct BoundExpr {
  enum class Kind {
    kSlot,       ///< Slot `index` of the layout `depth` Env parents up.
    kConstant,   ///< A literal, converted once: `value`.
    kAggregate,  ///< Value `index` of the group `depth` Env parents up.
    kError,      ///< A name or operand that did not bind: `error`.
    kUnary,      ///< children: operand.
    kBinary,     ///< children: left, right.
    kFunction,   ///< children: arguments.
    kInList,     ///< children: needle, then the list.
    kInSubquery, ///< children: needle.
    kBetween,    ///< children: operand, low, high.
    kIsNull,     ///< children: operand.
    kCase,       ///< children: [operand], WHEN/THEN pairs, [ELSE].
    kExists,
    kScalarSubquery,
  };

  Kind kind = Kind::kError;
  /// The source node: operators, flags, subqueries and names for errors.
  const sql::Expr* expr = nullptr;
  int depth = 0;
  int index = 0;
  ScalarFunction function = ScalarFunction::kUnknown;
  Value value;
  Status error;
  std::vector<BoundExpr> children;

  /// True when evaluating reads a value in place and cannot fail.
  bool IsRead() const {
    return kind == Kind::kSlot || kind == Kind::kConstant ||
           kind == Kind::kAggregate;
  }
};

/// The slot column reference `ref` names in `layout` alone: -1 when none,
/// -2 when ambiguous. This is the lookup `Bind` makes at each depth.
int BindColumnSlot(const sql::Expr& ref, const Layout& layout);

/// Binds `expr` for evaluation in environments shaped like `scope`: the
/// same layout and aggregate calls at every depth. Names resolve as SQL
/// scoping requires: the innermost layout first, and an ambiguous name
/// is an error even when an outer layout has it. At depth 0 an aggregate
/// call binds to the spec that collected it; further out, to the spec
/// with its printed text.
BoundExpr Bind(const sql::Expr& expr, const Env& scope);

/// Callback used by the evaluator to run subqueries. `outer` provides the
/// correlation environment (may be null for top level).
using SubqueryRunner =
    std::function<Result<QueryResult>(const sql::SelectStatement&, const Env*)>;

/// Interprets bound expressions with SQL three-valued logic. It reads
/// only bound nodes: no name, aggregate text or function name is looked
/// up per row, and slots, constants and aggregate values are read in
/// place.
///
/// NULL handling follows SQL-92: arithmetic and comparisons with NULL
/// yield NULL; AND/OR use Kleene logic; WHERE treats non-TRUE as reject.
/// Integer arithmetic whose result does not fit in 64 bits fails with
/// "integer overflow".
class Evaluator {
 public:
  explicit Evaluator(SubqueryRunner subquery_runner = nullptr)
      : subquery_runner_(std::move(subquery_runner)) {}

  /// Evaluates `expr` in `env`.
  Result<Value> Eval(const BoundExpr& expr, const Env& env) const;

  /// The value of `expr` in `env`: read in place for a slot, a constant
  /// or an aggregate value, otherwise evaluated into `*scratch`.
  Result<const Value*> Operand(const BoundExpr& expr, const Env& env,
                               Value* scratch) const;

  /// Evaluates `expr` as a predicate: NULL and FALSE both reject.
  Result<bool> EvalPredicate(const BoundExpr& expr, const Env& env) const;

  /// SQL LIKE with `%` and `_` wildcards (case-sensitive).
  static bool LikeMatch(const std::string& text, const std::string& pattern);

 private:
  /// `expr` in three-valued logic (-1 unknown, 0 false, 1 true), without
  /// building a Value for AND, OR and comparisons.
  Result<int> EvalTernary(const BoundExpr& expr, const Env& env) const;
  Result<Value> EvalBinary(const BoundExpr& expr, const Env& env) const;
  Result<Value> EvalFunction(const BoundExpr& expr, const Env& env) const;

  SubqueryRunner subquery_runner_;
};

}  // namespace cqms::db

#endif  // CQMS_DB_EXPR_EVAL_H_
