#ifndef CQMS_DB_EXPR_EVAL_H_
#define CQMS_DB_EXPR_EVAL_H_

#include <functional>
#include <map>
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

  /// Finds the slot for a (possibly unqualified) column reference.
  /// Returns the slot index, -1 when not found, -2 when ambiguous.
  int Find(const std::string& qualifier, const std::string& column) const;

  /// All slot indices whose qualifier equals `qualifier` (for `t.*`).
  std::vector<int> SlotsForQualifier(const std::string& qualifier) const;

 private:
  std::vector<Slot> slots_;
};

/// Evaluation environment: a tuple of base rows interpreted through a
/// layout, chained to an optional parent environment so correlated
/// subqueries can see outer tuples. Aggregate contexts additionally
/// expose computed aggregate values keyed by their canonical printed
/// expression.
struct Env {
  const Layout* layout = nullptr;
  const Row* const* tuple = nullptr;
  const Env* parent = nullptr;
  /// Aggregate values by canonical printed call text, e.g. "AVG(t.temp)".
  const std::map<std::string, Value>* aggregates = nullptr;
};

/// Callback used by the evaluator to run subqueries. `outer` provides the
/// correlation environment (may be null for top level).
using SubqueryRunner =
    std::function<Result<QueryResult>(const sql::SelectStatement&, const Env*)>;

/// Interprets expression trees with SQL three-valued logic.
///
/// NULL handling follows SQL-92: arithmetic and comparisons with NULL
/// yield NULL; AND/OR use Kleene logic; WHERE treats non-TRUE as reject.
class Evaluator {
 public:
  explicit Evaluator(SubqueryRunner subquery_runner = nullptr)
      : subquery_runner_(std::move(subquery_runner)) {}

  /// Evaluates `expr` in `env`.
  Result<Value> Eval(const sql::Expr& expr, const Env& env) const;

  /// Evaluates `expr` as a predicate: NULL and FALSE both reject.
  Result<bool> EvalPredicate(const sql::Expr& expr, const Env& env) const;

  /// SQL LIKE with `%` and `_` wildcards (case-sensitive).
  static bool LikeMatch(const std::string& text, const std::string& pattern);

 private:
  Result<Value> EvalBinary(const sql::Expr& expr, const Env& env) const;
  Result<Value> EvalFunction(const sql::Expr& expr, const Env& env) const;
  Result<Value> EvalColumn(const sql::Expr& expr, const Env& env) const;

  SubqueryRunner subquery_runner_;
};

}  // namespace cqms::db

#endif  // CQMS_DB_EXPR_EVAL_H_
