#ifndef CQMS_DB_DATABASE_H_
#define CQMS_DB_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "db/expr_eval.h"
#include "db/schema.h"
#include "db/table.h"
#include "db/value.h"
#include "sql/ast.h"

namespace cqms::db {

/// Materialized result of a query execution.
struct QueryResult {
  std::vector<std::string> column_names;
  std::vector<Row> rows;
  /// Rows examined by scans and join probes — the engine's work measure,
  /// reported to the Query Profiler as a runtime feature.
  uint64_t rows_scanned = 0;
  /// Human-readable execution plan: one line per operator, recording the
  /// planner's choices (filter pushdown, hash vs nested-loop join,
  /// aggregation, sort). The Query Profiler logs this — the paper (§4.1)
  /// lists "the query execution plan" among the runtime features existing
  /// profilers capture.
  std::string plan;

  size_t num_rows() const { return rows.size(); }
};

/// The relational engine substrate: catalog + tables + SELECT executor.
///
/// This plays the role of the production DBMS under the CQMS (Figure 4 of
/// the paper): it parses nothing itself — the `sql` library does — but
/// binds, plans and executes statements, exposing the catalog and
/// execution statistics the CQMS components need.
///
/// Execution strategy: scans with pushed-down single-table filters, then
/// left-to-right join folding with a hash-join fast path for equi-join
/// conditions (essential for the paper's Figure-1 style meta-queries that
/// self-join the Attributes feature relation), then grouping/aggregation,
/// HAVING, projection, DISTINCT, ORDER BY, LIMIT/OFFSET, UNION.
///
/// Each SELECT block is bound once per execution, before its row loops:
/// every expression is bound against the layout of the stage that
/// evaluates it (a pushed-down filter against its scan, a join predicate
/// against that step's combined layout, WHERE, GROUP BY keys and
/// aggregate arguments against the joined relation, and HAVING, the
/// select list and ORDER BY with the group's aggregates as well). A
/// column reference becomes a (depth, slot) pair, a literal a Value, an
/// aggregate call an index into its group's values, and a function its
/// kind; the row loops look up no name. A name that does not bind fails
/// only when it is evaluated, so a clause over no rows still succeeds. A
/// subquery is bound each time it runs, against its outer environments.
///
/// Execution materializes late. Until projection, an intermediate relation
/// is a list of tuples holding one pointer per FROM source into that
/// table's stored rows (null where an outer join null-extended the
/// source): scans copy no rows, filters drop pointer tuples in place, a
/// join appends only the combinations that pass its predicates, and a
/// group keeps a representative tuple. Projection then builds each output
/// row once. Without ORDER BY, DISTINCT or aggregation, and when every
/// output is a slot or constant read (which cannot fail), it builds only
/// the OFFSET+LIMIT rows the block keeps; scans, filters and joins still
/// run in full, so `rows_scanned` and their errors do not depend on LIMIT.
/// `Execute` reads table rows in place, and the tables must not change
/// during a call; every caller runs on the thread that mutates them (the
/// server's writer thread).
class Database {
 public:
  explicit Database(const Clock* clock = nullptr) : catalog_(clock) {}

  // Not copyable (owns table storage); movable.
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  const Catalog& catalog() const { return catalog_; }

  // --- DDL (keeps catalog and row storage in sync) -----------------------

  Status CreateTable(const TableSchema& schema);
  Status DropTable(const std::string& table);
  Status RenameTable(const std::string& table, const std::string& new_name);
  Status AddColumn(const std::string& table, const ColumnDef& column);
  Status DropColumn(const std::string& table, const std::string& column);
  Status RenameColumn(const std::string& table, const std::string& column,
                      const std::string& new_name);

  // --- DML ----------------------------------------------------------------

  /// Appends a row to `table`; arity-checked.
  Status Insert(const std::string& table, Row row);

  /// Read access to stored rows (nullptr if absent).
  const Table* GetTable(const std::string& table) const;
  Table* GetMutableTable(const std::string& table);

  // --- Queries ------------------------------------------------------------

  /// Parses and executes SQL text.
  Result<QueryResult> ExecuteSql(std::string_view sql_text) const;

  /// Executes a parsed statement.
  Result<QueryResult> Execute(const sql::SelectStatement& stmt) const;

  /// Binds the statement against the catalog without executing: verifies
  /// that every referenced table and column exists and is unambiguous.
  /// This is the primitive Query Maintenance uses to flag queries broken
  /// by schema evolution (§4.4).
  Status Validate(const sql::SelectStatement& stmt) const;

 private:
  friend class ExecutorImpl;

  Catalog catalog_;
  std::map<std::string, Table> tables_;  // key: lower-cased table name
};

}  // namespace cqms::db

#endif  // CQMS_DB_DATABASE_H_
