#include "metaquery/query_by_data.h"

namespace cqms::metaquery {

bool RowMatchesExample(const db::Row& row, const db::Row& example) {
  for (const db::Value& cell : example) {
    bool found = false;
    for (const db::Value& v : row) {
      if (!v.is_null() && !cell.is_null() && v.Compare(cell) == 0) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

namespace {

/// Checks examples against a concrete set of rows (a result's, or a
/// stored summary's sample). Returns true when all positive examples
/// appear and no negative example does.
template <typename Rows>
bool RowsSatisfyExamples(const Rows& rows,
                         const std::vector<DataExample>& examples) {
  for (const DataExample& ex : examples) {
    bool found = false;
    for (const db::Row& r : rows) {
      if (RowMatchesExample(r, ex.cells)) {
        found = true;
        break;
      }
    }
    if (ex.positive != found) return false;
  }
  return true;
}

}  // namespace

bool RecordSatisfiesDataExamples(const storage::QueryRecord& r,
                                 const std::vector<DataExample>& examples,
                                 const QueryByDataOptions& options) {
  if (!r.stats.succeeded || r.parse_failed()) return false;

  const bool has_summary = !r.summary.column_names.empty();
  if (has_summary && r.summary.complete) {
    return RowsSatisfyExamples(r.summary.sample_rows, examples);
  }

  // Incomplete or missing summary: the sample is inconclusive.
  if (options.reexecute_on != nullptr && r.Ast() != nullptr) {
    auto exec = options.reexecute_on->Execute(*r.Ast());
    return exec.ok() && RowsSatisfyExamples(exec->rows, examples);
  }
  if (has_summary && !options.skip_without_summary) {
    // Best-effort: decide on the sample alone.
    return RowsSatisfyExamples(r.summary.sample_rows, examples);
  }
  return false;
}

}  // namespace cqms::metaquery
