#ifndef CQMS_METAQUERY_QUERY_BY_DATA_H_
#define CQMS_METAQUERY_QUERY_BY_DATA_H_

#include <vector>

#include "db/database.h"
#include "storage/query_store.h"

namespace cqms::metaquery {

/// One labeled example for query-by-data (§2.2): the user asks for "all
/// queries whose output includes Lake Washington but not Lake Union".
/// An example is a partial tuple; a result row *matches* the example when
/// every example cell appears somewhere in the row (subset-of-row
/// semantics, so examples work across queries with different projections).
struct DataExample {
  db::Row cells;
  bool positive = true;  ///< Must appear (true) vs. must not appear (false).
};

struct QueryByDataOptions {
  /// When a stored output summary is incomplete (sampled), the sample
  /// alone cannot prove a *negative* example absent nor guarantee a
  /// positive is found. With a database provided, such queries are
  /// re-executed to check exactly — the expensive-but-exact fallback the
  /// paper anticipates ("supporting query-by-data efficiently is a
  /// challenging problem").
  const db::Database* reexecute_on = nullptr;
  /// Skip queries with no stored output at all (instead of re-running).
  bool skip_without_summary = true;
};

/// Returns true when `row` matches `example.cells` (every cell equal to
/// some row cell).
bool RowMatchesExample(const db::Row& row, const db::Row& example);

/// The meta-query planner's query-by-data check: true when `record`
/// (already known visible) satisfies every example under `options` —
/// failed/unparsed queries never match; complete summaries decide
/// directly; inconclusive summaries re-execute when a database is
/// provided, else follow `skip_without_summary`. Queries are
/// classifiers; examples are the labeled training tuples.
bool RecordSatisfiesDataExamples(const storage::QueryRecord& record,
                                 const std::vector<DataExample>& examples,
                                 const QueryByDataOptions& options);

}  // namespace cqms::metaquery

#endif  // CQMS_METAQUERY_QUERY_BY_DATA_H_
