#ifndef CQMS_METAQUERY_META_QUERY_EXECUTOR_H_
#define CQMS_METAQUERY_META_QUERY_EXECUTOR_H_

#include <string>

#include "common/result.h"
#include "db/database.h"
#include "metaquery/meta_query_planner.h"
#include "metaquery/meta_query_request.h"
#include "storage/query_store.h"

namespace cqms::metaquery {

/// The CQMS Meta-Query Executor (Figure 4): the single online entry point
/// for all four classes of meta-queries the paper identifies (§4.2) —
/// keyword, complex feature/structure conditions, output conditions, and
/// kNN — with access control applied on every path.
///
/// There is exactly one pipeline behind it: `Execute` hands a
/// MetaQueryRequest (a conjunction of composable predicates plus one
/// RankingOptions) to the MetaQueryPlanner. One class is one predicate
/// (docs/metaquery_api.md lists the request for each), and a request
/// may *combine* them — "queries touching `lineage` with skeleton X,
/// similar to this probe, ranked by popularity" is one request. `Sql`
/// is the one path beside it: SQL over the feature relations.
///
/// Thread model: the executor itself is stateless (Execute never
/// mutates it), so one executor serves any number of concurrent caller
/// threads. When the store has read views enabled, each Execute pins
/// the current published view and runs entirely against that immutable
/// snapshot — visibility memoization lives in the view's per-viewer
/// cache pool, shared by every thread and warm across their queries.
/// Without views, Execute runs against the live store through its
/// per-(viewer, thread) pool (single-threaded original behavior, same
/// results).
class MetaQueryExecutor {
 public:
  /// `store` must outlive the executor.
  explicit MetaQueryExecutor(const storage::QueryStore* store)
      : store_(store) {}

  /// The unified entry point: runs any predicate combination through
  /// the planner, against the current published view when the store has
  /// one (see the class comment).
  MetaQueryResponse Execute(const std::string& viewer,
                            const MetaQueryRequest& request) const;

  /// Class 2b, feature conditions as SQL: runs arbitrary SQL against the
  /// Figure-1 feature relations. When the
  /// result exposes a `qid` column, rows whose query is not visible to
  /// `viewer` are removed — SQL meta-querying cannot bypass the ACL.
  /// Live-store only (the feature database is not part of published
  /// views): call from the writer thread, never concurrently with
  /// mutations.
  Result<db::QueryResult> Sql(const std::string& viewer,
                              const std::string& meta_sql) const;

 private:
  const storage::QueryStore* store_;
};

}  // namespace cqms::metaquery

#endif  // CQMS_METAQUERY_META_QUERY_EXECUTOR_H_
