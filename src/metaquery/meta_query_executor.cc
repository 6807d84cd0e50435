#include "metaquery/meta_query_executor.h"

#include <algorithm>
#include <vector>

namespace cqms::metaquery {

MetaQueryResponse MetaQueryExecutor::Execute(
    const std::string& viewer, const MetaQueryRequest& request) const {
  if (store_->views_enabled()) {
    // Concurrent path: pin the current published view for the whole
    // execution — planner, scoring and visibility all read the same
    // immutable snapshot, untouched by whatever the writer does
    // meanwhile. The view keeps one visibility cache per viewer, shared
    // by every serving thread, so repeated queries stay memoized.
    storage::PinnedView view = store_->PinView();
    MetaQueryPlanner planner{storage::StoreView(*view)};
    return planner.Execute(request, &view->CacheFor(viewer));
  }
  // Live path (views never enabled): identical to the single-threaded
  // original. The store pools visibility caches per (viewer, thread),
  // so repeated queries keep their memoized ACL decisions warm.
  MetaQueryPlanner planner(store_);
  return planner.Execute(request, &store_->CacheFor(viewer));
}

Result<db::QueryResult> MetaQueryExecutor::Sql(const std::string& viewer,
                                               const std::string& meta_sql) const {
  CQMS_ASSIGN_OR_RETURN(db::QueryResult result,
                        store_->feature_db().ExecuteSql(meta_sql));
  // Visibility: filter on the qid column when present.
  auto it = std::find(result.column_names.begin(), result.column_names.end(), "qid");
  if (it != result.column_names.end()) {
    size_t qid_col = static_cast<size_t>(it - result.column_names.begin());
    storage::VisibilityCache& cache = store_->CacheFor(viewer);
    std::vector<db::Row> kept;
    kept.reserve(result.rows.size());
    for (db::Row& r : result.rows) {
      const db::Value& v = r[qid_col];
      if (v.type() == db::ValueType::kInt && v.AsInt() >= 0 &&
          static_cast<size_t>(v.AsInt()) < store_->size() &&
          cache.VisibleId(v.AsInt())) {
        kept.push_back(std::move(r));
      }
    }
    result.rows = std::move(kept);
  }
  return result;
}

}  // namespace cqms::metaquery
