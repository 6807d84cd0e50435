#ifndef CQMS_METAQUERY_META_QUERY_PLANNER_H_
#define CQMS_METAQUERY_META_QUERY_PLANNER_H_

#include <string>

#include "metaquery/meta_query_request.h"
#include "storage/query_store.h"

namespace cqms::metaquery {

/// Executes a MetaQueryRequest against the store: the one pipeline every
/// meta-query class now runs through.
///
/// Candidate generation picks the cheapest exact generator by estimated
/// selectivity:
///
///   1. If any predicate is backed by a posting list (keyword tokens,
///      feature/structure tables, attributes, user), all such lists are
///      intersected smallest-first — the smallest list bounds the
///      candidate count, and intersections keep conjunction semantics
///      exact. An empty required list short-circuits to zero results.
///   2. Otherwise, a similarity probe generates candidates through
///      KnnCandidateIds: LSH band buckets on large logs (approximate by
///      contract), else the probe's table-posting union. The LSH
///      generator is deliberately *not* used when posting lists exist:
///      it can miss true conjunction matches, and an exact generator of
///      bounded size is already available.
///   3. Full scan only as last resort (substring / data / structure
///      predicates with no required tables): every live statement.
///
/// Every generator yields statements (the posting lists and the LSH
/// index are keyed by StatementId). For each candidate statement the
/// cheap per-record checks run first — user, visibility (once per
/// record, through the caller's VisibilityCache) and flags — and a
/// statement with a surviving record is then checked once against what
/// its records share: substring, structure and similarity, read from
/// the store's ScoringColumns (packed signature spans, lowered text,
/// slot-indexed popularity; a row whose runs overflowed the columns is
/// scored from its records' signature). Only its surviving records pay
/// the remaining per-run checks (feature run stats, data examples). A
/// record's score adds its own quality and recency to its statement's
/// similarity and popularity. Log-order answers are sorted by record id
/// before the limit applies.
class MetaQueryPlanner {
 public:
  /// Plans against the live store (single-threaded path). `store` must
  /// outlive the planner.
  explicit MetaQueryPlanner(const storage::QueryStore* store)
      : view_(*store) {}

  /// Plans against a read facade — the live store or a pinned published
  /// view (concurrent path). Whatever backs the facade must outlive the
  /// planner; on the view path that means the caller holds the
  /// PinnedView for the planner's whole execution.
  explicit MetaQueryPlanner(storage::StoreView view) : view_(view) {}

  /// Runs `request` for `visibility`'s viewer. The cache must be backed
  /// by the same store / view as the planner; it memoizes ACL decisions
  /// across calls (and, on the live path, self-invalidates on ACL
  /// mutation).
  MetaQueryResponse Execute(const MetaQueryRequest& request,
                            storage::VisibilityCache* visibility) const;

  /// Convenience overload: the visibility cache comes from the backing
  /// view's per-viewer pool or the live store's per-(viewer, thread)
  /// pool (CacheFor).
  MetaQueryResponse Execute(const std::string& viewer,
                            const MetaQueryRequest& request) const;

 private:
  storage::StoreView view_;
};

}  // namespace cqms::metaquery

#endif  // CQMS_METAQUERY_META_QUERY_PLANNER_H_
