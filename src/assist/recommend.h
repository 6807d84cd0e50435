#ifndef CQMS_ASSIST_RECOMMEND_H_
#define CQMS_ASSIST_RECOMMEND_H_

#include <string>
#include <vector>

#include "metaquery/meta_query_executor.h"
#include "storage/query_store.h"

namespace cqms::assist {

/// One row of the Figure-3 "Similar Queries" panel: score, query text,
/// diff against what the user typed, and the best annotation.
struct Recommendation {
  storage::QueryId id = storage::kInvalidQueryId;
  double score = 0;        ///< Ranked score (the panel's percentage).
  double similarity = 0;   ///< Raw similarity component.
  std::string text;        ///< The recommended query's SQL.
  std::string diff;        ///< Compact diff vs. the probe ("-1 col, -1 pred").
  std::string annotation;  ///< Most recent annotation text, if any.
};

struct RecommendOptions {
  metaquery::SimilarityWeights weights;
  metaquery::RankingOptions ranking;
  /// §4.3: "query recommendations can be limited to queries from users
  /// who have similar query session patterns as the current user". When
  /// set, candidates from authors none of whose logged queries shares a
  /// structure skeleton with one of the viewer's are discarded (read from
  /// the store's records).
  bool restrict_to_similar_sessions = false;
  /// Collapse recommendations that share a canonical fingerprint.
  bool deduplicate = true;
};

/// Full-query recommendation engine (§2.3).
class RecommendationEngine {
 public:
  /// `store` must outlive the engine.
  explicit RecommendationEngine(const storage::QueryStore* store);

  /// Recommends up to `k` logged queries similar to `sql_text` (a full
  /// or partially composed query; it must parse). Results are visible to
  /// `viewer`, best first.
  Result<std::vector<Recommendation>> Recommend(
      const std::string& viewer, const std::string& sql_text, size_t k,
      const RecommendOptions& options = {}) const;

 private:
  const storage::QueryStore* store_;
  /// Runs the kNN request through the unified planner pipeline; owning
  /// the executor keeps its per-viewer visibility caches warm across
  /// keystrokes (recommendations fire on every pause in typing).
  metaquery::MetaQueryExecutor executor_;
};

}  // namespace cqms::assist

#endif  // CQMS_ASSIST_RECOMMEND_H_
