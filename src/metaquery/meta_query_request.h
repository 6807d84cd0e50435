#ifndef CQMS_METAQUERY_META_QUERY_REQUEST_H_
#define CQMS_METAQUERY_META_QUERY_REQUEST_H_

#include <optional>
#include <string>
#include <vector>

#include "metaquery/feature_query.h"
#include "metaquery/knn.h"
#include "metaquery/parse_tree_query.h"
#include "metaquery/query_by_data.h"
#include "metaquery/similarity.h"
#include "obs/trace.h"
#include "storage/query_record.h"

namespace cqms::metaquery {

/// Keyword-search predicate: every (or any) extracted word must appear in
/// the logged query's text tokens. A request whose `words` yields no
/// extractable tokens matches nothing.
struct KeywordPredicate {
  std::string words;
  bool match_all = true;
};

/// Query-by-data predicate (see RecordSatisfiesDataExamples): the logged
/// query's output must satisfy every labeled example.
struct DataPredicate {
  std::vector<DataExample> examples;
  QueryByDataOptions options;
};

/// Similarity-to-probe predicate. `probe` is borrowed and must outlive
/// the request's execution (it is typically a stack-local built by
/// BuildRecordFromText in kTransient mode). The probe must carry a
/// computed similarity signature, which BuildRecordFromText always
/// provides. Candidates below RankingOptions::min_similarity are dropped.
struct SimilarityPredicate {
  const storage::QueryRecord* probe = nullptr;
  SimilarityWeights weights;
  /// Candidate-generation knobs, honored only when this predicate is the
  /// sole indexable one (otherwise exact posting intersections win).
  CandidateOptions candidates;
};

/// How the result list is ordered.
enum class ResultOrder {
  /// Ranked by the composite score (similarity, popularity, quality,
  /// recency — see RankingOptions), ties broken by ascending id.
  kScore,
  /// Ascending query id (log order), no scoring — the order of a
  /// keyword, substring, feature, structure or data search.
  kLogOrder,
};

/// One meta-query over the log: a *conjunction* of composable predicates
/// plus one ranking policy — the paper's §2.3 ask ("ranking functions
/// that combine similarity measures with other desired properties") as
/// an API. Every predicate is optional; an empty request matches every
/// visible query. Each meta-query class is a one-predicate instance of
/// this type (docs/metaquery_api.md lists them).
///
/// Example — "queries touching `lineage` with skeleton X, similar to
/// this probe, ranked by popularity":
///
///   MetaQueryRequest req;
///   req.feature.emplace();
///   req.feature->UsesTable("lineage");
///   req.structure.emplace();
///   req.structure->required_predicate_skeletons = {"lineage.run < ?"};
///   req.similarity = SimilarityPredicate{&probe, {}, {}};
///   req.ranking.w_popularity = 0.5;
///   req.limit = 10;
struct MetaQueryRequest {
  std::optional<KeywordPredicate> keyword;
  /// Case-insensitive substring of the raw query text. An empty needle
  /// matches nothing.
  std::optional<std::string> substring;
  std::optional<FeatureQuery> feature;
  std::optional<StructuralPattern> structure;
  std::optional<DataPredicate> data;
  std::optional<SimilarityPredicate> similarity;

  RankingOptions ranking;
  ResultOrder order = ResultOrder::kScore;
  /// Keep at most this many results (0 = all). With kScore this is the
  /// `k` of kNN.
  size_t limit = 0;

  /// When non-null, the planner records generator selection, per-stage
  /// candidate counts, and span timings into it. Null (the default)
  /// means no tracing work happens at all — the hot path stays clean.
  /// Borrowed; must outlive Execute.
  obs::ExecTrace* trace = nullptr;

  // Fluent builders, so call sites read as one sentence.
  MetaQueryRequest& WithKeywords(std::string words, bool match_all = true);
  MetaQueryRequest& WithSubstring(std::string needle);
  MetaQueryRequest& WithFeature(FeatureQuery query);
  MetaQueryRequest& WithStructure(StructuralPattern pattern);
  MetaQueryRequest& WithData(std::vector<DataExample> examples,
                             QueryByDataOptions options = {});
  MetaQueryRequest& SimilarTo(const storage::QueryRecord& probe,
                              const SimilarityWeights& weights = {},
                              const CandidateOptions& candidates = {});
  /// Deleted: the request stores only the probe's address, so a
  /// temporary would dangle before Execute runs. Keep the probe alive in
  /// a local.
  MetaQueryRequest& SimilarTo(storage::QueryRecord&& probe,
                              const SimilarityWeights& weights = {},
                              const CandidateOptions& candidates = {}) = delete;
  MetaQueryRequest& RankedBy(const RankingOptions& options);
  MetaQueryRequest& InLogOrder();
  MetaQueryRequest& Limit(size_t n);
};

/// Stable lower_snake name for traces / exposition labels.
inline const char* CandidateGeneratorName(CandidateGenerator g) {
  switch (g) {
    case CandidateGenerator::kPostingIntersection:
      return "posting_intersection";
    case CandidateGenerator::kLshBuckets:
      return "lsh_buckets";
    case CandidateGenerator::kTableUnion:
      return "table_union";
    case CandidateGenerator::kFullScan:
      return "full_scan";
  }
  return "unknown";
}

/// One result row.
struct MetaQueryMatch {
  storage::QueryId id = storage::kInvalidQueryId;
  /// Combined similarity to the probe; 0 when the request carries no
  /// similarity predicate.
  double similarity = 0;
  /// Composite ranked score; 0 under ResultOrder::kLogOrder.
  double score = 0;
};

struct MetaQueryResponse {
  std::vector<MetaQueryMatch> matches;
  CandidateGenerator generator = CandidateGenerator::kFullScan;
  /// Candidates the generator produced (before filtering).
  size_t candidates_considered = 0;

  /// Just the ids, in result order.
  std::vector<storage::QueryId> Ids() const;
};

}  // namespace cqms::metaquery

#endif  // CQMS_METAQUERY_META_QUERY_REQUEST_H_
