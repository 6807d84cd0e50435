#ifndef CQMS_METAQUERY_KNN_H_
#define CQMS_METAQUERY_KNN_H_

#include <string>
#include <vector>

#include "metaquery/similarity.h"
#include "storage/query_store.h"

namespace cqms::metaquery {

/// How kNN results are scored. The paper asks "how to construct ranking
/// functions that combine similarity measures together and with other
/// desired properties (e.g. high popularity, efficient runtime, small
/// result cardinality)" (§2.3) — these weights are that function.
struct RankingOptions {
  double w_similarity = 0.70;
  double w_popularity = 0.15;  ///< log-scaled canonical-duplicate count.
  double w_quality = 0.10;     ///< maintenance-assigned quality score.
  double w_recency = 0.05;     ///< newer queries rank higher.
  /// Exclude queries flagged broken/obsolete/deleted.
  bool exclude_flagged = true;
  /// Drop candidates below this similarity before ranking.
  double min_similarity = 0.05;
};

/// How kNN candidates are generated. The default draws candidates from
/// the store's MinHash/LSH index (sub-linear in log size) once the log
/// is large enough for the approximation to pay off; small logs and
/// table-less probes use the exhaustive table-index/full-scan path.
struct CandidateOptions {
  /// Master switch; false forces the exhaustive table-index scan
  /// (benchmarks use it to keep the brute-force series measurable).
  bool use_lsh = true;
  /// Below this log size the exhaustive path runs instead: scoring a
  /// few hundred candidates at ~54ns each is faster than any index
  /// probe, and the results stay exactly equal to brute force.
  size_t lsh_min_log_size = 1024;
  /// Probe only the first N bands of the index (0 = all configured
  /// bands). Fewer bands = fewer candidates = faster, lower recall;
  /// see docs/lsh_tuning.md.
  size_t probe_bands = 0;
};

/// Which structure produced a similarity candidate set.
enum class KnnCandidateSource {
  kLshBuckets,  ///< MinHash band buckets (approximate, sub-linear).
  kTableUnion,  ///< Union of the probe's table posting lists (exact).
  kFullScan,    ///< Table-less probe: every statement.
};

/// Candidate statements for one probe, ascending; their records are the
/// candidate records (PostingIndex::RecordsOf). For a full scan,
/// `statements` is left empty and the caller walks every live
/// statement.
struct KnnCandidates {
  std::vector<storage::StatementId> statements;
  KnnCandidateSource source = KnnCandidateSource::kFullScan;
  bool full_scan() const { return source == KnnCandidateSource::kFullScan; }
};

/// Shared candidate generation for similarity probes — the one policy
/// both the legacy kNN entry point and the meta-query planner use, so
/// their results agree by construction. Large logs: LSH bucket lookup
/// over the probe's MinHash sketch — sub-linear and approximate:
/// neighbors below the banding's similarity threshold can be missed,
/// which the default banding accepts because query-log top-k is
/// dominated by near-duplicate re-renders (docs/lsh_tuning.md has the
/// recall knobs). Small logs (or LSH disabled): the exhaustive
/// table-index union via the probe signature's interned table Symbols.
/// Probes with no tables scan the whole log either way.
KnnCandidates KnnCandidateIds(const storage::StoreView& store,
                              const storage::QueryRecord& probe,
                              const CandidateOptions& options);

/// Live-store convenience (wraps the store in a StoreView facade).
KnnCandidates KnnCandidateIds(const storage::QueryStore& store,
                              const storage::QueryRecord& probe,
                              const CandidateOptions& options);

/// One kNN result.
struct Neighbor {
  storage::QueryId id = storage::kInvalidQueryId;
  double similarity = 0;  ///< Raw combined similarity in [0,1].
  double score = 0;       ///< Ranked score (similarity + boosts).
};

/// Finds the k logged queries most similar to `probe`, visible to
/// `viewer`, ranked by the composite score. Candidate generation is
/// governed by `candidates` (see KnnCandidateIds). Since the unified
/// meta-query redesign this is a thin wrapper: it builds a
/// one-predicate MetaQueryRequest and runs it through the
/// MetaQueryPlanner's columnar scoring loop.
std::vector<Neighbor> KnnSearch(const storage::QueryStore& store,
                                const std::string& viewer,
                                const storage::QueryRecord& probe, size_t k,
                                const SimilarityWeights& weights = {},
                                const RankingOptions& ranking = {},
                                const CandidateOptions& candidates = {});

/// The pre-planner scoring loop, kept verbatim as the ground-truth
/// reference: scores every candidate record through the record deque
/// and QueryStore::PopularityOf instead of the scoring columns. The planner
/// equality suite asserts KnnSearch == KnnSearchReference on every
/// probe; do not optimize this.
std::vector<Neighbor> KnnSearchReference(const storage::QueryStore& store,
                                         const std::string& viewer,
                                         const storage::QueryRecord& probe,
                                         size_t k,
                                         const SimilarityWeights& weights = {},
                                         const RankingOptions& ranking = {},
                                         const CandidateOptions& candidates = {});

/// Convenience: builds a transient probe record from SQL text (not
/// logged), then searches. Fails on unparsable text.
Result<std::vector<Neighbor>> KnnSearchText(const storage::QueryStore& store,
                                            const std::string& viewer,
                                            const std::string& sql_text, size_t k,
                                            const SimilarityWeights& weights = {},
                                            const RankingOptions& ranking = {},
                                            const CandidateOptions& candidates = {});

}  // namespace cqms::metaquery

#endif  // CQMS_METAQUERY_KNN_H_
