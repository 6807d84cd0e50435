#ifndef CQMS_METAQUERY_KNN_H_
#define CQMS_METAQUERY_KNN_H_

#include <vector>

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

/// Which candidate generator the meta-query planner chose
/// (introspection/tests; the wire carries its value).
enum class CandidateGenerator {
  /// Intersection of Symbol-keyed posting lists (keyword / table /
  /// attribute / user predicates) — exact.
  kPostingIntersection,
  /// MinHash/LSH band buckets for a similarity probe — approximate.
  kLshBuckets,
  /// Union of the probe's table posting lists — exact.
  kTableUnion,
  /// Every record — the last resort.
  kFullScan,
};

/// Candidate statements for one probe, ascending; their records are the
/// candidate records (PostingIndex::RecordsOf). For a full scan,
/// `statements` is left empty and the caller walks every live
/// statement.
struct KnnCandidates {
  std::vector<storage::StatementId> statements;
  /// kLshBuckets, kTableUnion or kFullScan.
  CandidateGenerator source = CandidateGenerator::kFullScan;
  bool full_scan() const { return source == CandidateGenerator::kFullScan; }
};

/// Candidate generation for similarity probes: the meta-query planner's
/// similarity generator, which the reference kNN in the tests calls too,
/// so their candidate sets agree by construction. Large logs: LSH bucket
/// lookup over the probe's MinHash sketch — sub-linear and approximate:
/// neighbors below the banding's similarity threshold can be missed,
/// which the default banding accepts because query-log top-k is
/// dominated by near-duplicate re-renders (docs/lsh_tuning.md has the
/// recall knobs). Small logs (or LSH disabled): the exhaustive
/// table-index union over the probe signature's interned table Symbols.
/// Probes with no tables scan the whole log either way. The probe must
/// carry a computed signature, as BuildRecordFromText's records do.
KnnCandidates KnnCandidateIds(const storage::StoreView& store,
                              const storage::QueryRecord& probe,
                              const CandidateOptions& options);

}  // namespace cqms::metaquery

#endif  // CQMS_METAQUERY_KNN_H_
