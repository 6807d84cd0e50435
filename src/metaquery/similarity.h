#ifndef CQMS_METAQUERY_SIMILARITY_H_
#define CQMS_METAQUERY_SIMILARITY_H_

#include "storage/query_record.h"
#include "storage/scoring_columns.h"

namespace cqms::metaquery {

/// Mixing weights for the composite similarity. The paper (§2.3) notes
/// "query similarity could be defined in terms of query parse trees,
/// features, or output data" and asks how to combine them; this struct is
/// that combination knob. Weights are renormalized over the measures that
/// are actually computable for a pair (e.g. output similarity needs both
/// queries to carry output summaries).
struct SimilarityWeights {
  double feature = 0.6;  ///< Syntactic feature overlap.
  double text = 0.2;     ///< Token-level text overlap.
  double output = 0.2;   ///< Output-sample overlap (semantic, black-box).
};

/// Jaccard over two sorted, deduplicated runs given as pointer + length —
/// the kernel SortedJaccard and the columnar scoring path share, so both
/// compile to the identical instruction sequence and produce bit-identical
/// scores regardless of where the runs live (signature vectors or the
/// ScoringColumns arena).
template <typename T>
double SpanJaccard(const T* a, size_t na, const T* b, size_t nb) {
  if (na == 0 && nb == 0) return 1.0;
  size_t i = 0, j = 0, inter = 0;
  while (i < na && j < nb) {
    if (a[i] == b[j]) {
      ++inter;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  size_t uni = na + nb - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

/// Jaccard over two sorted, deduplicated vectors via a single linear
/// merge. Both-empty pairs score 1.0.
template <typename T>
double SortedJaccard(const std::vector<T>& a, const std::vector<T>& b) {
  return SpanJaccard(a.data(), a.size(), b.data(), b.size());
}

/// A borrowed, layout-agnostic view of one record's similarity features:
/// pointers into either a SimilaritySignature's vectors or the scoring
/// columns' arenas. All similarity measures are defined over views, so the
/// record-based and columnar paths are literally the same code.
struct SignatureView {
  const Symbol* tables = nullptr;
  size_t n_tables = 0;
  const Symbol* skeletons = nullptr;
  size_t n_skeletons = 0;
  const Symbol* attributes = nullptr;
  size_t n_attributes = 0;
  const Symbol* projections = nullptr;
  size_t n_projections = 0;
  const Symbol* tokens = nullptr;
  size_t n_tokens = 0;
  const uint64_t* output_rows = nullptr;
  size_t n_output = 0;
  bool output_empty_computed = false;
  /// Feature measures apply only when the query parsed.
  bool parsed = false;
};

/// View over a record's precomputed signature. The record must outlive
/// the view (pointers borrow its vectors).
SignatureView ViewOfSignature(const storage::QueryRecord& record);

/// View of one statement's row in the scoring columns — same shape,
/// different backing memory (the shared arenas), identical scores. Only
/// meaningful while row.signature_valid(); for a row whose runs
/// overflowed the columns, callers read ViewOfSignature of one of its
/// records instead. Invalidated by arena compaction and by any mutation
/// of the columns, like every other span the columns hand out.
SignatureView ViewOfStatement(const storage::ScoringColumns::StatementRow& row);

/// Feature overlap (tables, predicate skeletons, attributes, projections).
double FeatureSimilarity(const SignatureView& a, const SignatureView& b);

/// Token overlap.
double TextSimilarity(const SignatureView& a, const SignatureView& b);

/// Output-sample overlap on sorted row hashes; -1 when unavailable.
double OutputSimilarity(const SignatureView& a, const SignatureView& b);

/// Weighted combination over views — the one scoring kernel behind
/// CombinedSimilarity and the meta-query planner's columnar loop.
double CombinedSimilarity(const SignatureView& a, const SignatureView& b,
                          const SimilarityWeights& weights);

/// Weighted combination for two records, in [0, 1]: the view kernel
/// over ViewOfSignature of each. Every stored record and every probe
/// BuildRecordFromText makes carries a computed signature.
double CombinedSimilarity(const storage::QueryRecord& a, const storage::QueryRecord& b,
                          const SimilarityWeights& weights = {});

/// Structural distance in "number of edits" between two queries,
/// normalized to [0, 1] by the total component count. 0 = identical
/// structure. Used by the sessionizer.
double NormalizedEditDistance(const sql::QueryComponents& a,
                              const sql::QueryComponents& b);

}  // namespace cqms::metaquery

#endif  // CQMS_METAQUERY_SIMILARITY_H_
