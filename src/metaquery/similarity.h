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
/// merge — the allocation-free kernel every signature measure shares.
/// Both-empty pairs score 1.0 (matching the string-set reference path).
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
/// meaningful while row.signature_valid(); callers fall back to the
/// record path otherwise. Invalidated by arena compaction and by any
/// mutation of the columns, like every other span the columns hand out.
SignatureView ViewOfStatement(const storage::ScoringColumns::StatementRow& row);

/// ViewOfStatement of the statement record `id` holds.
SignatureView ViewOfColumns(const storage::ScoringColumns& cols,
                            storage::QueryId id);

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

// --- signature fast path ---------------------------------------------------
// These overloads operate on the precomputed, interned SimilaritySignature
// and perform no allocations; they are the kNN / clustering inner loop.
// Scores are identical to the string-based reference overloads below
// (asserted to 1e-12 by similarity_signature_test).

/// Feature overlap on interned sorted vectors.
double FeatureSimilarity(const storage::SimilaritySignature& a,
                         const storage::SimilaritySignature& b);

/// Token overlap on interned sorted vectors.
double TextSimilarity(const storage::SimilaritySignature& a,
                      const storage::SimilaritySignature& b);

/// Output-sample overlap on sorted row hashes; -1 when unavailable.
double OutputSimilarity(const storage::SimilaritySignature& a,
                        const storage::SimilaritySignature& b);

// --- string-based reference path -------------------------------------------

/// Jaccard-style overlap of syntactic features: tables, predicate
/// skeletons, referenced attributes and projections. In [0, 1].
double FeatureSimilarity(const sql::QueryComponents& a, const sql::QueryComponents& b);

/// Token-set Jaccard over the query texts (cheap proxy for string
/// similarity; robust to formatting). In [0, 1].
double TextSimilarity(const storage::QueryRecord& a, const storage::QueryRecord& b);

/// Overlap of sampled output rows — the paper's "comparing queries as
/// black-boxes" (§4.1). Jaccard over row hashes of the stored samples.
/// Returns -1 when either side has no usable summary.
double OutputSimilarity(const storage::OutputSummary& a, const storage::OutputSummary& b);

/// Weighted combination; skips (and renormalizes away) measures that are
/// unavailable for this pair. In [0, 1]. Dispatches to the signature fast
/// path when both records carry a valid signature (always true for logged
/// and probe records), else falls back to CombinedSimilarityReference.
double CombinedSimilarity(const storage::QueryRecord& a, const storage::QueryRecord& b,
                          const SimilarityWeights& weights = {});

/// The string-based combination, kept as the ground-truth reference for
/// equivalence tests and for records without signatures.
double CombinedSimilarityReference(const storage::QueryRecord& a,
                                   const storage::QueryRecord& b,
                                   const SimilarityWeights& weights = {});

/// Structural distance in "number of edits" between two queries,
/// normalized to [0, 1] by the total component count. 0 = identical
/// structure. Used by the sessionizer.
double NormalizedEditDistance(const sql::QueryComponents& a,
                              const sql::QueryComponents& b);

}  // namespace cqms::metaquery

#endif  // CQMS_METAQUERY_SIMILARITY_H_
