#ifndef CQMS_STORAGE_MINHASH_H_
#define CQMS_STORAGE_MINHASH_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cqms::storage {

struct SimilaritySignature;

/// MinHash sketch of one record's similarity-relevant token sets: a
/// fixed-width vector of permutation minima over the record's sketch
/// elements (see SketchElements). Two sketches estimate the Jaccard
/// similarity of the underlying element sets as the fraction of matching
/// slots — O(kSize) with no allocations, independent of set sizes.
/// A pure function of the signature, so records do not store it: the
/// LshIndex (insert/remove), the kNN probe and the clustering pair
/// pruning compute it where they use it. The LshIndex buckets band-wise
/// slices of it for sub-linear candidate generation.
struct MinHashSketch {
  /// Number of permutations. 64 gives a standard error of
  /// sqrt(J(1-J)/64) <= 0.0625 on the Jaccard estimate and divides
  /// evenly into every banding scheme the LshIndex supports.
  static constexpr size_t kSize = 64;
  /// Slot value when the element set is empty (no element ever hashes
  /// to it in practice, so two empty sets estimate Jaccard 1.0 —
  /// matching the SortedJaccard both-empty convention).
  static constexpr uint64_t kEmptySlot = ~0ULL;

  std::array<uint64_t, kSize> mins;
  bool valid = false;  ///< Set once computed from a valid signature.

  MinHashSketch() { mins.fill(kEmptySlot); }

  /// True when the sketch was computed over zero elements. Such records
  /// (e.g. an unparsable query whose every token is a SQL keyword) are
  /// not indexable: bucketing them would collide every empty record
  /// into one mega-bucket per band.
  bool empty() const { return mins[0] == kEmptySlot; }
};

/// The 64-bit element hashes the sketch summarizes, sorted and
/// deduplicated: every Symbol of the signature's tables, predicate
/// skeletons, attributes, projections and text tokens, salted per field
/// so equal Symbols in different fields stay distinct elements. SQL
/// reserved keywords are excluded from the text tokens — they appear in
/// virtually every query and would otherwise push the Jaccard of
/// unrelated queries high enough to defeat LSH banding. Output-row
/// hashes are deliberately not elements: probes carry no output, and
/// stats refresh may replace summaries without re-bucketing records.
///
/// The exact SortedJaccard over two records' element vectors is the
/// quantity EstimateJaccard approximates (the property test asserts the
/// convergence).
std::vector<uint64_t> SketchElements(const SimilaritySignature& signature);

/// Computes the sketch of `signature`. Permutations are derived from
/// each element hash by Kirsch-Mitzenmacher double hashing (two mixes
/// per element, then k multiply-adds), so cost is O(elements * kSize)
/// with small constants. Deterministic across platforms and runs. An
/// invalid (never computed) signature yields an invalid sketch, which
/// the LshIndex ignores.
MinHashSketch ComputeMinHashSketch(const SimilaritySignature& signature);

/// Fraction of matching slots — an unbiased estimate of the Jaccard
/// similarity of the two element sets. Both inputs must be valid.
double EstimateJaccard(const MinHashSketch& a, const MinHashSketch& b);

}  // namespace cqms::storage

#endif  // CQMS_STORAGE_MINHASH_H_
