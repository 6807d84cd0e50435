#ifndef CQMS_STORAGE_LSH_INDEX_H_
#define CQMS_STORAGE_LSH_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "storage/minhash.h"
#include "storage/query_record.h"

namespace cqms::storage {

/// Banding scheme of the LshIndex — the recall/cost knob. The sketch's
/// kSize slots are cut into `bands` groups of `rows` consecutive slots;
/// two records land in the same bucket of band i iff their sketches
/// agree on all `rows` slots of that band, so a pair with element-set
/// Jaccard J collides in at least one band with probability
///   1 - (1 - J^rows)^bands.
/// More bands / fewer rows shifts the s-curve left (higher recall, more
/// candidates); see docs/lsh_tuning.md for the measured tradeoff table.
/// The default 8x8 centers the s-curve at J ~= 0.77: exact and
/// near-exact duplicates (which dominate the top-k on query-log
/// workloads — sessions re-render the same template text) always
/// collide, while the long tail of mid-similarity template variants is
/// pruned. Recall-critical callers should widen to e.g. {16, 4}
/// (s-curve midpoint ~0.5) at ~3x the candidate volume.
struct LshParams {
  size_t bands = 8;
  size_t rows = 8;
};

/// Candidate-dedup scratch for LshIndex::Candidates: an epoch-stamped
/// id table (seen[id] == epoch marks ids already emitted by the current
/// probe) that avoids zeroing or allocating an O(statements) bitmap per
/// call. The scratch used to live as `mutable` state inside the index,
/// which made the `const` Candidates call write shared memory — a data
/// race the moment two readers probe the same (or a published-view copy
/// of the) index. It is now owned by the prober: pass one explicitly to
/// reuse it across calls, or pass nullptr to use a per-thread scratch
/// (each thread keeps one, shared safely across every index it probes —
/// the epoch stamping makes stale entries from other indexes inert).
class LshProbeScratch {
 public:
  LshProbeScratch() = default;

 private:
  friend class LshIndex;
  std::vector<uint64_t> seen_epoch_;
  uint64_t epoch_ = 0;
};

/// Locality-sensitive index over MinHash sketches: per band, a hash map
/// from the band's slot values to the sorted posting list of statement
/// ids whose sketch matches them. Every record of a statement has the
/// statement's sketch, so QueryStore indexes each live statement once
/// (when it gains its first record) and removes it when its last record
/// moves off, with the same stale-entry purge discipline as the
/// table/attribute/keyword indexes.
///
/// Empty sketches (statements with zero sketch elements) are not
/// indexed — they carry no locality signal and would collide with every
/// other empty one.
///
/// Thread model: all const methods (Candidates included) are safe to
/// call from any number of concurrent readers — the index holds no
/// mutable scratch. Insert/Remove are writer-side only.
class LshIndex {
 public:
  explicit LshIndex(LshParams params = {});

  /// Pre-sizes every band's bucket map for about `statements` indexed
  /// sketches (bulk snapshot restore).
  void Reserve(size_t statements);

  /// Adds `id` under every band bucket of `sketch`. No-op for invalid
  /// or empty sketches.
  void Insert(StatementId id, const MinHashSketch& sketch);

  /// Removes `id` from every band bucket of `sketch` (which must be the
  /// sketch it was inserted under). Empties are pruned so released
  /// statements leave no tombstone buckets behind.
  void Remove(StatementId id, const MinHashSketch& sketch);

  /// Sorted, deduplicated statement ids sharing at least one band
  /// bucket with `sketch`. `probe_bands` limits the lookup to the first N bands
  /// (0 = all) — fewer bands is faster but lowers recall. `scratch` is
  /// the caller's dedup table; nullptr uses this thread's scratch.
  std::vector<StatementId> Candidates(const MinHashSketch& sketch,
                                      size_t probe_bands = 0,
                                      LshProbeScratch* scratch = nullptr) const;

  size_t bands() const { return params_.bands; }
  size_t rows() const { return params_.rows; }

  /// Total postings across all buckets. An indexed statement
  /// contributes exactly bands() postings, so this equals bands() *
  /// indexed-statement count whenever the index is consistent — the
  /// lifecycle tests assert on it.
  size_t entry_count() const;

  /// True when `id` is present in the bucket of *every* band of
  /// `sketch` exactly once — i.e. the statement is indexed under this
  /// sketch with no duplicates (test/debug helper).
  bool ContainsExactlyOnce(StatementId id, const MinHashSketch& sketch) const;

 private:
  uint64_t BandKey(const MinHashSketch& sketch, size_t band) const;

  LshParams params_;
  /// One bucket map per band.
  std::vector<std::unordered_map<uint64_t, std::vector<StatementId>>> buckets_;
  /// Exclusive upper bound on inserted ids, sizing the dedup scratch in
  /// Candidates.
  size_t id_bound_ = 0;
};

}  // namespace cqms::storage

#endif  // CQMS_STORAGE_LSH_INDEX_H_
