#ifndef CQMS_MINER_CLUSTERING_H_
#define CQMS_MINER_CLUSTERING_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "metaquery/similarity.h"
#include "storage/query_store.h"

namespace cqms::miner {

/// A clustering of query ids. Cluster `i`'s representative (medoid) is
/// `medoids[i]` — the paper uses clusters to deduplicate meta-query
/// results and group recommendations (§4.3).
struct Clustering {
  std::vector<std::vector<storage::QueryId>> clusters;
  std::vector<storage::QueryId> medoids;

  size_t num_clusters() const { return clusters.size(); }

  /// Index of the cluster containing `id`, or -1. Binary search over
  /// the member index when built (the factories build it); falls back
  /// to a linear scan for hand-assembled clusterings.
  int ClusterOf(storage::QueryId id) const;

  /// (Re)builds the sorted id -> cluster index. Called by the clustering
  /// factories; call again after mutating `clusters` by hand.
  void BuildMemberIndex();

 private:
  std::vector<std::pair<storage::QueryId, int>> member_index_;
};

/// Dense pairwise distances over one clustering input subset, indexed
/// by *position* in the ids vector the subclass was built from. The
/// k-medoids and agglomerative passes consume this interface.
/// CachedDistanceMatrix is the implementation the miner uses; the tests
/// hold a from-scratch matrix it must equal bit for bit.
class DistanceSource {
 public:
  virtual ~DistanceSource() = default;
  DistanceSource(const DistanceSource&) = delete;
  DistanceSource& operator=(const DistanceSource&) = delete;

  double at(size_t i, size_t j) const { return data_[i * n_ + j]; }
  size_t size() const { return n_; }

 protected:
  DistanceSource() = default;

  size_t n_ = 0;
  std::vector<double> data_;
};

/// A dense matrix retained from the previous refresh together with the
/// window it was built over. Because the pair-scoring predicate is
/// pairwise (two sketches co-bucket iff a band's slots agree — no other
/// record matters), a pair of *unchanged* ids has exactly the same
/// distance in any later window built in the same enumeration mode, so
/// the next build bulk-copies those rows instead of re-scoring them.
/// Empty (no ids) until the first build, and after QueryMiner::RunAll
/// drops it.
struct RetainedMatrix {
  std::vector<storage::QueryId> ids;  ///< Ascending (log order).
  std::vector<double> data;           ///< ids.size()^2, row-major.
  bool pruned = false;                ///< Which enumeration mode built it.
};

/// The miner's distance matrix. Below `sketch_prune_min_points` every
/// pair is scored exactly (dense O(n^2) over the precomputed
/// signatures). At or above it, the records' MinHash sketches prune the
/// pair enumeration: only pairs sharing at least one LSH band bucket
/// are scored, and the rest are approximated by the maximal distance
/// 1.0 — a conservative overestimate that only touches pairs the
/// sketches already deem dissimilar, so threshold clustering and medoid
/// selection are virtually unaffected while the scored-pair count drops
/// from n^2 to near-linear on clustered logs. A pair whose endpoints
/// both survive unchanged from the retained previous matrix is
/// bulk-copied from it; every other enumerated pair is computed. With
/// no usable retained matrix every id is fresh and every enumerated
/// pair computes, which is the full build. On an append-heavy refresh
/// nearly everything copies, which is what turns the mining pass's
/// per-run O(n^2) similarity bill into O(delta * avg_bucket).
class CachedDistanceMatrix : public DistanceSource {
 public:
  struct BuildStats {
    size_t pairs_computed = 0;  ///< Pairs scored fresh this build.
    size_t pairs_copied = 0;    ///< Pairs bulk-copied from the retained matrix.
  };

  /// `previous` may be null, empty, or built in the other enumeration
  /// mode; none of it is then reused. `dirty` (sorted) lists ids whose
  /// signatures changed since `previous` was built — their pairs are
  /// never copied.
  CachedDistanceMatrix(const storage::QueryStore& store,
                       const std::vector<storage::QueryId>& ids,
                       const metaquery::SimilarityWeights& weights,
                       size_t sketch_prune_min_points,
                       const RetainedMatrix* previous,
                       const std::vector<storage::QueryId>& dirty);

  const BuildStats& build_stats() const { return stats_; }

  /// True when this build used the sketch-pruned enumeration.
  bool pruned() const { return pruned_; }

  /// Moves the dense data out for retention; the matrix is unusable
  /// afterwards.
  std::vector<double> TakeData() { return std::move(data_); }

 private:
  BuildStats stats_;
  bool pruned_ = false;
};

struct KMedoidsOptions {
  size_t k = 8;
  int max_iterations = 20;
  uint64_t seed = 42;
  metaquery::SimilarityWeights weights;
  /// From this many points on, the distance matrix scores only pairs
  /// whose MinHash sketches share an LSH band bucket; the rest are
  /// approximated as maximally distant (see CachedDistanceMatrix). 0
  /// disables pruning. Small inputs stay exact either way.
  size_t sketch_prune_min_points = 512;
};

/// Partitions `ids` into k clusters by k-medoids (PAM-style alternation)
/// over the given distances (dist.size() must equal ids.size()).
/// Deterministic for a seed. Requires ids.size() >= 1; k is clamped to
/// ids.size().
Clustering KMedoidsFromDistances(const DistanceSource& dist,
                                 const std::vector<storage::QueryId>& ids,
                                 const KMedoidsOptions& options);

}  // namespace cqms::miner

#endif  // CQMS_MINER_CLUSTERING_H_
