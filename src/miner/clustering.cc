#include "miner/clustering.h"

#include <algorithm>
#include <limits>

#include "common/rng.h"
#include "common/sorted_vector.h"
#include "storage/minhash.h"

namespace cqms::miner {

namespace {

/// The local wide-banded LshIndex of the pruned pair enumeration (32x2:
/// s-curve midpoint ~0.18 — a missed pair silently inflates a distance
/// to 1.0, so pruning must only drop pairs nowhere near any clustering
/// threshold), keyed by position in `records`. Each record's sketch is
/// derived from its signature once per matrix build; the returned
/// vector holds them for the candidate probes.
std::vector<storage::MinHashSketch> BuildPruningIndex(
    const std::vector<const storage::QueryRecord*>& records,
    storage::LshIndex* local) {
  std::vector<storage::MinHashSketch> sketches;
  sketches.reserve(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    sketches.push_back(
        storage::ComputeMinHashSketch(records[i]->statement().signature));
    local->Insert(static_cast<storage::QueryId>(i), sketches.back());
  }
  return sketches;
}

std::vector<const storage::QueryRecord*> ResolveRecords(
    const storage::QueryStore& store,
    const std::vector<storage::QueryId>& ids) {
  std::vector<const storage::QueryRecord*> records(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) records[i] = store.Get(ids[i]);
  return records;
}

/// Pair scorer of the cached matrix: reads signatures from the scoring
/// columns' shared arenas (contiguous — no per-record vector chasing in
/// the hot loop), and a row the columns mark invalid (its runs
/// overflowed them) from its record's signature. Both are views of the
/// same data through the one similarity kernel.
class ColumnarPairScorer {
 public:
  ColumnarPairScorer(const storage::QueryStore& store,
                     const std::vector<storage::QueryId>& ids,
                     const std::vector<const storage::QueryRecord*>& records,
                     const metaquery::SimilarityWeights& weights)
      : weights_(weights) {
    const storage::ScoringColumns& cols = store.scoring();
    views_.reserve(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      views_.push_back(cols.signature_valid(ids[i])
                           ? metaquery::ViewOfStatement(cols.row_of(ids[i]))
                           : metaquery::ViewOfSignature(*records[i]));
    }
  }

  double Distance(size_t i, size_t j) const {
    return 1.0 - metaquery::CombinedSimilarity(views_[i], views_[j], weights_);
  }

 private:
  metaquery::SimilarityWeights weights_;
  std::vector<metaquery::SignatureView> views_;
};

}  // namespace

CachedDistanceMatrix::CachedDistanceMatrix(
    const storage::QueryStore& store, const std::vector<storage::QueryId>& ids,
    const metaquery::SimilarityWeights& weights, size_t sketch_prune_min_points,
    const RetainedMatrix* previous,
    const std::vector<storage::QueryId>& dirty) {
  n_ = ids.size();
  pruned_ = !(sketch_prune_min_points == 0 || n_ < sketch_prune_min_points);
  // The retained matrix is only a shortcut for pairs both builds score
  // the same way: same enumeration mode, endpoints unchanged. A matrix
  // built in the other mode contributes nothing.
  const size_t m = previous != nullptr && previous->pruned == pruned_
                       ? previous->ids.size()
                       : 0;

  // Position map: new index -> previous index for clean survivors, -1
  // for fresh or dirty ids. Both windows are ascending, so one merge
  // suffices; `dirty` is sorted for the same reason.
  std::vector<int32_t> old_of(n_, -1);
  {
    size_t j = 0, d = 0;
    for (size_t i = 0; i < n_; ++i) {
      while (j < m && previous->ids[j] < ids[i]) ++j;
      while (d < dirty.size() && dirty[d] < ids[i]) ++d;
      bool is_dirty = d < dirty.size() && dirty[d] == ids[i];
      if (j < m && previous->ids[j] == ids[i] && !is_dirty) {
        old_of[i] = static_cast<int32_t>(j);
      }
    }
  }

  auto records = ResolveRecords(store, ids);
  if (pruned_) {
    data_.assign(n_ * n_, 1.0);
    for (size_t i = 0; i < n_; ++i) data_[i * n_ + i] = 0.0;
  } else {
    data_.assign(n_ * n_, 0.0);
  }

  // Bulk-copy the clean-survivor submatrix row-wise.
  std::vector<std::pair<uint32_t, uint32_t>> mapped;  // (new j, old j)
  mapped.reserve(n_);
  for (size_t j = 0; j < n_; ++j) {
    if (old_of[j] >= 0) mapped.emplace_back(j, old_of[j]);
  }
  for (size_t i = 0; i < n_; ++i) {
    if (old_of[i] < 0) continue;
    const double* src = previous->data.data() + static_cast<size_t>(old_of[i]) * m;
    double* dst = data_.data() + i * n_;
    for (const auto& [nj, oj] : mapped) dst[nj] = src[oj];
  }
  stats_.pairs_copied =
      mapped.empty() ? 0 : mapped.size() * (mapped.size() - 1) / 2;

  // Score every pair touching a fresh/dirty id: the (fresh, clean)
  // pairs once from the fresh side, the (fresh, fresh) pairs deduped by
  // index order. The enumeration predicate depends only on the records'
  // current signatures, so the scored-pair set — and with the shared
  // kernel the values — match a from-scratch matrix bit for bit. With
  // nothing retained every id is fresh, and this visits exactly the
  // (i, j > i) pairs the enumeration admits.
  ColumnarPairScorer scorer(store, ids, records, weights);
  auto score_pair = [&](size_t i, size_t j) {
    double d = scorer.Distance(i, j);
    ++stats_.pairs_computed;
    data_[i * n_ + j] = d;
    data_[j * n_ + i] = d;
  };
  if (pruned_) {
    storage::LshIndex local({/*bands=*/32, /*rows=*/2});
    std::vector<storage::MinHashSketch> sketches =
        BuildPruningIndex(records, &local);
    for (size_t i = 0; i < n_; ++i) {
      if (old_of[i] >= 0) continue;
      for (storage::QueryId cand : local.Candidates(sketches[i])) {
        size_t j = static_cast<size_t>(cand);
        if (j == i) continue;
        if (old_of[j] < 0 && j < i) continue;  // fresh-fresh: score once
        score_pair(i, j);
      }
    }
  } else {
    for (size_t i = 0; i < n_; ++i) {
      if (old_of[i] >= 0) continue;
      for (size_t j = 0; j < n_; ++j) {
        if (j == i) continue;
        if (old_of[j] < 0 && j < i) continue;
        score_pair(i, j);
      }
    }
  }
}

int Clustering::ClusterOf(storage::QueryId id) const {
  if (!member_index_.empty()) {
    auto it = std::lower_bound(
        member_index_.begin(), member_index_.end(),
        std::make_pair(id, std::numeric_limits<int>::min()));
    if (it != member_index_.end() && it->first == id) return it->second;
    return -1;
  }
  for (size_t i = 0; i < clusters.size(); ++i) {
    for (storage::QueryId q : clusters[i]) {
      if (q == id) return static_cast<int>(i);
    }
  }
  return -1;
}

void Clustering::BuildMemberIndex() {
  member_index_.clear();
  size_t total = 0;
  for (const auto& c : clusters) total += c.size();
  member_index_.reserve(total);
  for (size_t i = 0; i < clusters.size(); ++i) {
    for (storage::QueryId q : clusters[i]) {
      member_index_.emplace_back(q, static_cast<int>(i));
    }
  }
  std::sort(member_index_.begin(), member_index_.end());
}

Clustering KMedoidsFromDistances(const DistanceSource& dist,
                                 const std::vector<storage::QueryId>& ids,
                                 const KMedoidsOptions& options) {
  Clustering out;
  if (ids.empty()) return out;
  const size_t n = ids.size();
  const size_t k = std::min(options.k == 0 ? 1 : options.k, n);

  // Seed medoids: shuffle indices deterministically, take the first k.
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  Rng rng(options.seed);
  for (size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.Uniform(i)]);
  }
  std::vector<size_t> medoids(perm.begin(), perm.begin() + k);

  std::vector<size_t> assignment(n, 0);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // Assign each point to its nearest medoid.
    bool changed = false;
    for (size_t i = 0; i < n; ++i) {
      size_t best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      for (size_t m = 0; m < k; ++m) {
        double d = dist.at(i, medoids[m]);
        if (d < best_d) {
          best_d = d;
          best = m;
        }
      }
      if (assignment[i] != best) {
        assignment[i] = best;
        changed = true;
      }
    }
    // Update: medoid = member minimizing total intra-cluster distance.
    // Materializing member lists first turns the scan from k * n^2
    // skip-checks into sum(|cluster|^2) distance reads; members stay in
    // ascending index order, so the floating-point summation order —
    // and the tie-broken medoid choice — match the naive loop exactly.
    std::vector<std::vector<size_t>> members(k);
    for (size_t i = 0; i < n; ++i) members[assignment[i]].push_back(i);
    for (size_t m = 0; m < k; ++m) {
      double best_total = std::numeric_limits<double>::infinity();
      size_t best_idx = medoids[m];
      for (size_t i : members[m]) {
        double total = 0;
        for (size_t j : members[m]) total += dist.at(i, j);
        if (total < best_total) {
          best_total = total;
          best_idx = i;
        }
      }
      if (medoids[m] != best_idx) {
        medoids[m] = best_idx;
        changed = true;
      }
    }
    if (!changed) break;
  }

  out.clusters.assign(k, {});
  out.medoids.assign(k, storage::kInvalidQueryId);
  for (size_t m = 0; m < k; ++m) out.medoids[m] = ids[medoids[m]];
  for (size_t i = 0; i < n; ++i) out.clusters[assignment[i]].push_back(ids[i]);
  // Drop empty clusters (possible when duplicate points collapse).
  for (size_t m = out.clusters.size(); m > 0; --m) {
    if (out.clusters[m - 1].empty()) {
      out.clusters.erase(out.clusters.begin() + (m - 1));
      out.medoids.erase(out.medoids.begin() + (m - 1));
    }
  }
  out.BuildMemberIndex();
  return out;
}

}  // namespace cqms::miner
