#ifndef CQMS_TESTS_METAQUERY_REFERENCE_H_
#define CQMS_TESTS_METAQUERY_REFERENCE_H_

// Reference implementations for the meta-query planner and the miner's
// distance matrix. The library ships one search path, the planner
// (MetaQueryRequest through MetaQueryExecutor::Execute or Cqms::Search);
// these are the searches it replaced, one per meta-query class, kept
// record at a time, plus the string-based similarity measures the
// interned signatures replaced, a distance matrix scored from scratch
// and the clusterings over it. The tests compare the shipped paths
// against them, and the benches time some of them as baselines. Do not
// optimize them.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "metaquery/feature_query.h"
#include "metaquery/knn.h"
#include "metaquery/meta_query_request.h"
#include "metaquery/parse_tree_query.h"
#include "metaquery/query_by_data.h"
#include "metaquery/similarity.h"
#include "miner/clustering.h"
#include "storage/lsh_index.h"
#include "storage/minhash.h"
#include "storage/query_store.h"

namespace cqms::metaquery {

/// The request the class 1-3 references below answer: ascending ids,
/// with flagged records kept. The planner must give each reference's
/// answer to its request.
inline MetaQueryRequest LogOrderRequest() {
  MetaQueryRequest request;
  request.InLogOrder();
  request.ranking.exclude_flagged = false;
  return request;
}

// --- class 1: keyword and substring ----------------------------------------

/// Keyword search (§2.2) over the store's inverted index; with
/// `match_all` every word must appear. Visible ids in log order.
inline std::vector<storage::QueryId> KeywordSearch(
    const storage::QueryStore& store, const std::string& viewer,
    const std::string& words, bool match_all = true) {
  std::vector<std::string> tokens = ExtractWords(words);
  std::vector<storage::QueryId> out;
  if (tokens.empty()) return out;

  if (match_all) {
    // Intersect posting lists, smallest first.
    std::vector<std::vector<storage::QueryId>> lists;
    lists.reserve(tokens.size());
    for (const std::string& t : tokens) {
      lists.push_back(store.QueriesWithKeyword(t));
      if (lists.back().empty()) return out;
    }
    std::sort(lists.begin(), lists.end(),
              [](const auto& a, const auto& b) { return a.size() < b.size(); });
    std::vector<storage::QueryId> current = std::move(lists[0]);
    for (size_t i = 1; i < lists.size() && !current.empty(); ++i) {
      std::vector<storage::QueryId> next;
      // Record-id lookups are in ascending id order.
      std::set_intersection(current.begin(), current.end(), lists[i].begin(),
                            lists[i].end(), std::back_inserter(next));
      current = std::move(next);
    }
    for (storage::QueryId id : current) {
      if (store.Visible(viewer, id)) out.push_back(id);
    }
    return out;
  }

  // match-any: union.
  std::vector<storage::QueryId> merged;
  for (const std::string& t : tokens) {
    std::vector<storage::QueryId> ids = store.QueriesWithKeyword(t);
    merged.insert(merged.end(), ids.begin(), ids.end());
  }
  std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  for (storage::QueryId id : merged) {
    if (store.Visible(viewer, id)) out.push_back(id);
  }
  return out;
}

/// Case-insensitive substring scan over each record's lowered text, as
/// the scoring columns memoize it.
inline std::vector<storage::QueryId> SubstringSearch(
    const storage::QueryStore& store, const std::string& viewer,
    const std::string& needle) {
  std::vector<storage::QueryId> out;
  if (needle.empty()) return out;
  const std::string lowered = ToLower(needle);
  const storage::ScoringColumns& cols = store.scoring();
  for (const storage::QueryRecord& r : store.records()) {
    if (!store.Visible(viewer, r.id)) continue;
    if (cols.row_of(r.id).lowered_text().find(lowered) !=
        std::string_view::npos) {
      out.push_back(r.id);
    }
  }
  return out;
}

// --- class 2: features and structure ----------------------------------------

/// `query` evaluated against the store: visible ids in log order. The
/// table, attribute, predicate and user conditions intersect record
/// posting lists; FeatureQuery::MatchesRecord filters the rest.
inline std::vector<storage::QueryId> EvaluateFeatureQuery(
    const FeatureQuery& query, const storage::QueryStore& store,
    const std::string& viewer) {
  std::vector<std::vector<storage::QueryId>> lists;
  for (const std::string& t : query.tables()) {
    lists.push_back(store.QueriesUsingTable(t));
  }
  for (const auto& [rel, attr] : query.attributes()) {
    lists.push_back(store.QueriesUsingAttribute(rel, attr));
  }
  for (const auto& p : query.predicates()) {
    lists.push_back(store.QueriesUsingAttribute(p.relation, p.attribute));
  }
  if (query.user().has_value()) {
    lists.push_back(store.QueriesByUser(*query.user()));
  }

  std::vector<storage::QueryId> candidates;
  if (lists.empty()) {
    candidates.reserve(store.size());
    for (const auto& r : store.records()) candidates.push_back(r.id);
  } else {
    std::sort(lists.begin(), lists.end(),
              [](const auto& a, const auto& b) { return a.size() < b.size(); });
    candidates = std::move(lists[0]);
    for (size_t i = 1; i < lists.size() && !candidates.empty(); ++i) {
      std::vector<storage::QueryId> next;
      std::set_intersection(candidates.begin(), candidates.end(),
                            lists[i].begin(), lists[i].end(),
                            std::back_inserter(next));
      candidates = std::move(next);
    }
  }

  std::vector<storage::QueryId> out;
  for (storage::QueryId id : candidates) {
    if (!store.Visible(viewer, id)) continue;
    const storage::QueryRecord* r = store.Get(id);
    if (r == nullptr) continue;
    if (query.MatchesRecord(*r)) out.push_back(id);
  }
  return out;
}

/// Visible queries matching `pattern`, in log order; the rarest required
/// table prunes the candidates.
inline std::vector<storage::QueryId> StructuralSearch(
    const storage::QueryStore& store, const std::string& viewer,
    const StructuralPattern& pattern) {
  std::vector<storage::QueryId> out;
  if (!pattern.required_tables.empty()) {
    std::vector<storage::QueryId> smallest;
    for (size_t i = 0; i < pattern.required_tables.size(); ++i) {
      std::vector<storage::QueryId> ids =
          store.QueriesUsingTable(pattern.required_tables[i]);
      if (i == 0 || ids.size() < smallest.size()) smallest = std::move(ids);
    }
    for (storage::QueryId id : smallest) {
      const storage::QueryRecord* r = store.Get(id);
      if (r != nullptr && store.Visible(viewer, id) &&
          MatchesPattern(*r, pattern)) {
        out.push_back(id);
      }
    }
    return out;
  }
  for (const storage::QueryRecord& r : store.records()) {
    if (store.Visible(viewer, r.id) && MatchesPattern(r, pattern)) {
      out.push_back(r.id);
    }
  }
  return out;
}

// --- class 3: output conditions ---------------------------------------------

/// Visible queries whose output satisfies every example, in log order.
inline std::vector<storage::QueryId> QueryByData(
    const storage::QueryStore& store, const std::string& viewer,
    const std::vector<DataExample>& examples,
    const QueryByDataOptions& options = {}) {
  std::vector<storage::QueryId> out;
  for (const storage::QueryRecord& r : store.records()) {
    if (!store.Visible(viewer, r.id)) continue;
    if (RecordSatisfiesDataExamples(r, examples, options)) out.push_back(r.id);
  }
  return out;
}

// --- string-based similarity ------------------------------------------------

namespace reference_detail {

inline double Jaccard(const std::set<std::string>& a,
                      const std::set<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  size_t inter = 0;
  const auto& small = a.size() <= b.size() ? a : b;
  const auto& large = a.size() <= b.size() ? b : a;
  for (const auto& x : small) {
    if (large.count(x) > 0) ++inter;
  }
  size_t uni = a.size() + b.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

inline std::set<std::string> PredicateSkeletons(const sql::QueryComponents& c) {
  std::set<std::string> out;
  for (const auto& p : c.predicates) out.insert(p.Skeleton());
  return out;
}

inline std::set<std::string> AttributeSet(const sql::QueryComponents& c) {
  std::set<std::string> out;
  for (const auto& [rel, attr] : c.attributes) out.insert(rel + "." + attr);
  return out;
}

}  // namespace reference_detail

/// Jaccard-style overlap of syntactic features: tables, predicate
/// skeletons, referenced attributes and projections. In [0, 1].
inline double FeatureSimilarity(const sql::QueryComponents& a,
                                const sql::QueryComponents& b) {
  using reference_detail::Jaccard;
  std::set<std::string> ta(a.tables.begin(), a.tables.end());
  std::set<std::string> tb(b.tables.begin(), b.tables.end());
  std::set<std::string> pa(a.projections.begin(), a.projections.end());
  std::set<std::string> pb(b.projections.begin(), b.projections.end());
  double tables = Jaccard(ta, tb);
  double preds = Jaccard(reference_detail::PredicateSkeletons(a),
                         reference_detail::PredicateSkeletons(b));
  double attrs = Jaccard(reference_detail::AttributeSet(a),
                         reference_detail::AttributeSet(b));
  double projs = Jaccard(pa, pb);
  return 0.35 * tables + 0.30 * preds + 0.20 * attrs + 0.15 * projs;
}

/// Token-set Jaccard over the query texts. In [0, 1].
inline double TextSimilarity(const storage::QueryRecord& a,
                             const storage::QueryRecord& b) {
  auto wa = ExtractWords(a.text);
  auto wb = ExtractWords(b.text);
  return reference_detail::Jaccard(std::set<std::string>(wa.begin(), wa.end()),
                                   std::set<std::string>(wb.begin(), wb.end()));
}

/// Overlap of sampled output rows — the paper's "comparing queries as
/// black-boxes" (§4.1). Jaccard over the printed sample rows; -1 when
/// either side has no usable summary.
inline double OutputSimilarity(const storage::OutputSummary& a,
                               const storage::OutputSummary& b) {
  if (a.sample_rows.empty() && b.sample_rows.empty()) {
    // Two empty outputs are trivially identical if both were computed.
    if (a.total_rows == 0 && b.total_rows == 0 && !a.column_names.empty() &&
        !b.column_names.empty()) {
      return 1.0;
    }
    return -1.0;
  }
  if (a.sample_rows.empty() || b.sample_rows.empty()) return -1.0;
  std::set<std::string> ha, hb;
  for (const db::Row& r : a.sample_rows) ha.insert(db::RowToString(r));
  for (const db::Row& r : b.sample_rows) hb.insert(db::RowToString(r));
  return reference_detail::Jaccard(ha, hb);
}

/// The string-based weighted combination: skips (and renormalizes away)
/// the measures a pair lacks. CombinedSimilarity must agree with it to
/// 1e-12.
inline double CombinedSimilarityReference(const storage::QueryRecord& a,
                                          const storage::QueryRecord& b,
                                          const SimilarityWeights& weights = {}) {
  double total_weight = 0;
  double total = 0;
  if (!a.parse_failed() && !b.parse_failed() && weights.feature > 0) {
    total += weights.feature * FeatureSimilarity(a.components, b.components);
    total_weight += weights.feature;
  }
  if (weights.text > 0) {
    total += weights.text * TextSimilarity(a, b);
    total_weight += weights.text;
  }
  if (weights.output > 0) {
    double out_sim = OutputSimilarity(a.summary, b.summary);
    if (out_sim >= 0) {
      total += weights.output * out_sim;
      total_weight += weights.output;
    }
  }
  return total_weight == 0 ? 0 : total / total_weight;
}

// --- class 4: kNN -----------------------------------------------------------

/// The request KnnSearchReference answers under the default
/// RankingOptions: the top `k` matches for `probe`, which must outlive
/// the request.
inline MetaQueryRequest KnnRequest(const storage::QueryRecord& probe, size_t k,
                                   const SimilarityWeights& weights = {},
                                   const CandidateOptions& candidates = {}) {
  MetaQueryRequest request;
  request.SimilarTo(probe, weights, candidates).Limit(k);
  return request;
}
MetaQueryRequest KnnRequest(storage::QueryRecord&& probe, size_t k,
                            const SimilarityWeights& weights = {},
                            const CandidateOptions& candidates = {}) = delete;

/// The pre-planner kNN scoring loop: the planner's candidates
/// (KnnCandidateIds), each record scored through the record log and
/// QueryStore::PopularityOf instead of the scoring columns, top `k` by
/// score with ties broken by ascending id.
inline std::vector<MetaQueryMatch> KnnSearchReference(
    const storage::QueryStore& store, const std::string& viewer,
    const storage::QueryRecord& probe, size_t k,
    const SimilarityWeights& weights = {}, const RankingOptions& ranking = {},
    const CandidateOptions& candidate_options = {}) {
  KnnCandidates generated =
      KnnCandidateIds(storage::StoreView(store), probe, candidate_options);
  std::vector<storage::QueryId> candidates =
      store.postings().RecordsOf(generated.statements);
  if (generated.full_scan()) {
    candidates.resize(store.size());
    std::iota(candidates.begin(), candidates.end(), storage::QueryId{0});
  }

  Micros max_ts = std::max<Micros>(1, store.max_timestamp());
  double inv_log_size =
      1.0 / std::log1p(static_cast<double>(store.size()) + 1.0);

  storage::VisibilityCache& visibility = store.CacheFor(viewer);
  std::vector<MetaQueryMatch> scored;
  scored.reserve(candidates.size());
  for (storage::QueryId id : candidates) {
    const storage::QueryRecord* r = store.Get(id);
    if (r == nullptr || !visibility.Visible(*r)) continue;
    if (ranking.exclude_flagged &&
        (r->HasFlag(storage::kFlagSchemaBroken) ||
         r->HasFlag(storage::kFlagObsolete))) {
      continue;
    }
    double sim = CombinedSimilarity(probe, *r, weights);
    if (sim < ranking.min_similarity) continue;

    double popularity =
        std::log1p(static_cast<double>(store.PopularityOf(r->fingerprint))) *
        inv_log_size;
    double recency = max_ts > 0 ? static_cast<double>(r->timestamp) /
                                      static_cast<double>(max_ts)
                                : 0;
    double score = ranking.w_similarity * sim +
                   ranking.w_popularity * popularity +
                   ranking.w_quality * r->quality + ranking.w_recency * recency;
    scored.push_back({id, sim, score});
  }

  size_t keep = std::min(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + keep, scored.end(),
                    [](const MetaQueryMatch& a, const MetaQueryMatch& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.id < b.id;
                    });
  scored.resize(keep);
  return scored;
}

}  // namespace cqms::metaquery

namespace cqms::miner {

/// A distance matrix scored from scratch: every enumerated pair through
/// CombinedSimilarity of the two records, with no retained matrix.
/// CachedDistanceMatrix must equal it bit for bit. Below
/// `sketch_prune_min_points` every pair is scored; at or above it only
/// pairs whose MinHash sketches share a bucket of a 32-band, 2-row LSH
/// banding, and the rest read 1.0. The banding is restated here on
/// purpose: the oracle shares no code with the matrix it checks.
/// pairs_scored() counts the (i, j > i) pairs it scored.
class DenseDistanceMatrix : public DistanceSource {
 public:
  DenseDistanceMatrix(const storage::QueryStore& store,
                      const std::vector<storage::QueryId>& ids,
                      const metaquery::SimilarityWeights& weights,
                      size_t sketch_prune_min_points) {
    n_ = ids.size();
    std::vector<const storage::QueryRecord*> records(n_);
    for (size_t i = 0; i < n_; ++i) records[i] = store.Get(ids[i]);
    auto set_pair = [&](size_t i, size_t j) {
      double d = 1.0 - metaquery::CombinedSimilarity(*records[i], *records[j],
                                                     weights);
      data_[i * n_ + j] = d;
      data_[j * n_ + i] = d;
      ++pairs_scored_;
    };
    if (sketch_prune_min_points == 0 || n_ < sketch_prune_min_points) {
      data_.assign(n_ * n_, 0.0);
      for (size_t i = 0; i < n_; ++i) {
        for (size_t j = i + 1; j < n_; ++j) set_pair(i, j);
      }
      return;
    }
    data_.assign(n_ * n_, 1.0);
    for (size_t i = 0; i < n_; ++i) data_[i * n_ + i] = 0.0;
    storage::LshIndex banding({/*bands=*/32, /*rows=*/2});
    std::vector<storage::MinHashSketch> sketches;
    sketches.reserve(n_);
    for (size_t i = 0; i < n_; ++i) {
      sketches.push_back(
          storage::ComputeMinHashSketch(records[i]->statement().signature));
      banding.Insert(static_cast<storage::StatementId>(i), sketches.back());
    }
    for (size_t i = 0; i < n_; ++i) {
      for (storage::StatementId j : banding.Candidates(sketches[i])) {
        if (j > i) set_pair(i, j);
      }
    }
  }

  size_t pairs_scored() const { return pairs_scored_; }

 private:
  size_t pairs_scored_ = 0;
};

/// k-medoids over a DenseDistanceMatrix.
inline Clustering KMedoidsCluster(const storage::QueryStore& store,
                                  const std::vector<storage::QueryId>& ids,
                                  const KMedoidsOptions& options = {}) {
  DenseDistanceMatrix dist(store, ids, options.weights,
                           options.sketch_prune_min_points);
  return KMedoidsFromDistances(dist, ids, options);
}

/// Single-linkage agglomerative clustering over the given distances:
/// merges clusters while the closest pair is within `max_distance`. No
/// k needed; used when the number of query groups is unknown.
inline Clustering AgglomerativeFromDistances(
    const DistanceSource& dist, const std::vector<storage::QueryId>& ids,
    double max_distance) {
  Clustering out;
  if (ids.empty()) return out;
  const size_t n = ids.size();

  // Union-find over points; single linkage = union every pair within
  // threshold (equivalent to connected components of the threshold graph).
  std::vector<size_t> parent(n);
  for (size_t i = 0; i < n; ++i) parent[i] = i;
  std::function<size_t(size_t)> find = [&](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (dist.at(i, j) <= max_distance) {
        parent[find(i)] = find(j);
      }
    }
  }

  std::map<size_t, std::vector<size_t>> components;
  for (size_t i = 0; i < n; ++i) components[find(i)].push_back(i);
  for (auto& [root, members] : components) {
    // Medoid: member with minimal total distance.
    size_t best = members[0];
    double best_total = std::numeric_limits<double>::infinity();
    for (size_t i : members) {
      double total = 0;
      for (size_t j : members) total += dist.at(i, j);
      if (total < best_total) {
        best_total = total;
        best = i;
      }
    }
    std::vector<storage::QueryId> cluster;
    cluster.reserve(members.size());
    for (size_t i : members) cluster.push_back(ids[i]);
    out.clusters.push_back(std::move(cluster));
    out.medoids.push_back(ids[best]);
  }
  out.BuildMemberIndex();
  return out;
}

/// Single-linkage clustering over a DenseDistanceMatrix.
inline Clustering AgglomerativeCluster(
    const storage::QueryStore& store, const std::vector<storage::QueryId>& ids,
    double max_distance, const metaquery::SimilarityWeights& weights = {},
    size_t sketch_prune_min_points = 512) {
  DenseDistanceMatrix dist(store, ids, weights, sketch_prune_min_points);
  return AgglomerativeFromDistances(dist, ids, max_distance);
}

}  // namespace cqms::miner

#endif  // CQMS_TESTS_METAQUERY_REFERENCE_H_
