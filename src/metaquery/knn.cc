#include "metaquery/knn.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "metaquery/meta_query_planner.h"
#include "obs/metrics.h"
#include "storage/minhash.h"
#include "storage/record_builder.h"

namespace cqms::metaquery {

namespace {

// Candidate-generation health series: how often the sub-linear LSH path
// actually runs, how many band buckets it probes, how fat its candidate
// sets are, and how often a probe degrades to table-union or full scan.
struct KnnSeries {
  obs::Counter* lsh_probes;
  obs::Counter* lsh_bands_probed;
  obs::Counter* lsh_candidates;
  obs::Counter* table_union_fallbacks;
  obs::Counter* full_scan_fallbacks;
};

const KnnSeries& Series() {
  static const KnnSeries s = [] {
    auto& reg = obs::MetricsRegistry::Global();
    KnnSeries k;
    k.lsh_probes = reg.GetCounter("cqms_knn_lsh_probes_total");
    k.lsh_bands_probed = reg.GetCounter("cqms_knn_lsh_bands_probed_total");
    k.lsh_candidates = reg.GetCounter("cqms_knn_lsh_candidates_total");
    k.table_union_fallbacks =
        reg.GetCounter("cqms_knn_table_union_fallbacks_total");
    k.full_scan_fallbacks =
        reg.GetCounter("cqms_knn_full_scan_fallbacks_total");
    return k;
  }();
  return s;
}

}  // namespace

KnnCandidates KnnCandidateIds(const storage::QueryStore& store,
                              const storage::QueryRecord& probe,
                              const CandidateOptions& options) {
  return KnnCandidateIds(storage::StoreView(store), probe, options);
}

KnnCandidates KnnCandidateIds(const storage::StoreView& store,
                              const storage::QueryRecord& probe,
                              const CandidateOptions& options) {
  KnnCandidates out;
  const storage::SimilaritySignature& signature = probe.statement().signature;
  if (!probe.parse_failed() && !probe.components->tables.empty()) {
    // The probe's sketch is derived here, once per request, and only
    // when the LSH path can run.
    storage::MinHashSketch sketch;
    if (options.use_lsh && store.size() >= options.lsh_min_log_size) {
      sketch = storage::ComputeMinHashSketch(signature);
    }
    if (sketch.valid && !sketch.empty()) {
      out.statements = store.lsh().Candidates(sketch, options.probe_bands);
      out.source = KnnCandidateSource::kLshBuckets;
      const KnnSeries& s = Series();
      s.lsh_probes->Increment();
      size_t index_bands = store.lsh().bands();
      s.lsh_bands_probed->Add(options.probe_bands == 0
                                  ? index_bands
                                  : std::min(options.probe_bands, index_bands));
      // Counted in records, the unit the series always had.
      s.lsh_candidates->Add(store.postings().RecordCount(out.statements));
      return out;
    }
    // The probe signature's tables are the interned Symbols the posting
    // lists are keyed by (transient probes resolve known tables to their
    // real ids, so unseen tables simply have no postings). Hand-built
    // records without a signature fall back to the string lookup.
    const storage::PostingIndex& postings = store.postings();
    out.statements =
        signature.valid
            ? postings.StatementsUsingAnyTableSymbol(signature.tables)
            : postings.StatementsUsingAnyTable(probe.components->tables);
    out.source = KnnCandidateSource::kTableUnion;
    Series().table_union_fallbacks->Increment();
    return out;
  }
  out.source = KnnCandidateSource::kFullScan;
  Series().full_scan_fallbacks->Increment();
  return out;
}

std::vector<Neighbor> KnnSearch(const storage::QueryStore& store,
                                const std::string& viewer,
                                const storage::QueryRecord& probe, size_t k,
                                const SimilarityWeights& weights,
                                const RankingOptions& ranking,
                                const CandidateOptions& candidate_options) {
  // limit=0 means "all" to the planner; k=0 means "none" here.
  if (k == 0) return {};
  MetaQueryRequest request;
  request.SimilarTo(probe, weights, candidate_options)
      .RankedBy(ranking)
      .Limit(k);
  MetaQueryPlanner planner(&store);
  MetaQueryResponse resp = planner.Execute(viewer, request);
  std::vector<Neighbor> out;
  out.reserve(resp.matches.size());
  for (const MetaQueryMatch& m : resp.matches) {
    out.push_back({m.id, m.similarity, m.score});
  }
  return out;
}

std::vector<Neighbor> KnnSearchReference(
    const storage::QueryStore& store, const std::string& viewer,
    const storage::QueryRecord& probe, size_t k,
    const SimilarityWeights& weights, const RankingOptions& ranking,
    const CandidateOptions& candidate_options) {
  KnnCandidates generated = KnnCandidateIds(store, probe, candidate_options);
  std::vector<storage::QueryId> candidates =
      store.postings().RecordsOf(generated.statements);
  if (generated.full_scan()) {
    candidates.resize(store.size());
    std::iota(candidates.begin(), candidates.end(), storage::QueryId{0});
  }

  // Maintained by QueryStore::Append — no per-call log scan.
  Micros max_ts = std::max<Micros>(1, store.max_timestamp());

  // Loop-invariant popularity normalizer, hoisted out of the (possibly
  // thousands-deep) scoring loop.
  double inv_log_size =
      1.0 / std::log1p(static_cast<double>(store.size()) + 1.0);

  storage::VisibilityCache& visibility = store.CacheFor(viewer);
  std::vector<Neighbor> scored;
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
                    [](const Neighbor& a, const Neighbor& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.id < b.id;
                    });
  scored.resize(keep);
  return scored;
}

Result<std::vector<Neighbor>> KnnSearchText(const storage::QueryStore& store,
                                            const std::string& viewer,
                                            const std::string& sql_text, size_t k,
                                            const SimilarityWeights& weights,
                                            const RankingOptions& ranking,
                                            const CandidateOptions& candidates) {
  storage::QueryRecord probe = storage::BuildRecordFromText(
      sql_text, viewer, 0, storage::SignatureMode::kTransient);
  if (probe.parse_failed()) {
    return Status::ParseError("probe query does not parse: " + probe.stats.error);
  }
  return KnnSearch(store, viewer, probe, k, weights, ranking, candidates);
}

}  // namespace cqms::metaquery
