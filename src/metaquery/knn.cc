#include "metaquery/knn.h"

#include <algorithm>

#include "obs/metrics.h"
#include "storage/minhash.h"

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
      out.source = CandidateGenerator::kLshBuckets;
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
    // real ids, so unseen tables simply have no postings).
    out.statements =
        store.postings().StatementsUsingAnyTableSymbol(signature.tables);
    out.source = CandidateGenerator::kTableUnion;
    Series().table_union_fallbacks->Increment();
    return out;
  }
  out.source = CandidateGenerator::kFullScan;
  Series().full_scan_fallbacks->Increment();
  return out;
}

}  // namespace cqms::metaquery
