#include "maintain/quality.h"

#include <algorithm>
#include <cmath>

namespace cqms::maintain {

double ComputeQuality(const storage::QueryRecord& record,
                      const storage::QueryStore& store,
                      const QualityWeights& weights) {
  if (record.HasFlag(storage::kFlagDeleted)) return 0;

  double validity = 1.0;
  if (!record.stats.succeeded || record.parse_failed()) validity = 0;
  if (record.HasFlag(storage::kFlagSchemaBroken)) validity = 0;
  if (record.HasFlag(storage::kFlagObsolete)) validity = 0;
  if (record.HasFlag(storage::kFlagStatsStale)) validity *= 0.8;

  // Efficiency: log-scaled execution time mapped to (0,1]; 1ms -> ~0.9,
  // 1s -> ~0.5, 100s -> ~0.2.
  double ms = static_cast<double>(record.stats.execution_micros) / 1000.0;
  double efficiency = 1.0 / (1.0 + 0.145 * std::log1p(ms));

  // Simplicity: component count mapped to (0,1].
  const sql::QueryComponents& c = record.components;
  double complexity = static_cast<double>(
      c.tables.size() + c.predicates.size() + c.projections.size() +
      2 * c.max_nesting_depth);
  double simplicity = 1.0 / (1.0 + complexity / 8.0);

  double annotated = record.annotations.empty() ? 0.0 : 1.0;

  double popularity =
      std::log1p(static_cast<double>(store.PopularityOf(record.fingerprint))) /
      std::log1p(static_cast<double>(std::max<size_t>(2, store.size())));

  double total_weight = weights.validity + weights.efficiency +
                        weights.simplicity + weights.annotations +
                        weights.popularity;
  if (total_weight <= 0) return 0;
  double score = weights.validity * validity + weights.efficiency * efficiency +
                 weights.simplicity * simplicity + weights.annotations * annotated +
                 weights.popularity * popularity;
  return std::clamp(score / total_weight, 0.0, 1.0);
}

size_t UpdateAllQuality(storage::QueryStore* store, const QualityWeights& weights) {
  size_t updated = 0;
  // By id: a SetQuality may copy the record log a published view
  // shares, and the publish after it may free the log an iterator
  // would still walk.
  for (size_t i = 0; i < store->size(); ++i) {
    const storage::QueryId id = static_cast<storage::QueryId>(i);
    double q = ComputeQuality(*store->Get(id), *store, weights);
    if (store->SetQuality(id, q).ok()) ++updated;
  }
  return updated;
}

}  // namespace cqms::maintain
