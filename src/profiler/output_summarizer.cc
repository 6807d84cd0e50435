#include "profiler/output_summarizer.h"

#include <algorithm>

namespace cqms::profiler {

size_t SummaryBudget(Micros execution_micros, uint64_t /*result_rows*/,
                     const SummarizerOptions& options) {
  double ms = static_cast<double>(execution_micros) / 1000.0;
  double budget = static_cast<double>(options.min_rows) + ms * options.rows_per_milli;
  budget = std::min(budget, static_cast<double>(options.max_rows));
  budget = std::max(budget, static_cast<double>(options.min_rows));
  return static_cast<size_t>(budget);
}

storage::OutputSummary SummarizeOutput(const db::QueryResult& result,
                                       Micros execution_micros,
                                       const SummarizerOptions& options) {
  storage::OutputSummary summary;
  summary.total_rows = result.rows.size();
  summary.column_names = result.column_names;
  const size_t budget =
      SummaryBudget(execution_micros, result.rows.size(), options);
  summary.budget_rows = static_cast<uint32_t>(budget);

  if (result.rows.size() <= budget) {
    summary.sample_rows = result.rows;
    summary.complete = true;
    return summary;
  }

  // Reservoir sampling (Algorithm R): uniform without replacement, one
  // pass, deterministic from the seed.
  Rng rng(options.sample_seed);
  std::vector<db::Row> sample(result.rows.begin(),
                              result.rows.begin() + budget);
  for (size_t i = budget; i < result.rows.size(); ++i) {
    uint64_t j = rng.Uniform(i + 1);
    if (j < budget) sample[j] = result.rows[i];
  }
  summary.sample_rows = std::move(sample);
  summary.complete = false;
  return summary;
}

}  // namespace cqms::profiler
