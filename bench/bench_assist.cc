// E5 — Assisted interaction quality & latency (paper Figure 3 / §2.3).
//
// Two questions: (a) are suggestions interactive (the paper: the CQMS
// "must provide hints and recommendations interactively, as a user types
// a new query")? (b) is context-aware completion better than plain
// popularity? We measure completion/recommendation latency vs log size,
// and completion hit-rate@k on held-out next-table prediction — with and
// without association-rule context (the ablation DESIGN.md calls out).
// Expected shape: sub-millisecond completions; context-aware hit-rate
// strictly above the popularity baseline.

#include <set>

#include <benchmark/benchmark.h>

#include "assist/assisted_composer.h"
#include "bench_util.h"

namespace cqms {
namespace {

void BM_CompletionLatency(benchmark::State& state) {
  bench::LogFixture& f = bench::GetFixture(static_cast<size_t>(state.range(0)));
  miner::QueryMiner& miner = bench::GetMinedFixture(static_cast<size_t>(state.range(0)));
  assist::CompletionEngine engine(&f.store, &miner, &f.database.catalog());
  for (auto _ : state) {
    auto suggestions =
        engine.Complete("user0", "SELECT * FROM WaterSalinity, ");
    benchmark::DoNotOptimize(suggestions);
  }
  state.counters["log_size"] = static_cast<double>(f.store.size());
}
BENCHMARK(BM_CompletionLatency)
    ->Arg(1000)->Arg(5000)->Arg(20000)->ArgNames({"queries"});

void BM_RecommendationLatency(benchmark::State& state) {
  bench::LogFixture& f = bench::GetFixture(static_cast<size_t>(state.range(0)));
  // Times the mined log (sessions assigned), as the completion series do.
  bench::GetMinedFixture(static_cast<size_t>(state.range(0)));
  assist::RecommendationEngine engine(&f.store);
  for (auto _ : state) {
    auto recs = engine.Recommend(
        "user0",
        "SELECT T.temp FROM WaterSalinity S, WaterTemp T WHERE "
        "S.loc_x = T.loc_x AND T.temp < 15",
        5);
    benchmark::DoNotOptimize(recs);
  }
  state.counters["log_size"] = static_cast<double>(f.store.size());
}
BENCHMARK(BM_RecommendationLatency)
    ->Arg(1000)->Arg(5000)->Arg(20000)->ArgNames({"queries"});

void BM_CorrectionLatency(benchmark::State& state) {
  bench::LogFixture& f = bench::GetFixture(5000);
  assist::CorrectionEngine engine(&f.store, &f.database);
  for (auto _ : state) {
    auto corrections =
        engine.CorrectIdentifiers("SELECT tmp FROM WatrTemp WHERE tmp < 18");
    benchmark::DoNotOptimize(corrections);
  }
}
BENCHMARK(BM_CorrectionLatency);

/// Hit-rate@k for next-table prediction: for every multi-table query in
/// the log, hide one table, present the rest as the typed FROM clause
/// and check whether the hidden table is suggested among the top k.
/// `use_context` toggles the association-rule scores (the ablation).
double CompletionHitRate(bench::LogFixture& f, miner::QueryMiner& miner,
                         size_t k, bool use_context) {
  // Baseline keeps popularity ranking but disables association-rule
  // context — isolating exactly the paper's §2.3 claim.
  assist::CompletionEngine engine(&f.store, &miner, &f.database.catalog());
  engine.set_use_association_rules(use_context);
  size_t trials = 0, hits = 0;
  for (const auto& record : f.store.records()) {
    if (record.parse_failed() || record.components->tables.size() < 2) continue;
    if (trials >= 300) break;  // cap work per measurement
    const std::string& hidden = record.components->tables.back();
    std::string partial = "SELECT * FROM ";
    for (size_t i = 0; i + 1 < record.components->tables.size(); ++i) {
      partial += record.components->tables[i] + ", ";
    }
    auto suggestions = engine.Complete(record.user, partial, k);
    ++trials;
    for (const auto& s : suggestions) {
      if (s.kind == assist::CompletionSuggestion::Kind::kTable &&
          s.text == hidden) {
        ++hits;
        break;
      }
    }
  }
  return trials == 0 ? 0 : static_cast<double>(hits) / trials;
}

void BM_CompletionHitRate(benchmark::State& state) {
  bench::LogFixture& f = bench::GetFixture(5000);
  miner::QueryMiner& miner = bench::GetMinedFixture(5000);
  const size_t k = static_cast<size_t>(state.range(0));
  const bool use_context = state.range(1) != 0;
  double hit_rate = 0;
  for (auto _ : state) {
    hit_rate = CompletionHitRate(f, miner, k, use_context);
    benchmark::DoNotOptimize(hit_rate);
  }
  state.counters["hit_rate"] = hit_rate;
}
BENCHMARK(BM_CompletionHitRate)
    ->Args({1, 0})->Args({1, 1})
    ->Args({3, 0})->Args({3, 1})
    ->ArgNames({"k", "context"});

/// Recommendation usefulness: probe with a session's *first* query and
/// check whether the top-5 recommendations anticipate where the session
/// went — i.e. share a structure skeleton with a *later* query of the
/// same session while not being a verbatim duplicate of the probe.
/// This is the paper's "the system guides them from their rough query
/// attempts toward similar popular queries" (§2.3), measurable because
/// the workload generator labels sessions.
void BM_RecommendationGuidanceRecall(benchmark::State& state) {
  bench::LogFixture& f = bench::GetFixture(5000);
  bench::GetMinedFixture(5000);  // the mined log, as above
  assist::RecommendationEngine engine(&f.store);
  double recall = 0;
  for (auto _ : state) {
    size_t trials = 0, hits = 0;
    for (const auto& session : f.truth.sessions) {
      if (session.size() < 3) continue;
      if (trials >= 50) break;
      const storage::QueryRecord* first = f.store.Get(session.front());
      if (first == nullptr || first->parse_failed()) continue;
      // Skeletons the session later evolved into (excluding the probe's).
      std::set<uint64_t> later_skeletons;
      for (size_t i = 1; i < session.size(); ++i) {
        const storage::QueryRecord* r = f.store.Get(session[i]);
        if (r != nullptr && !r->parse_failed() &&
            r->statement().skeleton_fingerprint !=
                first->statement().skeleton_fingerprint) {
          later_skeletons.insert(r->statement().skeleton_fingerprint);
        }
      }
      if (later_skeletons.empty()) continue;
      // Fetch generously, then look at the first 5 *structurally
      // distinct* recommendations: same-skeleton constant variants of
      // the probe are shown as one collapsed row in a real client.
      auto recs = engine.Recommend(first->user, first->text, 20);
      if (!recs.ok()) continue;
      ++trials;
      size_t distinct_seen = 0;
      for (const auto& rec : *recs) {
        const storage::QueryRecord* r = f.store.Get(rec.id);
        if (r == nullptr || r->statement().skeleton_fingerprint ==
                                first->statement().skeleton_fingerprint) {
          continue;
        }
        if (++distinct_seen > 5) break;
        if (later_skeletons.count(r->statement().skeleton_fingerprint) > 0) {
          ++hits;
          break;
        }
      }
    }
    recall = trials == 0 ? 0 : static_cast<double>(hits) / trials;
  }
  state.counters["guidance_recall_at_5"] = recall;
}
BENCHMARK(BM_RecommendationGuidanceRecall);

}  // namespace
}  // namespace cqms

BENCHMARK_MAIN();
